"""Command-line front end.

Three verbs:

- ``compute``: one accounting query (epsilon for a delta target, or delta
  for an epsilon target) for an n-fold self-composition.
- ``sweep``: one row per composition count, CSV or JSON.
- ``curve``: the single-step discretized curves next to the exact one.

Flags can also be supplied through a flat JSON config file (``--config``)
whose keys are the long flag names with dashes replaced by underscores;
flags given on the command line win on conflict.  Each value must have its
flag's type (``_config_value``); null leaves the flag unset.

Numbers are emitted with 12 significant digits and infinities as the string
"inf".  Output is byte-identical across runs of the same request except for
the runtime fields, which report wall-clock measurements.

Exit codes: 0 on success, 2 for an invalid request, 3 for a numerical
validity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .compose import _composition_count
from .curves import MechanismSpec
from .errors import NumericalValidityError, RequestError
from .report import AccountingRequest, run_compute, run_curve, run_sweep

__all__ = ["main", "build_parser"]

_MECHANISMS = (
    "gaussian",
    "laplace",
    "randomized-response",
    "subsampled-gaussian",
    "subsampled-laplace",
)


def _fmt(value) -> str:
    """12-significant-digit formatting; infinities spelled out ("inf", "-inf", "nan")."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return _fmt(obj)
        return float(_fmt(obj))
    return obj


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pldbounds",
        description="Two-sided privacy accounting for composed mechanisms "
        "via discretized privacy loss distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("compute", "one accounting query"),
        ("sweep", "one row per composition count"),
        ("curve", "single-step discretized curves"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="flat JSON config file; flags win")
        p.add_argument("--mechanism", choices=_MECHANISMS, default=None)
        p.add_argument("--noise-scale", type=float, default=None)
        p.add_argument("--rr-epsilon", type=float, default=None)
        p.add_argument("--sampling-prob", type=float, default=None)
        p.add_argument(
            "--adjacency",
            choices=("add", "remove", "both"),
            default=None,
            help="adjacency direction for subsampled mechanisms (default both)",
        )
        p.add_argument(
            "--compositions",
            type=str,
            default=None,
            help="composition count; for sweep, a comma-separated ascending list",
        )
        p.add_argument("--delta", type=float, default=None, help="delta target (invert to epsilon)")
        p.add_argument("--epsilon", type=float, default=None, help="epsilon target (evaluate delta)")
        p.add_argument("--discretization", type=float, default=None, help="epsilon lattice spacing")
        p.add_argument("--estimate", choices=("pessimistic", "optimistic", "both"), default=None)
        p.add_argument("--baseline", choices=("pb",), default=None)
        p.add_argument(
            "--grid-range",
            type=float,
            nargs=2,
            metavar=("EPS_MIN", "EPS_MAX"),
            default=None,
            help="override the automatic epsilon range",
        )
        p.add_argument("--output", choices=("json", "csv"), default=None)
        p.add_argument("--out", type=str, default=None, help="write to FILE instead of stdout")
        p.add_argument("--repeats", type=int, default=None, help="timing repetitions per sweep row")
    return parser


def _option_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The verb's request flags by config key (argparse dest), without --config."""
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action
        for action in verbs.choices[command]._actions
        if action.dest not in ("help", "config")
    }


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    actions = _option_actions(parser, args.command)
    merged: dict = {key: getattr(args, key) for key in actions}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RequestError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise RequestError("config file must hold a flat JSON object")
        for raw_key, value in config.items():
            key = raw_key.replace("-", "_")
            if key not in actions:
                raise RequestError(f"unknown config key {raw_key!r}")
            checked = None if value is None else _config_value(raw_key, actions[key], value)
            if merged[key] is None:
                merged[key] = checked
    return merged


#: What a config value must be, by key, where it is not a number; keys with
#: choices take one of them.
_CONFIG_KINDS = {
    "compositions": "an integer, a list of integers or a comma-separated string",
    "grid_range": "a list of two numbers",
    "repeats": "a non-negative integer",
    "out": "a string",
}


def _config_value(raw_key: str, action: argparse.Action, value):
    """A config value in the form its flag parses to, or ``RequestError`` naming the key.

    Numbers exclude bools and strings, and integral counts go through
    ``_composition_count``; an integer or a list of integers for
    ``--compositions`` becomes the flag's comma-separated string.
    """
    if action.choices is not None:
        if value in action.choices:
            return value
        raise RequestError(
            f"config key {raw_key!r}: invalid choice {value!r} "
            f"(choose from {', '.join(action.choices)})"
        )
    try:
        if isinstance(value, str) and action.type is str:
            return value
        if action.dest == "compositions":
            counts = value if isinstance(value, list) else [value]
            return ",".join(str(_composition_count(n)) for n in counts)
        if action.type is int:
            return _composition_count(value)
        numbers = value if action.nargs else [value]
        if action.type is float and isinstance(numbers, list) and len(numbers) == (action.nargs or 1):
            if all(type(x) in (int, float) for x in numbers):  # bools and strings are not numbers
                floats = [float(x) for x in numbers]
                return floats if action.nargs else floats[0]
    except (OverflowError, RequestError):
        pass
    expected = _CONFIG_KINDS.get(action.dest, "a number")
    raise RequestError(f"config key {raw_key!r} must be {expected}, got {value!r}")


def _mechanism_from(settings: dict) -> MechanismSpec:
    name = settings["mechanism"]
    if name is None:
        raise RequestError("--mechanism is required")
    if name == "randomized-response":
        return MechanismSpec.randomized_response(_require(settings, "rr_epsilon"))
    if name in ("gaussian", "subsampled-gaussian"):
        base = MechanismSpec.gaussian(_require(settings, "noise_scale"))
    elif name in ("laplace", "subsampled-laplace"):
        base = MechanismSpec.laplace(_require(settings, "noise_scale"))
    else:
        raise RequestError(f"unknown mechanism {name!r}")
    if not name.startswith("subsampled-"):
        return base
    return MechanismSpec.poisson_subsampled(
        base, _require(settings, "sampling_prob"), settings["adjacency"] or "both"
    )


def _require(settings: dict, key: str) -> float:
    value = settings[key]
    if value is None:
        raise RequestError(f"--{key.replace('_', '-')} is required for this mechanism")
    return value


def _parse_counts(raw: str | None, command: str) -> list[int]:
    if raw is None:
        return [1]
    try:
        counts = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise RequestError(f"bad composition count(s) {raw!r}") from exc
    if not counts:
        raise RequestError("no composition counts given")
    if command != "sweep" and len(counts) != 1:
        raise RequestError(f"{command} takes a single composition count")
    return counts


def _request_from(settings: dict, command: str, compositions: int) -> AccountingRequest:
    grid_range = settings["grid_range"]
    delta = settings["delta"]
    epsilon = settings["epsilon"]
    if command == "curve" and delta is None and epsilon is None:
        delta = 1e-5  # the curve verb never queries, but the request needs a target
    if settings["discretization"] is None:
        raise RequestError("--discretization is required")
    return AccountingRequest(
        mechanism=_mechanism_from(settings),
        discretization=settings["discretization"],
        compositions=compositions,
        delta_target=delta,
        epsilon_target=epsilon,
        estimate=settings["estimate"] or "both",
        baseline=settings["baseline"],
        grid_range=None if grid_range is None else tuple(grid_range),
    )


def _rows_to_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def _rows_to_json(columns: list[str], rows: list[dict]) -> str:
    payload = {"columns": columns, "rows": [_json_ready(row) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _report_to_csv(report_dict: dict) -> str:
    flat: dict = {}

    def flatten(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for key, val in obj.items():
                flatten(f"{prefix}{key}." if prefix else f"{key}.", val)
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                flatten(f"{prefix}{i}.", item)
        else:
            flat[prefix.rstrip(".")] = obj

    flatten("", report_dict)
    columns = list(flat.keys())
    return _rows_to_csv(columns, [flat])


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    settings = _merge_config(args, parser)
    output = settings["output"] or ("csv" if args.command in ("sweep", "curve") else "json")
    counts = _parse_counts(settings["compositions"], args.command)
    repeats = 1 if settings["repeats"] is None else settings["repeats"]
    request = _request_from(settings, args.command, counts[0])
    if args.command == "compute":
        report = run_compute(request).to_dict()
        text = (
            json.dumps(_json_ready(report), indent=2) + "\n"
            if output == "json"
            else _report_to_csv(report)
        )
    elif args.command == "sweep":
        columns, rows = run_sweep(request, counts, repeats=repeats)
        text = _rows_to_csv(columns, rows) if output == "csv" else _rows_to_json(columns, rows)
    else:
        columns, rows = run_curve(request)
        text = _rows_to_csv(columns, rows) if output == "csv" else _rows_to_json(columns, rows)
    _emit(text, settings["out"])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args, parser)
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidityError as exc:
        print(f"numerical validity failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
