"""Command-line front end.

Three verbs:

- ``compute``: one accounting query (epsilon for a delta target, or delta
  for an epsilon target) for an n-fold self-composition.
- ``sweep``: one row per composition count, CSV or JSON.
- ``curve``: the single-step discretized curves next to the exact one.

Each request flag is declared once, as a row of ``_FLAGS``: the parser
registers the rows, and a flat JSON config file (``--config``) is checked
against the same rows.  Its keys are the long flag names with dashes
replaced by underscores; flags given on the command line win on conflict.
Each value must have its flag's type (``_config_value``); null leaves the
flag unset.  ``--mechanism`` names the rows of ``_MECHANISMS``: each row
gives the mechanism's constructor, the flag that sets its parameter, and
whether it is subsampled.

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

from .curves import _DIRECTIONS, MechanismSpec
from .errors import NumericalValidityError, RequestError, _composition_count, _is_finite_real
from .report import _BASELINES, _ESTIMATES, AccountingRequest, run_compute, run_curve, run_sweep

__all__ = ["main", "build_parser"]

#: Each ``--mechanism`` name: its ``MechanismSpec`` constructor, the flag that
#: gives its parameter, and whether it is Poisson-subsampled.
_MECHANISMS = {
    "gaussian": (MechanismSpec.gaussian, "noise_scale", False),
    "laplace": (MechanismSpec.laplace, "noise_scale", False),
    "randomized-response": (MechanismSpec.randomized_response, "rr_epsilon", False),
    "subsampled-gaussian": (MechanismSpec.gaussian, "noise_scale", True),
    "subsampled-laplace": (MechanismSpec.laplace, "noise_scale", True),
}

#: Every request flag, in help order: its config key (the argparse dest) and
#: its argparse keywords.  The parser and ``--config`` both read this table.
_FLAGS = {
    "mechanism": {"choices": tuple(_MECHANISMS)},
    "noise_scale": {"type": float},
    "rr_epsilon": {"type": float},
    "sampling_prob": {"type": float},
    "adjacency": {"choices": _DIRECTIONS,
                  "help": "adjacency direction for subsampled mechanisms (default both)"},
    "compositions": {"type": str,
                     "help": "composition count; for sweep, a comma-separated ascending list"},
    "delta": {"type": float, "help": "delta target (invert to epsilon)"},
    "epsilon": {"type": float, "help": "epsilon target (evaluate delta)"},
    "discretization": {"type": float, "help": "epsilon lattice spacing"},
    "estimate": {"choices": _ESTIMATES},
    "baseline": {"choices": _BASELINES},
    "grid_range": {"type": float, "nargs": 2, "metavar": ("EPS_MIN", "EPS_MAX"),
                   "help": "override the automatic epsilon range"},
    "output": {"choices": ("json", "csv")},
    "out": {"type": str, "help": "write to FILE instead of stdout"},
    "repeats": {"type": int, "help": "timing repetitions per sweep row"},
}


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
        for key, keywords in _FLAGS.items():
            p.add_argument(f"--{key.replace('_', '-')}", **keywords)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {key: getattr(args, key) for key in _FLAGS}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: malformed JSON, or an int past 4300 digits
            raise RequestError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise RequestError("config file must hold a flat JSON object")
        for raw_key, value in config.items():
            key = raw_key.replace("-", "_")
            if key not in _FLAGS:
                raise RequestError(f"unknown config key {raw_key!r}")
            checked = None if value is None else _config_value(raw_key, key, value)
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


def _config_value(raw_key: str, key: str, value):
    """A config value in the form its flag parses to, or ``RequestError`` naming the key.

    Numbers exclude bools and strings, and integral counts go through
    ``_composition_count``; an integer or a list of integers for
    ``--compositions`` becomes the flag's comma-separated string.
    """
    flag = _FLAGS[key]
    kind, nargs = flag.get("type"), flag.get("nargs")
    if "choices" in flag:
        if value in flag["choices"]:
            return value
        raise RequestError(
            f"config key {raw_key!r}: invalid choice {value!r} "
            f"(choose from {', '.join(flag['choices'])})"
        )
    try:
        if isinstance(value, str) and kind is str:
            return value
        if key == "compositions":
            counts = value if isinstance(value, list) else [value]
            return ",".join(str(_composition_count(n)) for n in counts)
        if kind is int:
            return _composition_count(value)
        numbers = value if nargs else [value]
        if kind is float and isinstance(numbers, list) and len(numbers) == (nargs or 1):
            if all(map(_is_finite_real, numbers)):
                floats = [float(x) for x in numbers]
                return floats if nargs else floats[0]
    except RequestError:
        pass
    expected = _CONFIG_KINDS.get(key, "a number")
    raise RequestError(f"config key {raw_key!r} must be {expected}, got {value!r}")


def _mechanism_from(settings: dict) -> MechanismSpec:
    name = settings["mechanism"]
    if name is None:
        raise RequestError("--mechanism is required")
    make, parameter, subsampled = _MECHANISMS[name]
    base = make(_require(settings, parameter))
    if not subsampled:
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


def _run(args: argparse.Namespace) -> None:
    settings = _merge_config(args)
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
        _run(args)
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidityError as exc:
        print(f"numerical validity failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
