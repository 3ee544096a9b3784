"""Audit brackets at DP-SGD scale: one row per request of a fixed grid, and the checks every row must pass.

Usage (from any directory):

    python3 tools/scale_audit.py

The grid (``GRID``) holds the Poisson-subsampled Gaussian at sigma 0.6,
0.8 and 1.2, rates 1e-3 and 1e-2, n = 10^3 to 10^6 and delta 1e-5 and
1e-9; the Gaussian mechanism, whose composition has a closed form, up to
epsilons in the hundreds; and randomized response, whose composition is
enumerated.  Each request runs at two spacings through ``run_compute`` of
the ``src/pldbounds`` beside this tool.  A row gives the outcome (``ok``, or
the exit code the CLI would give, the stage that failed and its message),
the bracket [eps_low, eps_high], its
relative width (eps_high - eps_low) / eps_high, the mass W that the
composition's window truncated and the round-off charge R on each side
(pessimistic: W to +inf; optimistic: W to -inf), the composed support per
side and the wall time.

The checks, over the rows that answer:

- the exact epsilon, where there is one, lies in the bracket (within
  ``REFERENCE_TOL``, the benchmark's query resolution);
- across spacings, the largest eps_low is at most the smallest eps_high:
  every spacing's bracket is proven, so they must overlap;
- both ends are non-decreasing in n and non-increasing in delta.

Prints the rows as a Markdown table, then each failed check; exits 1 if a
check fails, else 0.  References come from ``perfbench/exact.py``, which
this tool reads and does not edit.  BLAS and OpenMP pools are not pinned:
set ``OMP_NUM_THREADS=1`` and the like for times comparable with the
benchmark's.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import time
import traceback
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
# this checkout's library first; perfbench last, for ``exact`` alone
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import pldbounds as pb  # noqa: E402
from pldbounds import report  # noqa: E402

#: Slack of the reference check: ``perfbench.workloads.EPS_QUERY_RESOLUTION``.
REFERENCE_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Request:
    """One request of the grid: a mechanism family and parameter, rate, count, target and spacing."""

    family: str  # "subsampled-gaussian", "gaussian" or "rr"
    parameter: float  # sigma, or randomized response's epsilon
    q: float  # the sampling rate; 1 without subsampling
    n: int
    delta: float
    spacing: float

    @property
    def label(self) -> str:
        rate = f" q={self.q:g}" if self.q < 1.0 else ""
        return f"{self.family} {self.parameter:g}{rate} n={self.n:g} delta={self.delta:g} s={self.spacing:g}"

    def accounting_request(self) -> pb.AccountingRequest:
        if self.family == "rr":
            mechanism = pb.MechanismSpec.randomized_response(self.parameter)
        else:
            mechanism = pb.MechanismSpec.gaussian(self.parameter)
        if self.q < 1.0:
            mechanism = pb.MechanismSpec.poisson_subsampled(mechanism, self.q)
        return pb.AccountingRequest(mechanism, self.spacing, compositions=self.n, delta_target=self.delta)

    def reference(self) -> float | None:
        """The exact epsilon of the Gaussian or of randomized response; None under subsampling."""
        if self.q < 1.0:
            return None
        import exact  # perfbench's references, which need scipy

        if self.family == "gaussian":
            return exact.gaussian_epsilon(self.parameter, self.n, self.delta)
        return exact.rr_epsilon(self.parameter, self.n, self.delta)


DELTAS = (1e-5, 1e-9)

GRID = (
    *(
        Request("subsampled-gaussian", sigma, q, n, delta, spacing)
        for sigma, q, n, delta, spacing in itertools.product(
            (0.6, 0.8, 1.2), (1e-3, 1e-2), (10**3, 10**4, 10**5, 10**6), DELTAS, (1e-3, 5e-4)
        )
    ),
    # sigma 1 at n = 1000 reads epsilon 633.93
    *(
        Request("gaussian", sigma, 1.0, n, delta, spacing)
        for sigma, n, delta, spacing in itertools.product((1.0, 2.0, 80.0), (10, 100, 1000), DELTAS, (2e-3, 1e-3))
    ),
    *(
        Request("rr", eps0, 1.0, n, delta, spacing)
        for eps0, n, delta, spacing in itertools.product((0.5, 1.0, 2.0), (10, 100, 1000), DELTAS, (0.01, 0.005))
    ),
)


@dataclasses.dataclass
class Row:
    """What one request answered: the outcome, and for an answer its bracket and bookkeeping."""

    request: Request
    outcome: str
    seconds: float
    low: float | None = None
    high: float | None = None
    composed: dict = dataclasses.field(default_factory=dict)  # direction -> FinitePLD


def _stage(exc: BaseException) -> str:
    """The stage that failed: the first library function below ``report`` on the failure's path.

    Written module.function, such as ``compose.self_compose`` or
    ``pessimistic.pessimistic_pair``; a failure inside ``report`` itself
    names the innermost function there.
    """
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "pldbounds" in Path(f.filename).parts]
    below = [f for f in frames if Path(f.filename).stem != "report"]
    frame = below[0] if below else frames[-1]
    return f"{Path(frame.filename).stem}.{frame.name}"


def run(request: Request) -> Row:
    """``run_compute`` of the request, keeping each direction's composed distribution."""
    composed = {}
    compose = report.self_compose

    def kept(single, n, policy):
        composed[policy.direction] = out = compose(single, n, policy)
        return out

    start = time.perf_counter()
    try:
        with mock.patch.object(report, "self_compose", kept):
            answer = pb.run_compute(request.accounting_request())
    except pb.PLDBoundsError as exc:
        code = 2 if isinstance(exc, pb.RequestError) else 3
        return Row(request, f"exit {code} in {_stage(exc)}: {exc}", time.perf_counter() - start)
    seconds = time.perf_counter() - start
    return Row(request, "ok", seconds, answer.eps_low, answer.eps_high, composed)


def _groups(rows: list[Row], field: str) -> list[list[Row]]:
    """The answered rows whose requests differ only in ``field``, grouped, each group sorted by it."""
    key = lambda r: dataclasses.astuple(dataclasses.replace(r.request, **{field: 0}))  # noqa: E731
    answered = sorted((r for r in rows if r.outcome == "ok"), key=lambda r: (key(r), getattr(r.request, field)))
    return [list(group) for _, group in itertools.groupby(answered, key=key)]


def failed_checks(rows: list[Row]) -> list[tuple[Row, str]]:
    """(row, what failed) of every check over the rows that answer."""
    failures = []
    for row in rows:
        if row.outcome != "ok":
            continue
        ref = row.request.reference()
        if not row.low <= row.high:
            failures.append((row, f"eps_low {row.low!r} above eps_high {row.high!r}"))
        if ref is not None and not row.low - REFERENCE_TOL <= ref <= row.high + REFERENCE_TOL:
            failures.append((row, f"exact {ref!r} outside [{row.low!r}, {row.high!r}]"))
    for group in _groups(rows, "spacing"):
        if max(r.low for r in group) > min(r.high for r in group):
            brackets = ", ".join(f"s={r.request.spacing:g}: [{r.low!r}, {r.high!r}]" for r in group)
            failures.append((group[0], f"brackets across spacings do not overlap: {brackets}"))
    # epsilon rises with n and falls as delta rises
    for field, rises in (("n", True), ("delta", False)):
        for group in _groups(rows, field):
            for before, after in zip(group, group[1:]):
                for end in ("low", "high"):
                    was, now = getattr(before, end), getattr(after, end)
                    if (now < was) if rises else (now > was):
                        at = getattr(before.request, field)
                        failures.append((after, f"eps_{end} {now!r} {'below' if rises else 'above'} {was!r} at {field}={at:g}"))
    return failures


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def table(rows: list[Row]) -> list[str]:
    """The rows as Markdown table lines."""
    lines = [
        "| request | outcome | eps_low | eps_high | width_rel | W, R (pess) | W, R (opt) | support (pess/opt) | time (s) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        cells = [row.request.label, row.outcome.replace("|", "/")]
        if row.outcome == "ok":
            width = (row.high - row.low) / row.high if math.isfinite(row.high) and row.high > 0 else None
            pess, opt = row.composed["pessimistic"], row.composed["optimistic"]
            cells += [
                _fmt(row.low), _fmt(row.high), _fmt(width),
                f"{pess.truncated_high:.2g}, {pess.rounding_charge:.2g}",
                f"{opt.truncated_low:.2g}, {opt.rounding_charge:.2g}",
                f"{pess.support_size}/{opt.support_size}",
            ]
        else:
            cells += [""] * 6
        cells.append(f"{row.seconds:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rows = [run(request) for request in GRID]
    print("\n".join(table(rows)))
    failures = failed_checks(rows)
    answered = sum(row.outcome == "ok" for row in rows)
    print(f"\n{answered} of {len(rows)} requests answer; {len(failures)} failed checks")
    for row, what in failures:
        print(f"FAILED {row.request.label}: {what}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
