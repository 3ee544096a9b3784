"""Workload inputs, op execution through the public API, and answer checks.

Three workloads, chosen so that they stress different layers:

- ``fine-gaussian``: one large ``run_compute`` request per op (670k-point
  composed support). It exercises large-array composition and the query
  layer, and bypasses anything that works at sweep level.
- ``readme-sweep``: the README's subsampled-Gaussian ``run_sweep`` per op,
  40 small compositions. Sweep-level caching and a direct-vs-FFT choice by
  size show here and should not show on ``fine-gaussian``.
- ``bracket-audit``: 14 fixed ``run_compute`` cases covering tightness and
  robustness. Several fail today; their outcomes are recorded in
  ``expected_outcomes.json`` and checked on every run.

Seed 0 gives exactly the base parameters on every op. Other seeds vary the
noise scale of each op of a timed workload by up to +/-10% and delta over
{1e-5, 1e-6, 1e-7}, in blocks of 12 ops that each cover the scale range
evenly, so that every run does about the same work whatever its seed.
``bracket-audit`` cases
are fixed; the seed only shuffles the order in which they are timed.
Bracket quality is read from ``reference_ops``, which no seed changes, so
that it compares across seeds; every op's answer is still checked.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import traceback
from pathlib import Path

import pldbounds as pb

__all__ = [
    "WORKLOADS",
    "Op",
    "audit_cases",
    "check",
    "exact_value",
    "execute",
    "expected_outcomes",
    "reference_ops",
    "timed_ops",
]

WORKLOADS = ("fine-gaussian", "readme-sweep", "bracket-audit")

DELTAS = (1e-5, 1e-6, 1e-7)

#: Inputs built ahead of the timed loop; the loop wraps around after these.
MAX_OPS = 512

#: Ops per input block: one per noise-scale stratum, each delta in turn.
#: A ``fine-gaussian`` run is about one block long; op time varies by
#: about +/-20% over the scale and delta ranges.
BLOCK_OPS = 4 * len(DELTAS)

#: ``epsilon_for_delta`` bisects to 1e-9 and returns the upper end of its
#: last interval, so a returned epsilon can sit up to this far above the
#: epsilon of the distribution it was asked about.
EPS_QUERY_RESOLUTION = 1e-9

#: Relative accuracy of the exact delta references (float evaluation of a
#: difference of two tail probabilities).
DELTA_REFERENCE_RTOL = 1e-9

README_SWEEP_COUNTS = tuple(range(100, 1001, 100))

_EXPECTED_FILE = Path(__file__).with_name("expected_outcomes.json")


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation: a ``run_compute`` or a ``run_sweep`` call."""

    name: str
    request: pb.AccountingRequest
    counts: tuple[int, ...] | None = None
    reference: tuple[str, float] | None = None  # ("gaussian", sigma) or ("rr", eps0)

    @property
    def key(self) -> tuple:
        return (self.request, self.counts)

    def describe(self) -> dict:
        req = self.request
        body = {
            "name": self.name,
            "mechanism": _describe_spec(req.mechanism),
            "discretization": req.discretization,
            "compositions": list(self.counts) if self.counts else req.compositions,
            "estimate": req.estimate,
            "baseline": req.baseline,
        }
        if req.delta_target is not None:
            body["delta_target"] = req.delta_target
        else:
            body["epsilon_target"] = req.epsilon_target
        return body


def _describe_spec(spec: pb.MechanismSpec) -> dict:
    body = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    if spec.inner is not None:
        body["inner"] = _describe_spec(spec.inner)
    return {k: v for k, v in body.items() if v is not None}


def _request(mechanism, spacing, n=1, delta=None, epsilon=None, baseline=None):
    return pb.AccountingRequest(
        mechanism=mechanism,
        discretization=spacing,
        compositions=n,
        delta_target=delta,
        epsilon_target=epsilon,
        baseline=baseline,
    )


def _gaussian(sigma):
    return pb.MechanismSpec.gaussian(sigma)


def _subsampled(inner, q):
    return pb.MechanismSpec.poisson_subsampled(inner, q)


def _fine_gaussian(sigma: float, delta: float, tiny: bool) -> Op:
    spacing, n = (1e-2, 10) if tiny else (1e-4, 100)
    return Op(
        "fine-gaussian",
        _request(_gaussian(sigma), spacing, n, delta=delta),
        reference=("gaussian", sigma),
    )


def _readme_sweep(sigma: float, delta: float, tiny: bool) -> Op:
    spacing, counts = (0.05, (10, 20)) if tiny else (0.005, README_SWEEP_COUNTS)
    return Op(
        "readme-sweep",
        _request(_subsampled(_gaussian(sigma), 0.01), spacing, delta=delta, baseline="pb"),
        counts=counts,
    )


def audit_cases() -> list[Op]:
    """The 14 fixed ``bracket-audit`` cases, in a stable order."""
    g80 = _gaussian(80.0)
    rr1 = pb.MechanismSpec.randomized_response(1.0)
    sl = _subsampled(pb.MechanismSpec.laplace(5.0), 0.01)
    sg1 = _subsampled(_gaussian(1.0), 0.01)
    sg08 = _subsampled(_gaussian(0.8), 1e-3)
    cases = [
        Op("g80-n1000", _request(g80, 0.005, 1000, delta=1e-5), reference=("gaussian", 80.0)),
        Op("g80-n5000", _request(g80, 0.005, 5000, delta=1e-5), reference=("gaussian", 80.0)),
        Op("g80-eps1", _request(g80, 0.005, 1000, epsilon=1.0), reference=("gaussian", 80.0)),
        Op("g1-n1000", _request(_gaussian(1.0), 1e-3, 1000, delta=1e-5), reference=("gaussian", 1.0)),
        Op("rr1-n16", _request(rr1, 0.01, 16, delta=1e-6), reference=("rr", 1.0)),
        Op("rr1-n1000", _request(rr1, 0.01, 1000, delta=1e-6), reference=("rr", 1.0)),
    ]
    cases += [
        Op(f"sl-n{n}", _request(sl, 2e-4, n, delta=1e-5, baseline="pb"))
        for n in (100, 200, 300, 400, 500)
    ]
    cases += [
        Op("sg1-n1000", _request(sg1, 1e-4, 1000, delta=1e-5)),
        Op("sg08-n1e4", _request(sg08, 1e-3, 10**4, delta=1e-5)),
        Op("sg08-n1e5", _request(sg08, 1e-3, 10**5, delta=1e-5)),
    ]
    return cases


def expected_outcomes() -> dict[str, dict]:
    """Recorded outcome of every ``bracket-audit`` case at this benchmark's seed state."""
    return json.loads(_EXPECTED_FILE.read_text())["bracket-audit"]


_BASE = {
    "fine-gaussian": (_fine_gaussian, 2.0, 1e-6),
    "readme-sweep": (_readme_sweep, 1.0, 1e-5),
}


def reference_ops(workload: str, tiny: bool = False) -> list[Op]:
    """Inputs the quality metrics are read from, the same for every seed.

    A timed workload's base-parameter op; every ``bracket-audit`` case.
    """
    if workload == "bracket-audit":
        return audit_cases()
    make, sigma0, delta0 = _BASE[workload]
    return [make(sigma0, delta0, tiny)]


def timed_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The ops the timed loop cycles through, built from the seed."""
    rng = random.Random(seed)
    if workload == "bracket-audit":
        expected = expected_outcomes()
        ops = [op for op in audit_cases() if expected[op.name]["outcome"] == "ok"]
        rng.shuffle(ops)
        return ops
    if seed == 0:
        return reference_ops(workload, tiny)
    make, sigma0, _ = _BASE[workload]
    ops = []
    while len(ops) < MAX_OPS:
        deltas = list(DELTAS)
        rng.shuffle(deltas)
        block = []
        for k in range(BLOCK_OPS):
            u = (k + rng.random()) / BLOCK_OPS  # a point in the k-th stratum of [0, 1)
            sigma = sigma0 * (1.0 + 0.1 * (2.0 * u - 1.0))
            block.append(make(sigma, deltas[k % len(deltas)], tiny))
        rng.shuffle(block)
        ops += block
    return ops[:MAX_OPS]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _exit_class(exc: BaseException) -> int | None:
    """The CLI exit code the exception maps to (2 request, 3 numerical)."""
    if isinstance(exc, pb.RequestError):
        return 2
    if isinstance(exc, pb.NumericalValidityError):
        return 3
    return None


def failure(exc: Exception) -> dict:
    record = {
        "outcome": type(exc).__name__,
        "exit_class": _exit_class(exc),
        "message": str(exc),
    }
    if record["exit_class"] is None:
        record["traceback"] = traceback.format_exc()
    return record


def report_answer(report: pb.PrivacyBoundReport) -> dict:
    """The deterministic part of a ``run_compute`` report."""
    bounds = {}
    for method, out in report.outcomes.items():
        bounds[method] = {
            "epsilon": out.epsilon,
            "delta": out.delta,
            "support_size": out.support_size,
            "mass_at_infinity": out.mass_at_infinity,
            "truncated_low": out.truncated_low,
            "truncated_high": out.truncated_high,
        }
    return {"outcome": "ok", "bounds": bounds}


def sweep_answer(rows: list[dict]) -> dict:
    """The deterministic part of ``run_sweep`` rows (runtimes dropped)."""
    return {
        "outcome": "ok",
        "rows": [{k: v for k, v in row.items() if not k.startswith("runtime_ms")} for row in rows],
    }


def execute(op: Op) -> dict:
    """Run the op through the public API; a failure is returned, never raised."""
    try:
        if op.counts is None:
            return report_answer(pb.run_compute(op.request))
        _, rows = pb.run_sweep(op.request, list(op.counts))
        return sweep_answer(rows)
    except Exception as exc:  # op boundary: record every failure and go on
        return failure(exc)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def exact_value(op: Op) -> float | None:
    """Exact epsilon (or delta, for an epsilon target) of the op, if known."""
    if op.reference is None or op.counts is not None:
        return None
    import exact  # not part of set-up: only the checks need scipy.optimize

    kind, param = op.reference
    req = op.request
    n = req.compositions
    if req.delta_target is not None:
        if kind == "gaussian":
            return exact.gaussian_epsilon(param, n, req.delta_target)
        return exact.rr_epsilon(param, n, req.delta_target)
    if kind == "gaussian":
        return exact.gaussian_delta(req.epsilon_target, param, n)
    return exact.rr_delta(req.epsilon_target, param, n)


def _eps_brackets(answer: dict) -> list[dict]:
    """Every epsilon query of an answer as {low, high, pb_high} (None if absent)."""
    if "rows" in answer:
        return [
            {
                "low": row.get("eps_optimistic"),
                "high": row.get("eps_pessimistic"),
                "pb_high": row.get("eps_pb_pessimistic"),
            }
            for row in answer["rows"]
        ]
    bounds = answer["bounds"]
    if bounds.get("pessimistic", {}).get("epsilon") is None:
        return []
    return [
        {
            "low": bounds.get("optimistic", {}).get("epsilon"),
            "high": bounds["pessimistic"]["epsilon"],
            "pb_high": bounds.get("pb_pessimistic", {}).get("epsilon"),
        }
    ]


def check(op: Op, answer: dict, exact_ref: float | None) -> dict:
    """Quality figures and bracket violations of one successful answer.

    Returns {"violations": [...], "width_rel": float | None,
    "excess_high_rel": float | None, "excess_low_rel": float | None}.
    """
    violations: list[str] = []
    widths = []
    result = {"width_rel": None, "excess_high_rel": None, "excess_low_rel": None}
    tol = EPS_QUERY_RESOLUTION
    for b in _eps_brackets(answer):
        low, high, pb_high = b["low"], b["high"], b["pb_high"]
        if low is not None and not low <= high:
            violations.append(f"eps_low {low!r} above eps_high {high!r}")
        if pb_high is not None and not pb_high >= high - tol:
            violations.append(f"eps_pb_pessimistic {pb_high!r} below eps_pessimistic {high!r}")
        if low is not None and math.isfinite(high) and high > 0:
            widths.append((high - low) / high)
        if exact_ref is not None:
            if not high >= exact_ref - tol:
                violations.append(f"eps_high {high!r} below exact {exact_ref!r}")
            if low is not None and not low <= exact_ref + tol:
                violations.append(f"eps_low {low!r} above exact {exact_ref!r}")
            if exact_ref > 0:
                result["excess_high_rel"] = (high - exact_ref) / exact_ref
                if low is not None:
                    result["excess_low_rel"] = (exact_ref - low) / exact_ref
    if "bounds" in answer and answer["bounds"].get("pessimistic", {}).get("delta") is not None:
        d_high = answer["bounds"]["pessimistic"]["delta"]
        d_low = answer["bounds"].get("optimistic", {}).get("delta")
        if d_low is not None and not d_low <= d_high:
            violations.append(f"delta_low {d_low!r} above delta_high {d_high!r}")
        if exact_ref is not None:
            slack = DELTA_REFERENCE_RTOL * exact_ref
            if not d_high >= exact_ref - slack:
                violations.append(f"delta_high {d_high!r} below exact {exact_ref!r}")
            if d_low is not None and not d_low <= exact_ref + slack:
                violations.append(f"delta_low {d_low!r} above exact {exact_ref!r}")
    if widths:
        result["width_rel"] = max(widths)
    result["violations"] = violations
    return result
