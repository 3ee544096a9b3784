"""End-to-end accounting pipeline: curve -> discretize -> compose -> query.

The pipeline computes two-sided bounds on the privacy profile of an n-fold
self-composition:

1. exact trade-off curve of the mechanism's dominating pair,
2. pessimistic (connect-the-dots) and/or optimistic (tangents + hull)
   grid-supported pairs, optionally next to the rounding baseline,
3. loss distributions composed by lattice convolution,
4. divergence queries: delta at a target epsilon, or the smallest epsilon
   meeting a target delta.

Everything is deterministic; the only non-reproducible report field is the
wall-clock runtime.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

from .compose import CompositionPolicy, self_compose
from .curves import MechanismSpec, curve_for
from .errors import NumericalValidityError, RequestError
from .grid import DiscretizationGrid, default_epsilon_range
from .optimistic import optimistic_pair, pb_optimistic_pld
from .pessimistic import pb_pessimistic_pld, pessimistic_pair
from .pld import FinitePLD, curve_of, delta_at, epsilon_for_delta, pld_of

__all__ = ["AccountingRequest", "BoundOutcome", "PrivacyBoundReport", "run_compute", "run_sweep", "run_curve"]

_ESTIMATES = ("pessimistic", "optimistic", "both")


@dataclasses.dataclass(frozen=True)
class AccountingRequest:
    """One accounting query; exactly one of the two targets is set."""

    mechanism: MechanismSpec
    discretization: float
    compositions: int = 1
    delta_target: float | None = None
    epsilon_target: float | None = None
    estimate: str = "both"
    baseline: str | None = None
    grid_range: tuple[float, float] | None = None
    output: str = "json"

    def __post_init__(self):
        if (self.delta_target is None) == (self.epsilon_target is None):
            raise RequestError("set exactly one of delta_target / epsilon_target")
        if self.delta_target is not None and not (0.0 < self.delta_target <= 1.0):
            raise RequestError(f"delta_target must lie in (0, 1], got {self.delta_target}")
        if self.epsilon_target is not None and not math.isfinite(self.epsilon_target):
            raise RequestError(f"epsilon_target must be finite, got {self.epsilon_target}")
        if not (self.discretization > 0 and math.isfinite(self.discretization)):
            raise RequestError(f"discretization must be positive, got {self.discretization}")
        if self.compositions < 0:
            raise RequestError(f"compositions must be non-negative, got {self.compositions}")
        if self.estimate not in _ESTIMATES:
            raise RequestError(f"estimate must be one of {_ESTIMATES}")
        if self.baseline not in (None, "pb"):
            raise RequestError(f"baseline must be 'pb' or omitted, got {self.baseline!r}")
        if self.grid_range is not None:
            lo, hi = self.grid_range
            if not (lo < 0.0 < hi):
                raise RequestError(
                    f"grid range must satisfy eps_min < 0 < eps_max, got [{lo}, {hi}]"
                )

    @property
    def query(self) -> str:
        return "epsilon_for_delta" if self.delta_target is not None else "delta_for_epsilon"


@dataclasses.dataclass(frozen=True)
class BoundOutcome:
    """One estimator's composed answer plus its grid bookkeeping."""

    method: str
    epsilon: float | None
    delta: float | None
    support_size: int
    mass_at_infinity: float
    truncated_low: float
    truncated_high: float


@dataclasses.dataclass(frozen=True)
class PrivacyBoundReport:
    """Two-sided answer with grid metadata and truncation accounting."""

    query: str
    delta_target: float | None
    epsilon_target: float | None
    compositions: int
    discretization: float
    grid_epsilon_range: tuple[float, float]
    outcomes: dict[str, BoundOutcome]
    runtime_ms: float

    def __post_init__(self):
        lo = self.outcomes.get("optimistic")
        hi = self.outcomes.get("pessimistic")
        if lo is not None and hi is not None:
            if self.query == "epsilon_for_delta":
                if not lo.epsilon <= hi.epsilon:
                    raise NumericalValidityError(
                        "bound inversion: optimistic epsilon above pessimistic"
                    )
            else:
                if not lo.delta <= hi.delta:
                    raise NumericalValidityError(
                        "bound inversion: optimistic delta above pessimistic"
                    )

    @property
    def eps_low(self) -> float | None:
        out = self.outcomes.get("optimistic")
        return out.epsilon if out else None

    @property
    def eps_high(self) -> float | None:
        out = self.outcomes.get("pessimistic")
        return out.epsilon if out else None

    @property
    def delta_low(self) -> float | None:
        out = self.outcomes.get("optimistic")
        return out.delta if out else None

    @property
    def delta_high(self) -> float | None:
        out = self.outcomes.get("pessimistic")
        return out.delta if out else None

    def to_dict(self) -> dict:
        body: dict = {
            "query": self.query,
            "compositions": self.compositions,
            "discretization": self.discretization,
            "grid_epsilon_range": list(self.grid_epsilon_range),
        }
        if self.delta_target is not None:
            body["delta_target"] = self.delta_target
        if self.epsilon_target is not None:
            body["epsilon_target"] = self.epsilon_target
        bounds = {}
        for name, out in self.outcomes.items():
            entry = {
                "support_size": out.support_size,
                "mass_at_infinity": out.mass_at_infinity,
                "truncated_mass_low": out.truncated_low,
                "truncated_mass_high": out.truncated_high,
            }
            if out.epsilon is not None:
                entry["epsilon"] = out.epsilon
            if out.delta is not None:
                entry["delta"] = out.delta
            bounds[name] = entry
        body["bounds"] = bounds
        if self.eps_low is not None and self.eps_high is not None:
            body["eps_low"] = self.eps_low
            body["eps_high"] = self.eps_high
        if self.delta_low is not None and self.delta_high is not None:
            body["delta_low"] = self.delta_low
            body["delta_high"] = self.delta_high
        body["runtime_ms"] = self.runtime_ms
        return body


def _build_grid(request: AccountingRequest, curve) -> DiscretizationGrid:
    if request.grid_range is not None:
        lo, hi = request.grid_range
    else:
        lo, hi = default_epsilon_range(curve, request.discretization)
    return DiscretizationGrid.uniform(request.discretization, lo, hi)


def _estimator_plan(request: AccountingRequest) -> list[str]:
    plan: list[str] = []
    if request.estimate in ("pessimistic", "both"):
        plan.append("pessimistic")
    if request.estimate in ("optimistic", "both"):
        plan.append("optimistic")
    if request.baseline == "pb":
        if request.estimate in ("pessimistic", "both"):
            plan.append("pb_pessimistic")
        if request.estimate in ("optimistic", "both"):
            plan.append("pb_optimistic")
    return plan


_SINGLE_STEP_BUILDERS: dict[str, Callable] = {
    "pessimistic": lambda curve, grid: pld_of(pessimistic_pair(curve, grid)),
    "optimistic": lambda curve, grid: pld_of(optimistic_pair(curve, grid)),
    "pb_pessimistic": pb_pessimistic_pld,
    "pb_optimistic": pb_optimistic_pld,
}


def _direction_of(method: str) -> str:
    return "pessimistic" if method.endswith("pessimistic") else "optimistic"


def _truncation_budget(request: AccountingRequest) -> float:
    """Per-side mass budget for the request's compositions.

    Relocating tail mass perturbs delta by at most the budget (and only in
    the safe direction), so a budget three orders below the delta target is
    invisible in the answer while keeping the composed support tight.
    Epsilon-target queries get a conservative fixed budget.
    """
    anchor = request.delta_target if request.delta_target is not None else 1e-9
    return min(1e-6, max(1e-15, 1e-3 * anchor))


@dataclasses.dataclass(frozen=True)
class _SetUp:
    """What a request's answers share across composition counts."""

    grid_epsilon_range: tuple[float, float]
    singles: dict[str, FinitePLD]
    runtime_ms: float


def _set_up(request: AccountingRequest) -> _SetUp:
    """Curve, grid and one single-step distribution per estimator."""
    start = time.perf_counter()
    curve = curve_for(request.mechanism)
    grid = _build_grid(request, curve)
    singles = {
        method: _SINGLE_STEP_BUILDERS[method](curve, grid)
        for method in _estimator_plan(request)
    }
    return _SetUp(
        grid_epsilon_range=(float(grid.finite_epsilons[0]), float(grid.finite_epsilons[-1])),
        singles=singles,
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )


def _compose_and_query(request: AccountingRequest, method: str, single: FinitePLD) -> BoundOutcome:
    policy = CompositionPolicy(
        direction=_direction_of(method),
        truncation_tail_mass=_truncation_budget(request),
    )
    composed = self_compose(single, request.compositions, policy)
    if request.delta_target is not None:
        eps = epsilon_for_delta(composed, request.delta_target)
        delta = None
    else:
        eps = None
        delta = delta_at(composed, request.epsilon_target)
    return BoundOutcome(
        method=method,
        epsilon=eps,
        delta=delta,
        support_size=composed.support_size,
        mass_at_infinity=composed.mass_at_infinity,
        truncated_low=composed.truncated_low,
        truncated_high=composed.truncated_high,
    )


def _answer(request: AccountingRequest, setup: _SetUp) -> PrivacyBoundReport:
    """Compose and query each estimator at ``request.compositions``.

    The report's runtime is the set-up's plus this answer's own.
    """
    start = time.perf_counter()
    outcomes = {
        method: _compose_and_query(request, method, single)
        for method, single in setup.singles.items()
    }
    runtime_ms = setup.runtime_ms + (time.perf_counter() - start) * 1e3
    return PrivacyBoundReport(
        query=request.query,
        delta_target=request.delta_target,
        epsilon_target=request.epsilon_target,
        compositions=request.compositions,
        discretization=request.discretization,
        grid_epsilon_range=setup.grid_epsilon_range,
        outcomes=outcomes,
        runtime_ms=runtime_ms,
    )


def run_compute(request: AccountingRequest) -> PrivacyBoundReport:
    """Execute the full pipeline for one request."""
    return _answer(request, _set_up(request))


def run_sweep(
    request: AccountingRequest, counts: list[int], repeats: int = 1
) -> tuple[list[str], list[dict]]:
    """One row per composition count, in input order.

    Returns (column names, rows).  Rows carry one epsilon per estimator, the
    mean runtime in milliseconds, and with repeats > 1 also the 25th and
    75th runtime percentiles across the repeated runs.

    The curve, grid and single-step distributions do not depend on the
    count, so they are built once per sweep; every row equals
    ``run_compute`` at its count.  A row's runtime is the time to answer it
    from the request: the set-up time, measured once, plus that run's
    composition and query time.  Repeats re-time only composition and query.
    """
    if request.delta_target is None:
        raise RequestError("sweeps invert delta to epsilon; set a delta target")
    if repeats < 1:
        raise RequestError(f"repeats must be >= 1, got {repeats}")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise RequestError("composition counts must be strictly ascending")
    if any(n < 0 for n in counts):
        raise RequestError("composition counts must be non-negative")
    methods = _estimator_plan(request)
    columns = ["compositions"] + [f"eps_{m}" for m in methods] + ["runtime_ms"]
    if repeats > 1:
        columns += ["runtime_ms_p25", "runtime_ms_p75"]
    setup = _set_up(request)
    rows = []
    for n in counts:
        row_request = dataclasses.replace(request, compositions=n)
        durations = []
        report = None
        for _ in range(repeats):
            report = _answer(row_request, setup)
            durations.append(report.runtime_ms)
        row = {"compositions": n}
        for m in methods:
            row[f"eps_{m}"] = report.outcomes[m].epsilon
        durations.sort()
        row["runtime_ms"] = sum(durations) / len(durations)
        if repeats > 1:
            row["runtime_ms_p25"] = _percentile(durations, 0.25)
            row["runtime_ms_p75"] = _percentile(durations, 0.75)
        rows.append(row)
    return columns, rows


def _percentile(sorted_values: list[float], frac: float) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = frac * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    w = pos - lo
    return (1.0 - w) * sorted_values[lo] + w * sorted_values[hi]


def run_curve(request: AccountingRequest) -> tuple[list[str], list[dict]]:
    """Rows (alpha, true curve, both estimates, rounded-up baseline).

    Samples the finite grid alphas and the midpoints of consecutive grid
    intervals, so the rows show both the exact node values and the
    interpolation behaviour.  Ignores the composition count: the columns
    describe the single-step discretization.
    """
    curve = curve_for(request.mechanism)
    grid = _build_grid(request, curve)
    pess = curve_of(pessimistic_pair(curve, grid))
    opt = curve_of(optimistic_pair(curve, grid))
    pb = pb_pessimistic_pld(curve, grid)
    finite = grid.alphas[: grid.k]
    samples: list[float] = []
    for a, b in zip(finite, finite[1:]):
        samples.append(float(a))
        samples.append(math.sqrt(a * b) if a > 0 else 0.5 * b)
    samples.append(float(finite[-1]))
    columns = ["alpha", "h_true", "h_pessimistic", "h_optimistic", "h_pb_pessimistic"]
    rows = []
    for a in samples:
        rows.append(
            {
                "alpha": a,
                "h_true": float(curve.value(a)),
                "h_pessimistic": float(pess.value(a)),
                "h_optimistic": float(opt.value(a)),
                "h_pb_pessimistic": delta_at(pb, math.log(a) if a > 0 else -math.inf),
            }
        )
    return columns, rows
