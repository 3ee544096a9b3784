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
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .compose import CompositionPolicy, self_compose
from .curves import MechanismSpec, curve_for
from .errors import NumericalValidityError, RequestError, _composition_count, _is_finite_real
from .grid import DiscretizationGrid, default_epsilon_range
from .optimistic import optimistic_pair, pb_optimistic_pld
from .pessimistic import pb_pessimistic_pld, pessimistic_pair
from .pld import FinitePLD, _curve_at, curve_of, delta_at, epsilon_for_delta, pld_of

__all__ = ["AccountingRequest", "BoundOutcome", "PrivacyBoundReport", "run_compute", "run_sweep", "run_curve"]

_ESTIMATES = ("pessimistic", "optimistic", "both")
_BASELINES = ("pb",)


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

    def __post_init__(self):
        """Refuse misuse with a ``RequestError`` that names the field.

        Every number must pass ``errors._is_finite_real``: bools, strings,
        NaN and infinities are refused, each with its field's message.
        """
        delta, epsilon, spacing = self.delta_target, self.epsilon_target, self.discretization
        if (delta is None) == (epsilon is None):
            raise RequestError("set exactly one of delta_target / epsilon_target")
        if delta is not None and not (_is_finite_real(delta) and 0.0 < delta <= 1.0):
            raise RequestError(f"delta_target must lie in (0, 1], got {delta!r}")
        if epsilon is not None and not _is_finite_real(epsilon):
            raise RequestError(f"epsilon_target must be finite, got {epsilon!r}")
        if not (_is_finite_real(spacing) and spacing > 0.0):
            raise RequestError(f"discretization must be positive, got {spacing!r}")
        _composition_count(self.compositions)
        if self.estimate not in _ESTIMATES:
            raise RequestError(f"estimate must be one of {_ESTIMATES}")
        if self.baseline not in (None, *_BASELINES):
            choices = " or ".join(map(repr, _BASELINES))
            raise RequestError(f"baseline must be {choices} or omitted, got {self.baseline!r}")
        if self.grid_range is not None:
            try:
                lo, hi = self.grid_range
            except (TypeError, ValueError):
                raise RequestError(
                    f"grid_range must be a pair (eps_min, eps_max), got {self.grid_range!r}"
                ) from None
            if not (_is_finite_real(lo) and _is_finite_real(hi) and lo < 0.0 < hi):
                raise RequestError(
                    f"grid range must satisfy eps_min < 0 < eps_max, got [{lo!r}, {hi!r}]"
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
        """Refuse an optimistic answer above the pessimistic one."""
        lo = self.outcomes.get("optimistic")
        hi = self.outcomes.get("pessimistic")
        answer = "epsilon" if self.query == "epsilon_for_delta" else "delta"
        if lo is not None and hi is not None and not getattr(lo, answer) <= getattr(hi, answer):
            raise NumericalValidityError(f"bound inversion: optimistic {answer} above pessimistic")

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
    """The requested directions, then their ``pb_`` baselines if asked for."""
    directions = [d for d in ("pessimistic", "optimistic") if request.estimate in (d, "both")]
    return directions + [f"pb_{d}" for d in directions if request.baseline == "pb"]


_SINGLE_STEP_BUILDERS: dict[str, Callable] = {
    "pessimistic": lambda curve, grid: pld_of(pessimistic_pair(curve, grid)),
    "optimistic": lambda curve, grid: pld_of(optimistic_pair(curve, grid)),
    "pb_pessimistic": pb_pessimistic_pld,
    "pb_optimistic": pb_optimistic_pld,
}


def _truncation_budget(request: AccountingRequest) -> float:
    """Per-side mass budget for the request's compositions.

    ``self_compose`` sizes its transform window so that at most budget / n
    of the n-fold mass wraps around on each side, and charges that much on
    the estimate's safe side (to +inf or to -inf).  The charge shifts delta
    by at most budget / n, in the safe direction, so the budget bounds
    truncation's shift in delta while keeping the composed support tight.
    That shift is not always negligible: for Gaussian sigma = 2 at spacing
    1e-4, n = 100, delta = 1e-6 the relative bracket width is 1.27e-6,
    against 7.4e-7 at a budget 1000 times smaller, where the round-off
    charge (about 1.2e-11 per side) sets most of it.
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
        direction=method.removeprefix("pb_"),
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


#: Single steps of at least this many points compose in two threads.  The
#: worker overlaps the transforms, which run outside the interpreter lock;
#: numpy's elementwise stages gain nothing from it on a 2-vCPU VM with one
#: BLAS thread (two threads' elementwise work took 1.03 times as long as one
#: thread's, their transforms 0.91).  Measured there on Gaussian sigma = 2,
#: 30 alternating rounds per case, composition and queries only: a second
#: thread took 0.97 of the time at n = 100 on 89,470 points (faster in 27 of
#: 30 rounds) and 0.995 on 8,949 points, and 1.10 at n = 10 on 17,895 points.
#: The README sweep (1,672 points, compositions mostly Python) took 2.4x as
#: long with it.
_CONCURRENT_MIN_SUPPORT = 1 << 14


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _compose_plan(
    request: AccountingRequest, plan: list[tuple[str, FinitePLD]]
) -> dict[str, BoundOutcome]:
    return {method: _compose_and_query(request, method, single) for method, single in plan}


def _outcomes(request: AccountingRequest, setup: _SetUp) -> dict[str, BoundOutcome]:
    """Each estimator's outcome in plan order, or the first failure in plan order.

    Large single steps with at least two usable CPUs split the plan: the
    calling thread composes the first half while one worker thread, started
    and joined here, composes the second.  numpy's transforms release the
    interpreter lock, so the two overlap.  Each estimator's work is the
    sequential one, so the outcomes and the failure raised are the same.
    """
    plan = list(setup.singles.items())
    half = len(plan) // 2
    if not (
        half
        and min(single.support_size for _, single in plan) >= _CONCURRENT_MIN_SUPPORT
        and _usable_cpus() >= 2
    ):
        return _compose_plan(request, plan)
    # leaving the block joins the worker; the calling thread's half comes
    # first in plan order, so its failure is raised whatever the worker does
    with ThreadPoolExecutor(1, thread_name_prefix="pldbounds") as worker:
        theirs = worker.submit(_compose_plan, request, plan[half:])
        outcomes = _compose_plan(request, plan[:half])
    return outcomes | theirs.result()


def _answer(request: AccountingRequest, setup: _SetUp) -> PrivacyBoundReport:
    """Compose and query each estimator at ``request.compositions``.

    The report's runtime is the set-up's plus this answer's own wall time.
    """
    start = time.perf_counter()
    outcomes = _outcomes(request, setup)
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
    if _composition_count(repeats, "repeats") < 1:
        raise RequestError(f"repeats must be >= 1, got {repeats}")
    try:
        counts = [_composition_count(n) for n in counts]
    except TypeError:  # not iterable
        raise RequestError(f"composition counts must be a list of integers, got {counts!r}") from None
    if not counts:
        raise RequestError("no composition counts given")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise RequestError("composition counts must be strictly ascending")
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
        row["runtime_ms"] = statistics.fmean(durations)
        if repeats > 1:
            quartiles = statistics.quantiles(durations, method="inclusive")
            row["runtime_ms_p25"], row["runtime_ms_p75"] = quartiles[0], quartiles[2]
        rows.append(row)
    return columns, rows


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
    samples = np.empty(2 * finite.size - 1)
    samples[0::2] = finite
    samples[1::2] = np.sqrt(finite[:-1] * finite[1:])
    samples[1] = 0.5 * finite[1]  # the geometric midpoint of [0, a_1] is 0
    # the baseline is the loss distribution of the pair P = m, Q = m e^(-eps)
    m = pb.masses[1:-1]
    q = m * np.exp(-pb.finite_epsilons)
    h_pb = np.maximum(_curve_at(grid.alphas[1:-1], m, q, pb.mass_at_infinity, samples), 0.0)
    columns = ["alpha", "h_true", "h_pessimistic", "h_optimistic", "h_pb_pessimistic"]
    table = zip(
        samples.tolist(),
        curve.value(samples).tolist(),
        pess.value(samples).tolist(),
        opt.value(samples).tolist(),
        h_pb.tolist(),
    )
    rows = [
        {"alpha": a, "h_true": t, "h_pessimistic": p, "h_optimistic": o, "h_pb_pessimistic": b}
        for a, t, p, o, b in table
    ]
    return columns, rows
