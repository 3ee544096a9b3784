"""Traced replay of ``run_compute`` / ``run_sweep`` through the public pipeline.

The replay calls the same public functions the README's Library section
shows, in the same order as ``run_compute``:

    curve_for -> default_epsilon_range -> DiscretizationGrid.uniform
    -> pessimistic_pair / optimistic_pair / pb_*_pld -> pld_of
    -> self_compose -> epsilon_for_delta / delta_at

and wraps each call in a span (name, start, end, parent, op id). Curve
evaluations made inside the library are seen through a proxy curve that the
replay hands to the builders, so they nest under the builder that made
them. Spans stay in memory until the run ends. The replay's answers must
equal the untraced call's exactly; the caller checks that.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import pldbounds as pb

import workloads

__all__ = ["MODULES", "PER_OP_METRICS", "Tracer", "layer_metrics", "replay"]

#: Library modules whose public functions the replay calls; every one must
#: record at least one span in a traced run.
MODULES = ("curves", "grid", "pessimistic", "optimistic", "pld", "compose", "report")


@dataclasses.dataclass
class Span:
    index: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one open op at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, self._op, parent, time.perf_counter(), counts=counts)
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; spans opened inside share its op id."""
        self._op += 1
        with self.span(name) as root:
            yield root


class TracedCurve:
    """Proxy that records a span around each vectorised curve evaluation."""

    _EVALS = ("value", "gap", "right_derivative", "left_derivative")

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._inner, attr)
        if attr not in self._EVALS:
            return target

        def evaluate(alpha):
            with self._tracer.span("curves.eval", points=int(np.size(alpha))):
                return target(alpha)

        return evaluate


def _truncation_budget(request: pb.AccountingRequest) -> float:
    """Per-side truncation budget, as ``run_compute`` derives it from the request."""
    anchor = request.delta_target if request.delta_target is not None else 1e-9
    return min(1e-6, max(1e-15, 1e-3 * anchor))


def _plan(request: pb.AccountingRequest) -> list[str]:
    plan = []
    if request.estimate in ("pessimistic", "both"):
        plan.append("pessimistic")
    if request.estimate in ("optimistic", "both"):
        plan.append("optimistic")
    if request.baseline == "pb":
        plan += ["pb_" + m for m in list(plan)]
    return plan


def _single_step(method: str, curve, grid, tr: Tracer):
    if method in ("pessimistic", "optimistic"):
        build = pb.pessimistic_pair if method == "pessimistic" else pb.optimistic_pair
        with tr.span(f"{method}.build") as s:
            pair = build(curve, grid)
        s.counts["clamp_count"] = pair.clamp_count
        if method == "optimistic":
            kinks = pair.q_masses[1 : grid.k]
            s.counts["kinks_nonzero"] = int(np.count_nonzero(kinks))
            s.counts["kinks_attempted"] = int(kinks.size)
        with tr.span("pld.pld_of"):
            return pb.pld_of(pair)
    direction = method[3:]
    build = pb.pb_pessimistic_pld if direction == "pessimistic" else pb.pb_optimistic_pld
    with tr.span(f"{direction}.pb_build"):
        return build(curve, grid)


def _replay_compute(request: pb.AccountingRequest, tr: Tracer) -> pb.PrivacyBoundReport:
    with tr.span("curves.curve_for"):
        curve = TracedCurve(pb.curve_for(request.mechanism), tr)
    if request.grid_range is not None:
        lo, hi = request.grid_range
    else:
        with tr.span("grid.range"):
            lo, hi = pb.default_epsilon_range(curve, request.discretization)
    with tr.span("grid.uniform") as s:
        grid = pb.DiscretizationGrid.uniform(request.discretization, lo, hi)
    s.counts["points"] = int(grid.alphas.size)
    outcomes = {}
    for method in _plan(request):
        single = _single_step(method, curve, grid, tr)
        with tr.span("compose.self_compose") as s:
            policy = pb.CompositionPolicy(
                direction="pessimistic" if method.endswith("pessimistic") else "optimistic",
                truncation_tail_mass=_truncation_budget(request),
            )
            composed = pb.self_compose(single, request.compositions, policy)
        s.counts.update(
            support_in=single.support_size,
            support_out=composed.support_size,
            truncated_mass=composed.truncated_low + composed.truncated_high,
        )
        with tr.span("pld.query"):
            if request.delta_target is not None:
                eps, delta = pb.epsilon_for_delta(composed, request.delta_target), None
            else:
                eps, delta = None, pb.delta_at(composed, request.epsilon_target)
        outcomes[method] = pb.report.BoundOutcome(
            method=method,
            epsilon=eps,
            delta=delta,
            support_size=composed.support_size,
            mass_at_infinity=composed.mass_at_infinity,
            truncated_low=composed.truncated_low,
            truncated_high=composed.truncated_high,
        )
    with tr.span("report.assemble"):
        return pb.PrivacyBoundReport(
            query=request.query,
            delta_target=request.delta_target,
            epsilon_target=request.epsilon_target,
            compositions=request.compositions,
            discretization=request.discretization,
            grid_epsilon_range=(float(grid.finite_epsilons[0]), float(grid.finite_epsilons[-1])),
            outcomes=outcomes,
            runtime_ms=0.0,
        )


def replay(op: workloads.Op, tr: Tracer) -> dict:
    """Replay the op traced; returns the answer in ``workloads.execute``'s form."""
    try:
        with tr.op(op.name):
            if op.counts is None:
                report = _replay_compute(op.request, tr)
            else:
                reports = [
                    _replay_compute(dataclasses.replace(op.request, compositions=n), tr)
                    for n in op.counts
                ]
    except Exception as exc:  # op boundary, as in workloads.execute
        return workloads.failure(exc)
    if op.counts is None:
        return workloads.report_answer(report)
    rows = [
        {"compositions": n, **{f"eps_{m}": r.outcomes[m].epsilon for m in r.outcomes}}
        for n, r in zip(op.counts, reports)
    ]
    return workloads.sweep_answer(rows)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metrics, each reported as the mean over the run's traced ops.
PER_OP_METRICS = (
    "curves.eval_s",
    "curves.points_per_s",
    "grid.range_s",
    "grid.uniform_s",
    "grid.points",
    "pessimistic.build_s",
    "pessimistic.pb_build_s",
    "pessimistic.clamp_count",
    "optimistic.build_s",
    "optimistic.pb_build_s",
    "optimistic.hull_share",
    "pld.pld_of_s",
    "pld.query_s",
    "pld.query_calls",
    "compose.self_compose_s",
    "compose.calls",
    "compose.support_in",
    "compose.support_out",
    "compose.truncated_mass",
    "report.self_s",
)


def _op_layer_values(root: Span, spans: list[Span]) -> dict:
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    eval_s = total("curves.eval")
    children = sum(s.duration for s in spans if s.parent == root.index)
    attempted = count("optimistic.build", "kinks_attempted")
    return {
        "curves.eval_s": eval_s,
        "curves.points_per_s": count("curves.eval", "points") / eval_s if eval_s > 0 else 0.0,
        "grid.range_s": total("grid.range"),
        "grid.uniform_s": total("grid.uniform"),
        "grid.points": count("grid.uniform", "points"),
        "pessimistic.build_s": total("pessimistic.build"),
        "pessimistic.pb_build_s": total("pessimistic.pb_build"),
        "pessimistic.clamp_count": count("pessimistic.build", "clamp_count"),
        "optimistic.build_s": total("optimistic.build"),
        "optimistic.pb_build_s": total("optimistic.pb_build"),
        "optimistic.hull_share": (
            count("optimistic.build", "kinks_nonzero") / attempted if attempted else 0.0
        ),
        "pld.pld_of_s": total("pld.pld_of"),
        "pld.query_s": total("pld.query"),
        "pld.query_calls": calls("pld.query"),
        "compose.self_compose_s": total("compose.self_compose"),
        "compose.calls": calls("compose.self_compose"),
        "compose.support_in": count("compose.self_compose", "support_in"),
        "compose.support_out": count("compose.self_compose", "support_out"),
        "compose.truncated_mass": count("compose.self_compose", "truncated_mass"),
        "report.self_s": root.duration - children,
        "op_s": root.duration,
        "coverage": children / root.duration,
    }


def layer_metrics(tracer: Tracer) -> tuple[dict, list[dict]]:
    """Mean over ops of each per-layer metric, plus every op's own values.

    Raises RuntimeError when a library module recorded no span at all.
    """
    silent = [m for m in MODULES if not any(s.module == m for s in tracer.spans)]
    if silent:
        raise RuntimeError(f"traced run recorded no span for module(s): {', '.join(silent)}")
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = []
    for spans in by_op.values():
        root = next(s for s in spans if s.parent is None)
        per_op.append({"op": root.op, "name": root.name, **_op_layer_values(root, spans)})
    means = {m: statistics.fmean(v[m] for v in per_op) for m in PER_OP_METRICS}
    return means, per_op
