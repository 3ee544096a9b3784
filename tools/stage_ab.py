"""Time one workload's ops stage by stage in two checkouts, alternating per round.

Usage (from any directory):

    python3 tools/stage_ab.py PARENT_DIR CHANGE_DIR --workload W [--rounds 16] [--seed 0] [--ops 1]

Both checkouts run in this one interpreter: each checkout's
``src/pldbounds`` is imported under a package name of its own, and its
``perfbench/workloads.py``, which this tool reads and does not edit, is
loaded against that package and rebuilds the workload's timed ops (the
first ``--ops`` of seed ``--seed``).  A round runs the ops in each checkout,
the two in turn, the first of them alternating from round to round: once
whole through ``workloads.execute``, as the benchmark times them, and once
in stages through the library's private steps, in the order a
``run_sweep`` or ``run_compute`` call makes them.  The set-up
(``report._set_up``) is split into the grid (the curve, its range and the
uniform grid: ``report._build_grid``) and each estimator's single-step
build (``report._SINGLE_STEP_BUILDERS``); then come, per count and
estimator, the plan (``compose._plan``), the execution (``compose._execute``),
split into the transforms (the time spent in ``compose._spectral_power``,
which the staged pass wraps in a timer) and the bookkeeping around them,
and the query (``epsilon_for_delta`` or ``delta_at``), per estimator.  The
totals ``set-up`` and ``execute`` are printed next to their parts.  One
round is run first as a warm-up and not counted.

Prints the median over rounds of each stage's time per op, in
milliseconds, for each checkout, their ratio (change / parent), and the
rounds the change won; then each round's whole-op ratio, in order.  A
host whose speed drifts between runs moves both checkouts of a round
together, so interleaved rounds can resolve a change that separate runs
cannot.  BLAS and OpenMP pools run one thread, as in
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")



def _load(path: Path, name: str, package=None):
    """The module or package at ``path`` under ``name``; ``pldbounds`` is ``package`` while it loads."""
    search = [str(path.parent)] if path.name == "__init__.py" else None
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    saved = sys.modules.get("pldbounds")
    if package is not None:
        sys.modules["pldbounds"] = package
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            sys.modules.pop("pldbounds", None)
        else:
            sys.modules["pldbounds"] = saved
    return module


@dataclasses.dataclass
class Checkout:
    """One checkout's library package and workload module."""

    label: str
    pb: object
    workloads: object

    @classmethod
    def load(cls, root: Path, label: str) -> "Checkout":
        pb = _load(root / "src" / "pldbounds" / "__init__.py", f"pldbounds_{label}")
        return cls(label, pb, _load(root / "perfbench" / "workloads.py", f"workloads_{label}", pb))

    def whole(self, ops) -> float:
        start = time.perf_counter()
        for op in ops:
            answer = self.workloads.execute(op)
            if answer["outcome"] != "ok":
                raise SystemExit(f"{self.label}: {op.name} failed: {answer.get('message')}")
        return time.perf_counter() - start

    def stages(self, ops) -> dict[str, float]:
        """Seconds per stage over ``ops``, each op answered as its public call answers it."""
        report, compose, pld = self.pb.report, self.pb.compose, self.pb.pld
        clock = time.perf_counter
        spent = dict.fromkeys(("grid", "plan", "execute", "transforms"), 0.0)

        def add(stage: str, seconds: float) -> None:
            spent[stage] = spent.get(stage, 0.0) + seconds

        spectral_power = compose._spectral_power

        def timed_power(*args):
            start = clock()
            try:
                return spectral_power(*args)
            finally:
                add("transforms", clock() - start)

        compose._spectral_power = timed_power
        try:
            for op in ops:
                self._stage_op(op, report, compose, pld, add)
        finally:
            compose._spectral_power = spectral_power
        builds = [stage for stage in spent if stage.startswith("build ")]
        spent["set-up"] = spent["grid"] + sum(spent[stage] for stage in builds)
        spent["bookkeeping"] = spent["execute"] - spent["transforms"]
        return spent

    @staticmethod
    def _stage_op(op, report, compose, pld, add) -> None:
        clock = time.perf_counter
        request = op.request
        start = clock()
        curve = report.curve_for(request.mechanism)
        grid = report._build_grid(request, curve)
        add("grid", clock() - start)
        singles = {}
        for method in report._estimator_plan(request):
            start = clock()
            singles[method] = report._SINGLE_STEP_BUILDERS[method](curve, grid)
            add(f"build {method}", clock() - start)
        for n in op.counts or (request.compositions,):
            row = dataclasses.replace(request, compositions=n)
            for method, single in singles.items():
                policy = compose.CompositionPolicy(
                    direction=method.removeprefix("pb_"),
                    truncation_tail_mass=report._truncation_budget(row),
                )
                start = clock()
                plan = compose._plan([(single, n)], policy) if n > 1 else None
                planned = clock()
                composed = compose._execute(plan, policy.direction) if plan else single
                executed = clock()
                if row.delta_target is not None:
                    pld.epsilon_for_delta(composed, row.delta_target)
                else:
                    pld.delta_at(composed, row.epsilon_target)
                add("plan", planned - start)
                add("execute", executed - planned)
                add(f"query {method}", clock() - executed)


def _round(checkouts: list[Checkout], ops: dict[str, list]) -> dict[str, dict[str, float]]:
    times = {}
    for checkout in checkouts:
        spent = checkout.stages(ops[checkout.label])
        spent["whole op"] = checkout.whole(ops[checkout.label])
        count = len(ops[checkout.label])
        times[checkout.label] = {stage: seconds / count for stage, seconds in spent.items()}
    return times


def _order(times: dict[str, float]) -> list[str]:
    """The stages in pipeline order, each total after its parts."""
    builds = [stage for stage in times if stage.startswith("build ")]
    queries = [stage for stage in times if stage.startswith("query ")]
    parts = ["grid", *builds, "set-up", "plan", "transforms", "bookkeeping", "execute"]
    return parts + queries + ["whole op"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1, help="timed ops per round and checkout")
    args = parser.parse_args(argv)
    checkouts = [
        Checkout.load(args.parent.resolve(), "parent"),
        Checkout.load(args.change.resolve(), "change"),
    ]
    ops = {c.label: c.workloads.timed_ops(args.workload, args.seed)[: args.ops] for c in checkouts}
    _round(checkouts, ops)
    rounds = []
    for r in range(args.rounds):
        rounds.append(_round(checkouts if r % 2 == 0 else checkouts[::-1], ops))
    print(f"{args.workload}: {args.rounds} rounds of {args.ops} op(s), seed {args.seed}; ms per op")
    print(f"{'stage':<24}{'parent':>10}{'change':>10}{'ratio':>8}{'won':>8}")
    for stage in _order(rounds[0]["parent"]):
        parent = statistics.median(t["parent"][stage] for t in rounds)
        change = statistics.median(t["change"][stage] for t in rounds)
        won = sum(t["change"][stage] < t["parent"][stage] for t in rounds)
        print(
            f"{stage:<24}{parent * 1e3:>10.3f}{change * 1e3:>10.3f}"
            f"{change / parent if parent else float('nan'):>8.3f}{won:>5}/{args.rounds}"
        )
    ratios = [t["change"]["whole op"] / t["parent"]["whole op"] for t in rounds]
    print("whole-op ratio per round:", " ".join(f"{r:.3f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
