"""Compare the answers two checkouts give on the benchmark's ops.

Usage (from any directory):

    python3 tools/answer_diff.py PARENT_DIR CHANGE_DIR

Each checkout answers in a fresh interpreter of its own, through its own
``perfbench/workloads.py`` (``execute``) and ``src/pldbounds``.  The ops
are every workload's reference ops (so every ``bracket-audit`` case, with
its failure message where it fails), their tiny variants, and the first
``SEEDED_OPS`` timed ops of seeds 1 and 2.  A fixed set of direct library
calls that the benchmark never makes follows (``LIBRARY_OPS``): both
directions of ``self_compose`` at a zero budget, with ``method="direct"``,
on the exact path for short supports and through the transform; each
answer is the result's ``pld_to_json`` text and its charge fields.  An
answer is compared as its JSON text, so floats must agree bit for bit; a
failure's traceback, which names the checkout's paths, is left out.  BLAS
and OpenMP pools run one thread, as in ``perfbench/run.py``.  The tool
reads ``perfbench/`` and does not edit it.

Prints each op whose answer differs, or that only one checkout has, and
exits 1 if there is any; otherwise prints the number of ops compared and
exits 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

#: Timed ops taken from the start of each seeded run.
SEEDED_OPS = 4

SEEDS = (1, 2)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (label, mechanism as MechanismSpec constructor and arguments, spacing,
#: count, CompositionPolicy arguments) of each ``self_compose`` call, made
#: for both directions.
LIBRARY_OPS = (
    ("budget-0", ("gaussian", 1.0), 1e-3, 30, {"truncation_tail_mass": 0.0}),
    ("direct", ("gaussian", 2.0), 1e-2, 20, {"method": "direct", "truncation_tail_mass": 1e-9}),
    # the whole 4201-point support is computed directly, without charge
    ("exact-path", ("randomized_response", math.log(2.0)), 1e-2, 30, {"truncation_tail_mass": 1e-12}),
    # a narrow window: the transform, wrap and round-off charge
    ("rr-window", ("randomized_response", math.log(2.0)), 1e-2, 50, {"truncation_tail_mass": 1e-12}),
    ("subsampled-gaussian", ("subsampled_gaussian", 1.0, 0.01), 5e-3, 200, {"truncation_tail_mass": 1e-9}),
)


def _library_answer(pb, mechanism, spacing, n, policy) -> dict:
    """The JSON-ready result of one ``self_compose`` call, or its failure."""
    kind, *args = mechanism
    spec_of = pb.MechanismSpec
    if kind == "subsampled_gaussian":
        spec = spec_of.poisson_subsampled(spec_of.gaussian(args[0]), args[1])
    else:
        spec = getattr(spec_of, kind)(*args)
    try:
        curve = pb.curve_for(spec)
        grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
        build = pb.pessimistic_pair if policy.direction == "pessimistic" else pb.optimistic_pair
        out = pb.self_compose(pb.pld_of(build(curve, grid)), n, policy)
    except Exception as err:  # a failure is an answer too
        return {"error": type(err).__name__, "message": str(err)}
    fields = ("truncated_low", "truncated_high", "rounding_charge")
    return {"pld": pb.pld_to_json(out), **{name: getattr(out, name) for name in fields}}


def _answers(checkout: Path) -> dict[str, str]:
    """Label -> JSON answer of every op, computed in this process from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    ops = {}
    for workload in workloads.WORKLOADS:
        runs = [("reference", workloads.reference_ops(workload))]
        runs.append(("tiny", workloads.reference_ops(workload, tiny=True)))
        for seed in SEEDS:
            runs.append((f"seed{seed}", workloads.timed_ops(workload, seed)[:SEEDED_OPS]))
        for origin, run in runs:
            for index, op in enumerate(run):
                label = f"{workload}/{origin}/{index}/{op.name}"
                ops.setdefault(json.dumps(op.describe(), sort_keys=True), (label, op))
    answers = {}
    for label, op in ops.values():
        answer = workloads.execute(op)
        answer.pop("traceback", None)
        answers[label] = json.dumps(answer, sort_keys=True)
    import pldbounds as pb

    for name, mechanism, spacing, n, arguments in LIBRARY_OPS:
        for direction in ("pessimistic", "optimistic"):
            policy = pb.CompositionPolicy(direction, **arguments)
            answer = _library_answer(pb, mechanism, spacing, n, policy)
            answers[f"library/self_compose/{name}/{direction}"] = json.dumps(answer, sort_keys=True)
    return answers


def _run(checkout: Path) -> dict[str, str]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--answers", str(checkout)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--answers":
        print(json.dumps(_answers(Path(argv[1]).resolve())))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (_run(Path(arg).resolve()) for arg in argv)
    differ = 0
    for label in sorted(parent.keys() | change.keys()):
        before, after = parent.get(label), change.get(label)
        if before != after:
            differ += 1
            print(f"{label}\n  parent: {before}\n  change: {after}")
    if differ:
        print(f"{differ} of {len(parent.keys() | change.keys())} ops differ")
        return 1
    print(f"all {len(parent)} ops give identical answers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
