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
answer is the result's ``pld_to_json`` text and its charge fields.  Then
come the single-step rules (``CURVE_OPS``, ``BASELINE_OPS``): ``value``,
``gap`` and both derivatives of the identical-pair, Laplace and
randomized-response curves at 0, at each kink and one ulp either side of it
(one scalar call per point), and over a lattice (one array call), with
``value`` and ``gap`` also at +inf, written with ``float.hex``; and both
privacy-buckets baselines, rounded up and down, from a curve and from a
pair, on a grid built ``from_alphas``.  An answer is compared as its JSON
text, so floats must agree bit for bit; a
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

import numpy as np

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


#: (label, ``pldbounds`` curve constructor and arguments) of the curves whose
#: kernels ``CURVE_OPS`` evaluates.
CURVE_OPS = (
    ("identical", "identical_pair_curve", ()),
    ("laplace-1", "LaplaceCurve", (1.0,)),
    ("laplace-0.3", "LaplaceCurve", (0.3,)),
    ("rr-ln2", "RandomizedResponseCurve", (math.log(2.0),)),
    ("rr-1", "RandomizedResponseCurve", (1.0,)),
)

#: (label, mechanism as in ``LIBRARY_OPS``) of the curves both baselines round.
BASELINE_OPS = (
    ("gaussian", ("gaussian", 1.0)),
    ("laplace", ("laplace", 1.0)),
    ("rr", ("randomized_response", 1.0)),
    ("subsampled-gaussian", ("subsampled_gaussian", 1.0, 0.1)),
)

#: Interior alphas of the ``from_alphas`` grid the baselines round onto.
BASELINE_ALPHAS = tuple(math.exp(0.1 * i) for i in range(-40, 41))


def _spec(pb, mechanism):
    kind, *args = mechanism
    spec_of = pb.MechanismSpec
    if kind == "subsampled_gaussian":
        return spec_of.poisson_subsampled(spec_of.gaussian(args[0]), args[1])
    return getattr(spec_of, kind)(*args)


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.atleast_1d(values)]


def _curve_answers(pb, make, args) -> dict[str, list[str]]:
    """Every kernel of one curve at its kinks, one ulp either side, 0, +inf and a lattice."""
    curve = getattr(pb, make)(*args)
    kinks = sorted({getattr(curve, "_alpha_lo", 1.0), getattr(curve, "_alpha_hi", 1.0)})
    points = [0.0]
    for kink in kinks:
        points += [math.nextafter(kink, 0.0), kink, math.nextafter(kink, math.inf)]
    lattice = np.linspace(0.0, 4.0, 161)
    answers = {}
    methods = ("value", "gap", "right_derivative", "left_derivative")
    for method in methods:
        evaluate = getattr(curve, method)
        ends = points + [math.inf] if method in ("value", "gap") else points
        answers[f"{method}/points"] = [float(evaluate(x)).hex() for x in ends]
        answers[f"{method}/lattice"] = _hex(evaluate(lattice))
    return answers


def _baseline_answers(pb, mechanism) -> dict[str, dict]:
    """Both rounded baselines from the curve and from its pessimistic pair on a 0.05 lattice."""
    curve = pb.curve_for(_spec(pb, mechanism))
    grid = pb.DiscretizationGrid.from_alphas([0.0, *BASELINE_ALPHAS, math.inf])
    lattice = pb.DiscretizationGrid.uniform(0.05, *pb.default_epsilon_range(curve, 0.05))
    sources = {"curve": lambda: curve, "pair": lambda: pb.pessimistic_pair(curve, lattice)}
    answers = {}
    for source, make in sources.items():
        for name in ("pb_pessimistic_pld", "pb_optimistic_pld"):
            try:
                pld = getattr(pb, name)(make(), grid)
                answer = {"masses": _hex(pld.masses), "proper": pld.proper}
            except Exception as err:  # a failure is an answer too
                answer = {"error": type(err).__name__, "message": str(err)}
            answers[f"{name}/{source}"] = answer
    return answers


def _library_answer(pb, mechanism, spacing, n, policy) -> dict:
    """The JSON-ready result of one ``self_compose`` call, or its failure."""
    try:
        curve = pb.curve_for(_spec(pb, mechanism))
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
    for name, make, args in CURVE_OPS:
        for method, answer in _curve_answers(pb, make, args).items():
            answers[f"library/curve/{name}/{method}"] = json.dumps(answer)
    for name, mechanism in BASELINE_OPS:
        for op, answer in _baseline_answers(pb, mechanism).items():
            answers[f"library/baseline/{name}/{op}"] = json.dumps(answer, sort_keys=True)
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
