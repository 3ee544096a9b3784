"""Compare the answers two checkouts give on the benchmark's ops.

Usage (from any directory):

    python3 tools/answer_diff.py PARENT_DIR CHANGE_DIR

Each checkout answers in a fresh interpreter of its own, through its own
``perfbench/workloads.py`` (``execute``) and ``src/pldbounds``.  The ops
are every workload's reference ops (so every ``bracket-audit`` case, with
its failure message where it fails), their tiny variants, and the first
``SEEDED_OPS`` timed ops of seeds 1 and 2.  An answer is compared as its
JSON text, so floats must agree bit for bit; a failure's traceback, which
names the checkout's paths, is left out.  BLAS and OpenMP pools run one
thread, as in ``perfbench/run.py``.

Prints each op whose answer differs, or that only one checkout has, and
exits 1 if there is any; otherwise prints the number of ops compared and
exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: Timed ops taken from the start of each seeded run.
SEEDED_OPS = 4

SEEDS = (1, 2)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
