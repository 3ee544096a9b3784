"""Set-up probe: a fresh interpreter imports the library and builds a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints one line starting with "ready" once the inputs exist; ``run.py``
times a fresh interpreter from launch to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports the library)

if __name__ == "__main__":
    ops = workloads.timed_ops(sys.argv[1], int(sys.argv[2]))
    print("ready", len(ops), flush=True)
