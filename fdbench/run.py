"""Benchmark of the fdeval CLI, one workload per run.

    python3 fdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates the workload's bundle from
the seed, then measures for S seconds:

* --trace 0: passes of the workload's command sequence, each command a fresh
  `python -m fdeval.cli` process, one at a time (a closed loop with one
  client). Reports the end-to-end metrics as medians over the passes.
* --trace 1: the same commands in one traced child process that calls
  `fdeval.cli.main` in-process (see tracing.py). Reports the per-layer metrics.

Outputs are checked after the timed region (see checks.py). The last stdout
line is one JSON object: correct, attempted, failed and metrics.

Workloads and metrics are listed in BENCHMARK.json at the repository root;
which end-to-end metric each per-layer metric should move is ROLES in
tracing.py. `python3 fdbench/prove.py` runs ten seeds per workload and prints
each metric's quartile spread; `python3 -m pytest fdbench/tests` tests the
benchmark's own code.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "fdeval" / "__init__.py").is_file():
        print(f"fdbench: no fdeval package under {SRC}; run from the root of a repository checkout", file=sys.stderr)
        sys.exit(2)
    from launch import Launcher

    # started before numpy is imported, so the commands it spawns start from a small peak RSS
    launcher = Launcher(str(SRC), str(SRC.parent))
    try:
        sys.path.insert(0, str(SRC))
        from bench import main

        code = main(launcher)
    finally:
        launcher.close()
    sys.exit(code)
