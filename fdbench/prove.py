"""Run the benchmark over several seeds and report each metric's spread.

    python3 fdbench/prove.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--trace 0|1] [--out FILE]

Runs `fdbench/run.py` once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json. For every end-to-end metric it prints the
median and the quartile spread (Q3 - Q1) / median, as
`statistics.quantiles(values, n=4)` gives the quartiles, next to the metric's
bound. With --out it writes the medians and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(bench["command"], workload, seed, bench["run_seconds"], args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        rows = {"correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                "run_elapsed_s": [r["elapsed_s"] for r in runs]}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[m["name"]] = {"median": med, "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}
            bound = m.get("bound")
            flag = "" if bound is None else f" bound {bound:.2f}" + (" OVER" if rows[m["name"]]["spread"] > bound else "")
            print(f"{workload:18s} {m['name']:28s} median {med:12.6g} {m['unit']:8s} "
                  f"spread {rows[m['name']]['spread']:.4f}{flag}", flush=True)
        print(f"{workload:18s} correct {rows['correct']} failed {rows['failed']}/{rows['attempted']}, "
              f"longest run {max(rows['run_elapsed_s']):.1f} s", flush=True)
        summary[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
