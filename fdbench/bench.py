"""Measurement, checks and reporting for one workload run; the entry point is run.py."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from checks import check_report, check_sgr, residuals, study_rows
from tracing import ROLES, artifact_hashes
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".fdbench"
SETUP_REPS = 9        # set-ups per run; setup_s is their median
IMPORT_PROBES = 3     # fresh-process `import fdeval.cli` timings; cli.import_s is their median
MB = 1024.0 * 1024.0


def metric_units(trace: int) -> dict[str, str]:
    """Unit of every metric a run reports, by name, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / MB


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path, launcher):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.out = work / "out"
        self.launcher = launcher
        self.problems: list[str] = []

    def spawn(self, argv, name: str) -> dict:
        """Run one process to its end through the launcher; its stdout/stderr land in work/name.*"""
        return self.launcher.run(argv, self.work / f"{name}.out", self.work / f"{name}.err")

    def argv(self, cmd) -> list[str]:
        return [*cmd.argv, "--config", str(self.work / "config.json"), "--out", str(self.out)]

    def setup(self) -> float:
        """Generate and write the inputs SETUP_REPS times, then warm up once, untimed.

        Returns the median seconds of one generate-and-write.
        """
        times, hashes = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.bundle, self.bundle_dir = write_inputs(self.w, self.seed, self.work)
            times.append(time.perf_counter() - t0)
            hashes.append(artifact_hashes(self.bundle_dir))
        if any(h != hashes[0] for h in hashes):
            self.problems.append("generator wrote different bundle bytes for one seed")
        self.config = json.loads((self.work / "config.json").read_text())
        self.warm_up()
        return statistics.median(times)

    def warm_up(self) -> None:
        """Fill the .pyc and page caches: one fresh-process import, one read of the bundle."""
        if self.spawn([sys.executable, "-c", "import fdeval.cli"], "warm")["exit"] != 0:
            raise RuntimeError(f"import fdeval.cli failed: {(self.work / 'warm.err').read_text()[-2000:]}")
        for p in sorted(self.bundle_dir.iterdir()):
            p.read_bytes()

    def spawn_pass(self) -> dict:
        """One pass of the command sequence, one fresh process per command."""
        if self.out.exists():
            shutil.rmtree(self.out)
        rec = {"exits": [], "stdout": [], "walls": [], "rss": []}
        for i, cmd in enumerate(self.w.commands):
            argv = [sys.executable, "-m", "fdeval.cli", *self.argv(cmd)]
            res = self.spawn(argv, f"cmd{i}")
            rec["exits"].append(res["exit"])
            rec["walls"].append(res["wall"])
            rec["rss"].append(res["rss_mb"])
            rec["stdout"].append((self.work / f"cmd{i}.out").read_text())
            if res["exit"] != 0:
                print(f"command {' '.join(cmd.argv)} exited {res['exit']}: "
                      f"{(self.work / f'cmd{i}.err').read_text()[-500:]}", file=sys.stderr)
        rec["hashes"] = artifact_hashes(self.out)
        return rec

    def measure(self) -> list[dict]:
        """Passes until the next one would end after self.seconds (at least one)."""
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.spawn_pass())
            if time.perf_counter() - t0 + sum(passes[-1]["walls"]) > self.seconds:
                return passes

    def traced(self) -> tuple[list[dict], dict]:
        spec = {
            "commands": [self.argv(cmd) for cmd in self.w.commands],
            "out": str(self.out),
            "bundle": str(self.bundle_dir),
            "evaluate_index": self.evaluate_index(),
            "pairs": len(self.config["studies"]) * len(self.config["csfs"]),
        }
        spec_path, result_path = self.work / "trace_spec.json", self.work / "trace_result.json"
        spec_path.write_text(json.dumps(spec))
        argv = [sys.executable, str(Path(__file__).with_name("tracing.py")), "--spec", str(spec_path),
                "--seconds", str(self.seconds), "--result", str(result_path)]
        code = self.spawn(argv, "trace")["exit"]
        if code != 0:
            raise RuntimeError(f"traced run exited {code}: {(self.work / 'trace.err').read_text()[-2000:]}")
        result = json.loads(result_path.read_text())
        metrics = result["metrics"]
        probes = [self.spawn([sys.executable, "-c", "import fdeval.cli"], "probe")["wall"]
                  for _ in range(IMPORT_PROBES)]
        metrics["cli.import_s"] = statistics.median(probes)
        return result["passes"], metrics

    def evaluate_index(self) -> int:
        return next(i for i, cmd in enumerate(self.w.commands) if cmd.argv[0] == "evaluate")

    def content_problems(self, last: dict) -> tuple[dict[int, list[str]], dict]:
        """Check the artifacts and stdout of the last pass; problems by command index."""
        found, tie_stats = {}, {}
        for i, cmd in enumerate(self.w.commands):
            missing = [a for a in cmd.artifacts if a not in last["hashes"]]
            if missing:
                found[i] = [f"{cmd.argv[0]}: missing {missing}"]
                continue
            try:
                if cmd.argv[0] == "evaluate":
                    found[i], tie_stats = check_report(json.loads((self.out / "report.json").read_text()),
                                                       self.bundle, self.config)
                elif cmd.argv[0] == "sgr":
                    found[i] = check_sgr(json.loads((self.out / "sgr.json").read_text()), self.bundle)
            except (ValueError, KeyError, TypeError) as exc:   # malformed output
                found[i] = [f"{cmd.argv[0]}: unreadable output: {exc!r}"]
        return found, tie_stats

    def judge(self, passes: list[dict], content: dict[int, list[str]]) -> tuple[int, int]:
        """(attempted, failed) commands. A command fails on a non-zero exit, a
        missing artifact, a failed content check, or an artifact or stdout that
        differs from the first pass."""
        ref = passes[0]
        attempted = failed = 0
        for rec in passes:
            for i, cmd in enumerate(self.w.commands):
                attempted += 1
                bad = (
                    rec["exits"][i] != 0
                    or bool(content.get(i))
                    or rec["stdout"][i] != ref["stdout"][i]
                    or any(a not in rec["hashes"] or rec["hashes"][a] != ref["hashes"].get(a)
                           for a in cmd.artifacts)
                )
                failed += bad
        return attempted, failed

    def properties(self, tie_stats: dict) -> dict:
        b = self.bundle
        inlier = b.labels < b.n_classes
        return {
            "n": b.n_samples,
            "c": b.n_classes,
            "t": 0 if b.mcd_logits is None else b.mcd_logits.shape[1],
            "d": 0 if b.features is None else b.features.shape[1],
            "k": int(len(set(b.labels[inlier].tolist()))),
            "bundle_mb": dir_mb(self.bundle_dir),
            "failure_rate": float(residuals(b, "standard")[0].mean()),
            "newclass_share": float(1.0 - inlier.mean()),
            "ties": tie_stats,
        }

    def row_pairs(self) -> int:
        rows = sum(int(study_rows(self.bundle, s).sum()) for s in self.config["studies"])
        return rows * len(self.config["csfs"])


def machine(seed: int, threads: int) -> dict:
    return {
        "nproc": threads,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def pass_summary(values: list[float]) -> str:
    return f"median of {len(values)} passes, min {min(values):.4g}, max {max(values):.4g}"


def main(launcher, argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    bench = Bench(w, args.seed, args.seconds, work, launcher)
    try:
        setup_s = bench.setup()
        units = metric_units(args.trace)
        if args.trace:
            passes, metrics = bench.traced()
        else:
            passes = bench.measure()
        content, tie_stats = bench.content_problems(passes[-1])
        attempted, failed = bench.judge(passes, content)
        props = bench.properties(tie_stats)
        if args.trace:
            metrics["core.bundle_mb"] = props["bundle_mb"]
            metrics["reporting.artifact_mb"] = dir_mb(bench.out)
        else:
            walls = [sum(p["walls"]) for p in passes]
            evals = [p["walls"][bench.evaluate_index()] for p in passes]
            rss = [max(p["rss"]) for p in passes]
            metrics = {
                "wall_s": statistics.median(walls),
                "evaluate_s": statistics.median(evals),
                "rows_per_s": bench.row_pairs() / statistics.median(evals),
                "peak_rss_mb": statistics.median(rss),
                "setup_s": setup_s,
            }
            print(f"wall_s: {pass_summary(walls)}; evaluate_s: {pass_summary(evals)}; "
                  f"peak_rss_mb: {pass_summary(rss)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            WORK_ROOT.rmdir()

    for i, problems in sorted(content.items()):
        for p in problems:
            print(f"check failed ({w.commands[i].argv[0]}): {p}")
    for p in bench.problems:
        print(f"check failed (setup): {p}")
    print("machine " + json.dumps(machine(args.seed, launcher.threads), sort_keys=True))
    print("workload " + json.dumps({"name": w.name, **props}, sort_keys=True))
    for name in sorted(metrics):
        role = f"  ({ROLES[name]})" if name in ROLES else ""
        print(f"{name} = {metrics[name]:.6g} {units[name]}{role}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g} fraction")
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


