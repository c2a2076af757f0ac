"""In-process tracing of the fdeval layers, from outside the program.

`Tracer.install` replaces each traced function at the names its callers use
(for example `fdeval.protocol.compute_csf` and `fdeval.cli.compute_csf`) with
a wrapper that records a span: name, start, end, parent span and command id.
Spans stay in memory; `layer_metrics` turns one pass of spans into the
per-layer metrics. Nothing under `src/` is edited.

Run as a script, this module is the traced child of `run.py`: it calls
`fdeval.cli.main(argv)` for every command of a workload, alternating untraced
and traced passes for the given number of seconds, and writes the medians to
a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into the span list, -1 for a root span
    command: int       # index of the CLI command the span belongs to
    tag: str = ""      # e.g. the CSF id of a compute_csf call


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for ch in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# (module or class, attribute, span name). One function may sit under several
# names; each name that the commands of the workloads call it by is wrapped.
# Spans that feed no metric (accuracy, the report builders, ...) are kept so
# that their time is not counted as self time of run_study or of the cli.
TARGETS = [
    ("fdeval.cli", "load_bundle", "core.load_bundle"),
    ("fdeval.cli", "failure_labels", "core.failure_labels"),
    ("fdeval.protocol", "failure_labels", "core.failure_labels"),
    ("fdeval.core:PredictionBundle", "select", "core.select"),
    ("fdeval.cli", "compute_csf", "scores.compute_csf"),
    ("fdeval.protocol", "compute_csf", "scores.compute_csf"),
    ("fdeval.scores", "softmax", "scores.softmax"),
    ("fdeval.protocol", "softmax", "scores.softmax"),
    ("fdeval.precision_audit", "softmax", "scores.softmax"),
    ("fdeval.scores", "fit_mahalanobis", "scores.fit_mahalanobis"),
    ("fdeval.scores", "score_mahalanobis", "scores.score_mahalanobis"),
    ("fdeval.metrics", "rc_curve", "metrics.rc_curve"),
    ("fdeval.cli", "rc_curve", "metrics.rc_curve"),
    ("fdeval.precision_audit", "rc_curve", "metrics.rc_curve"),
    ("fdeval.metrics", "aurc", "metrics.aurc"),
    ("fdeval.precision_audit", "aurc", "metrics.aurc"),
    ("fdeval.metrics", "e_aurc", "metrics.e_aurc"),
    ("fdeval.metrics", "auroc_f", "metrics.auroc"),
    ("fdeval.precision_audit", "auroc_f", "metrics.auroc"),
    ("fdeval.metrics", "auroc_out", "metrics.auroc"),
    ("fdeval.metrics", "ap_f", "metrics.ap_f"),
    ("fdeval.metrics", "accuracy", "metrics.accuracy"),
    ("fdeval.metrics", "nll", "metrics.nll"),
    ("fdeval.metrics", "brier", "metrics.brier"),
    ("fdeval.cli", "run_study", "protocol.run_study"),
    ("fdeval.cli", "rank_table", "protocol.rank_table"),
    ("fdeval.protocol", "platt_fit", "risk_control.platt_fit"),
    ("fdeval.protocol", "platt_apply", "risk_control.platt_apply"),
    ("fdeval.protocol", "ece", "risk_control.ece"),
    ("fdeval.cli", "sgr_select", "risk_control.sgr_select"),
    ("fdeval.cli", "audit", "precision_audit.audit"),
    ("fdeval.cli", "render_rc_svg", "reporting.render_rc_svg"),
    ("fdeval.cli", "write_json", "reporting.write_json"),
    ("fdeval.cli", "report_json_obj", "reporting.report_json_obj"),
    ("fdeval.cli", "report_csv_text", "reporting.report_csv_text"),
]


def _csf_tag(args, kwargs) -> str:
    csf = kwargs.get("csf_id", args[1] if len(args) > 1 else "")
    return str(csf)


class Tracer:
    """Spans and call counts of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], {}, []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, tag_of=None, on_result=None):
        """Wrap fn so every call records one span under name."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            tag = tag_of(args, kwargs) if tag_of else ""
            rec = Span(name, self.clock(), 0.0, parent, self.command, tag)
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = self.clock()
                self._stack.pop()
            self.count(name + ".calls")
            if on_result:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        hooks = {
            "scores.compute_csf": (_csf_tag, None),
            "metrics.rc_curve": (None, lambda t, curve: t.count("metrics.curve_points", len(curve.coverages))),
            "risk_control.platt_fit": (None, lambda t, model: t.count("risk_control.platt_iters", model.n_iter)),
        }
        for owner_path, attr, name in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            tag_of, on_result = hooks.get(name, (None, None))
            setattr(owner, attr, self.span(name, original, tag_of, on_result))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Which end-to-end metric each per-layer metric should move, and on which
# workload. Names, units and directions are in BENCHMARK.json.
ROLES = {
    "core.load_bundle_s": "should move evaluate_s, peak_rss_mb on ranking-100k, calibration-100k",
    "core.load_peak_mb": "should move peak_rss_mb, evaluate_s on ranking-100k, calibration-100k",
    "core.bundle_mb": "workload property",
    "core.select_s": "should move evaluate_s on ranking-100k",
    "scores.compute_csf_s": "should move evaluate_s on ranking-100k",
    "scores.compute_csf_per_pair": "should move evaluate_s on ranking-100k",
    "scores.fit_mahalanobis_s": "should move evaluate_s on scores-wide",
    "scores.score_mahalanobis_s": "should move evaluate_s on scores-wide",
    "scores.mcd_s": "should move evaluate_s on scores-wide",
    "scores.softmax_s": "should move evaluate_s on scores-wide, calibration-100k",
    "scores.softmax_calls": "should move evaluate_s on scores-wide, calibration-100k",
    "metrics.rc_curve_s": "should move evaluate_s on ranking-100k",
    "metrics.rc_curve_per_pair": "should move evaluate_s on ranking-100k",
    "metrics.curve_points": "should move evaluate_s on ranking-100k",
    "metrics.e_aurc_s": "should move evaluate_s on ranking-100k",
    "metrics.auroc_s": "should move evaluate_s on ranking-100k",
    "metrics.ap_f_s": "should move evaluate_s on ranking-100k",
    "protocol.run_study_s": "should move evaluate_s on ranking-100k, calibration-100k",
    "protocol.run_study_self_s": "should move evaluate_s on ranking-100k, calibration-100k",
    "protocol.rank_table_s": "should move evaluate_s on ranking-100k, calibration-100k",
    "risk_control.platt_fit_s": "should move evaluate_s on calibration-100k",
    "risk_control.platt_iters": "should move evaluate_s on calibration-100k",
    "risk_control.ece_s": "should move evaluate_s on calibration-100k",
    "risk_control.sgr_select_s": "should move wall_s on calibration-100k",
    "precision_audit.audit_s": "should move wall_s on scores-wide",
    "reporting.render_rc_svg_s": "should move evaluate_s on ranking-100k",
    "reporting.write_json_s": "should move evaluate_s on ranking-100k",
    "reporting.artifact_mb": "must stay unchanged",
    "cli.import_s": "should move wall_s on calibration-100k",
    "cli.self_s": "should move wall_s on calibration-100k",
    "trace.overhead_frac": "cost of tracing; moves no end-to-end metric",
}

# spans whose summed duration is reported as the metric <span name>_s
TIMED_SPANS = [
    "core.load_bundle", "core.select",
    "scores.compute_csf", "scores.fit_mahalanobis", "scores.score_mahalanobis", "scores.softmax",
    "metrics.rc_curve", "metrics.e_aurc", "metrics.auroc", "metrics.ap_f",
    "protocol.run_study", "protocol.rank_table",
    "risk_control.platt_fit", "risk_control.ece", "risk_control.sgr_select",
    "precision_audit.audit",
    "reporting.render_rc_svg", "reporting.write_json",
]


def layer_metrics(spans: list[Span], counts: dict[str, float], evaluate_cmd: int, pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times summed over all commands).

    The per-pair ratios count only calls made by the `evaluate` command,
    divided by its (study, CSF) pairs.
    """
    selfs = self_times(spans)
    out = {}
    for name in TIMED_SPANS:
        out[name + "_s"] = sum(s.end - s.start for s in spans if s.name == name)
    out["scores.mcd_s"] = sum(s.end - s.start for s in spans
                              if s.name == "scores.compute_csf" and s.tag.startswith("mcd-"))
    out["scores.softmax_calls"] = counts.get("scores.softmax.calls", 0)
    out["metrics.curve_points"] = counts.get("metrics.curve_points", 0)
    out["risk_control.platt_iters"] = counts.get("risk_control.platt_iters", 0)
    out["protocol.run_study_self_s"] = sum(t for s, t in zip(spans, selfs) if s.name == "protocol.run_study")
    out["cli.self_s"] = sum(t for s, t in zip(spans, selfs) if s.name == "cli.main")
    for metric, name in (("scores.compute_csf_per_pair", "scores.compute_csf"),
                         ("metrics.rc_curve_per_pair", "metrics.rc_curve")):
        calls = sum(1 for s in spans if s.name == name and s.command == evaluate_cmd)
        out[metric] = calls / pairs
    return out


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in out_dir, by file name; empty when it is missing."""
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def run_pass(main, commands, out_dir: Path, tracer: Tracer | None) -> dict:
    """Run every command once in-process, into a fresh out_dir."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    rec = {"exits": [], "stdout": [], "walls": []}
    for i, argv in enumerate(commands):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = main(argv)
            else:
                tracer.command = i
                code = tracer.span("cli.main", main)(argv)
        rec["walls"].append(time.perf_counter() - t0)
        rec["exits"].append(code)
        rec["stdout"].append(buf.getvalue())
    rec["hashes"] = artifact_hashes(out_dir)
    return rec


def main_child(argv=None) -> int:
    ap = argparse.ArgumentParser(description="traced in-process run of one workload")
    ap.add_argument("--spec", required=True, help="JSON file: commands, out dir, bundle dir, evaluate index, pairs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    out_dir = Path(spec["out"])

    import fdeval.cli
    from fdeval import load_bundle

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    load_bundle(spec["bundle"])
    load_peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / MB

    main = fdeval.cli.main
    tracer = Tracer()
    t0 = time.perf_counter()
    run_pass(main, spec["commands"], out_dir, None)          # warm-up, not reported
    passes, plain, traced = [], [], []
    while True:   # untraced/traced pairs until the next pair would end after --seconds
        t_pair = time.perf_counter()
        rec = run_pass(main, spec["commands"], out_dir, None)
        plain.append(sum(rec["walls"]))
        passes.append(rec)
        tracer.reset()
        tracer.install()
        try:
            rec = run_pass(main, spec["commands"], out_dir, tracer)
        finally:
            tracer.uninstall()
        passes.append(rec)
        traced.append(layer_metrics(tracer.spans, tracer.counts, spec["evaluate_index"], spec["pairs"]))
        traced[-1]["_wall"] = sum(rec["walls"])
        now = time.perf_counter()
        if now - t0 + (now - t_pair) > args.seconds:
            break
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    wall_traced = metrics.pop("_wall")
    wall_plain = statistics.median(plain)
    metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    metrics["core.load_peak_mb"] = load_peak_mb
    Path(args.result).write_text(json.dumps({"metrics": metrics, "passes": passes, "traced_passes": len(traced)}))
    return 0


if __name__ == "__main__":
    sys.exit(main_child())
