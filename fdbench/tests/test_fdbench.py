"""Tests of the benchmark's own code: generator, span arithmetic, output checks.

    python3 -m pytest fdbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import fdeval.cli
from bench import Bench, metric_units
from checks import agrees, count_auroc, reference_scores
from fdeval import compute_csf
from fdeval.oracle import auroc_oracle
from tracing import ROLES, Span, Tracer, layer_metrics, run_pass, self_times
from workloads import ALL_CSFS, NEWCLASS_SHARE, WORKLOADS, Command, Shape, Workload, generate, write_inputs

ROOT = Path(__file__).resolve().parents[2]

SMALL = Workload(
    name="small",
    why="test",
    shape=Shape(n=2000, c=5, t=2, d=3, tied_external=True),
    config={
        "csfs": ["msr", "pe", "ext:tied"],
        "studies": [
            {"name": "standard", "metrics": ["aurc", "e-aurc", "auroc-f", "accuracy", "nll", "brier"]},
            {"name": "newclass", "kind": "newclass", "shift_filter": ["IID", "NEWCLASS_SEMANTIC"],
             "metrics": ["aurc", "auroc-f", "accuracy"]},
        ],
    },
    commands=(
        Command(("evaluate", "--emit", "json,csv"), ("report.json", "report.csv")),
        Command(("sgr", "--csf", "msr"), ("sgr.json",)),
    ),
)


def test_generator_writes_identical_bytes_for_one_seed(tmp_path):
    dirs = [write_inputs(SMALL, seed, tmp_path / name)[1]
            for name, seed in (("a", 7), ("b", 7), ("c", 8))]
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "logits.f64" in names and "external_tied.f64" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (dirs[0] / "logits.f64").read_bytes() != (dirs[2] / "logits.f64").read_bytes()


def test_generator_gives_every_class_two_inlier_rows():
    b = generate(Shape(n=850, c=400, d=2), seed=3)
    counts = np.bincount(b.labels[b.labels < 400], minlength=400)
    assert counts.min() >= 2
    assert np.mean(b.shift_tags == "NEWCLASS_SEMANTIC") == pytest.approx(NEWCLASS_SHARE, abs=1e-3)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, 0), Span("x", 2.0, 6.0, 0, 0), Span("y", 4.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_links_parents_and_counts_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    tracer.command = 3
    assert outer(1) == 4
    assert [(s.name, s.parent, s.command) for s in tracer.spans] == [("outer", -1, 3), ("inner", 0, 3)]
    assert self_times(tracer.spans) == pytest.approx([2.0, 1.0])
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1}


def test_install_and_uninstall_restore_the_program():
    before = fdeval.protocol.compute_csf
    tracer = Tracer()
    tracer.install()
    try:
        assert fdeval.protocol.compute_csf is not before
    finally:
        tracer.uninstall()
    assert fdeval.protocol.compute_csf is before


@pytest.fixture
def small_run(tmp_path):
    """A Bench on the small workload, with one clean in-process pass."""
    bench = Bench(SMALL, 5, 1.0, tmp_path, launcher=None)
    bench.bundle, bench.bundle_dir = write_inputs(SMALL, 5, tmp_path)
    bench.config = json.loads((tmp_path / "config.json").read_text())
    commands = [bench.argv(cmd) for cmd in SMALL.commands]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(fdeval.cli.main, commands, bench.out, tracer)
    finally:
        tracer.uninstall()
    plain = run_pass(fdeval.cli.main, commands, bench.out, None)
    bench.tracer = tracer
    return bench, [traced, plain]


def test_clean_run_has_no_failures(small_run):
    bench, passes = small_run
    content, ties = bench.content_problems(passes[-1])
    assert not any(content.values()), content
    assert bench.judge(passes, content) == (4, 0)
    assert ties["ext:tied"]["distinct"] <= 101 and ties["ext:tied"]["tie_mass"] == 1.0


def test_traced_pass_gives_every_per_layer_metric(small_run):
    bench, _ = small_run
    metrics = layer_metrics(bench.tracer.spans, bench.tracer.counts, evaluate_cmd=0, pairs=6)
    # measured outside the traced pass, by the child or by bench.py
    elsewhere = {"cli.import_s", "core.load_peak_mb", "core.bundle_mb", "reporting.artifact_mb", "trace.overhead_frac"}
    assert set(metrics) | elsewhere == set(metric_units(trace=1))
    assert metrics["scores.compute_csf_per_pair"] == 1.0   # no svg: one score per (study, CSF)
    assert metrics["metrics.rc_curve_per_pair"] == 1.0
    assert metrics["protocol.run_study_s"] > metrics["protocol.run_study_self_s"] > 0
    assert metrics["cli.self_s"] > 0


def test_wrong_exit_code_counts_as_failed(small_run):
    bench, passes = small_run
    passes[1]["exits"][1] = 1
    content, _ = bench.content_problems(passes[-1])
    assert bench.judge(passes, content) == (4, 1)


@pytest.mark.parametrize("metric", ["aurc_raw", "auroc-f", "accuracy", "nll", "brier"])
def test_tampered_report_value_counts_as_failed(small_run, metric):
    bench, passes = small_run
    path = bench.out / "report.json"
    report = json.loads(path.read_text())
    row = report["studies"]["standard"]["csfs"]["pe"]
    row[metric] = float(format(row[metric] * (1 + 1e-9), ".12g"))
    path.write_text(json.dumps(report))
    content, _ = bench.content_problems(passes[-1])
    assert len(content[0]) == 1 and metric in content[0][0]
    assert bench.judge(passes, content) == (4, 2)   # the evaluate command of both passes


def test_tampered_sgr_coverage_counts_as_failed(small_run):
    bench, passes = small_run
    path = bench.out / "sgr.json"
    sgr = json.loads(path.read_text())
    sgr["empirical_coverage"] += 1.0 / bench.bundle.n_samples
    path.write_text(json.dumps(sgr))
    content, _ = bench.content_problems(passes[-1])
    assert content[1] and not content[0]


def test_artifact_that_changes_between_passes_counts_as_failed(small_run):
    bench, passes = small_run
    passes[1]["hashes"]["sgr.json"] = "0" * 64
    assert bench.judge(passes, {}) == (4, 1)


def test_reference_scores_match_the_program():
    b = generate(Shape(n=600, c=20, t=3, d=8, tied_external=True), seed=11)
    for csf in [*ALL_CSFS, "ext:tied"]:
        np.testing.assert_allclose(compute_csf(b, csf).scores, reference_scores(b, csf), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("csf", ["pe", "msr"])
def test_tampered_score_counts_as_failed(small_run, monkeypatch, csf):
    bench, passes = small_run

    def tampered(bundle, csf_id, *args, **kwargs):
        vec = compute_csf(bundle, csf_id, *args, **kwargs)
        if csf_id == csf:
            vec.scores[0] *= 1 + 1e-6
        return vec

    monkeypatch.setattr(checks, "compute_csf", tampered)
    content, _ = bench.content_problems(passes[-1])
    assert any(f"{csf}: compute_csf differs from the reference" in p for p in content[0])
    assert bool(content.get(1)) == (csf == "msr")   # sgr runs on msr
    assert bench.judge(passes, content)[1] > 0


def test_count_auroc_matches_pairwise_oracle_on_ties():
    rng = np.random.default_rng(0)
    conf = np.round(rng.random(500), 1)
    positive = rng.random(500) < 0.6
    assert count_auroc(conf, positive) == pytest.approx(auroc_oracle(conf, positive), abs=1e-15)


def test_agrees_allows_one_unit_in_the_twelfth_digit():
    assert agrees(float(format(0.123456789012345, ".12g")), 0.123456789012345)
    assert not agrees(0.123456789014, 0.123456789012345)
    assert agrees(0.0, 0.0)


def test_benchmark_json_names_the_workloads_and_roles_of_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(ROLES) == set(metric_units(trace=1))
