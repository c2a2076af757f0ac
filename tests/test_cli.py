import json
import os
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import fdeval.cli
import fdeval.scores
from conftest import REPO, load_fdbench_module, simple_bundle
from fdeval import CSF_IDS, PredictionBundle, compute_csf, load_bundle, write_bundle
from fdeval.cli import main


def run(argv):
    return main([str(a) for a in argv])


def make_big_bundle(tmp_path, seed=1, n=120, binary=False):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, 3)) * 2
    labels = rng.integers(0, 3, n)
    # bias labels toward the argmax so most rows are correct
    flip = rng.random(n) < 0.7
    labels[flip] = np.argmax(logits[flip], axis=1)
    b = simple_bundle(logits, labels)
    return write_bundle(b, tmp_path / ("bundle_bin" if binary else "bundle"), binary=binary)


def test_evaluate_emits_deterministic_reports(toy_bundle_dir, tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run(["evaluate", "--bundle", toy_bundle_dir, "--out", out, "--emit", "json,csv,svg"]) == 0
        outs.append(out)
    for fname in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    msr = report["studies"]["standard"]["csfs"]["msr"]
    assert msr["aurc"] == pytest.approx(1000.0 * msr["aurc_raw"], rel=1e-9)
    csv_lines = (outs[0] / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "study,csf,metric,value,rank"
    assert len(csv_lines) > 1


def test_evaluate_svg_is_wellformed_xml(toy_bundle_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["evaluate", "--bundle", toy_bundle_dir, "--out", out, "--emit", "svg"]) == 0
    svgs = list(out.glob("rc_*.svg"))
    assert len(svgs) == 2  # default csfs msr + pe under one study
    for path in svgs:
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")


def test_binary_and_csv_bundles_give_identical_reports(tmp_path):
    csv_dir = make_big_bundle(tmp_path, binary=False)
    bin_dir = make_big_bundle(tmp_path, binary=True)
    assert run(["evaluate", "--bundle", csv_dir, "--out", tmp_path / "a"]) == 0
    assert run(["evaluate", "--bundle", bin_dir, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()


def test_score_matches_library(toy_bundle_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["score", "--bundle", toy_bundle_dir, "--out", out, "--csf", "ext:demo"]) == 0
    payload = json.loads((out / "scores_ext-demo.json").read_text())
    bundle = load_bundle(toy_bundle_dir)
    assert payload["csf"] == "ext:demo"
    assert payload["scores"] == compute_csf(bundle, "ext:demo").scores.tolist()
    assert payload["n"] == 4


def test_score_respects_precision_flag(toy_bundle_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["score", "--bundle", toy_bundle_dir, "--out", out, "--csf", "msr", "--precision", "f16"]) == 0
    payload = json.loads((out / "scores_msr.json").read_text())
    assert payload["precision"] == "f16"
    bundle = load_bundle(toy_bundle_dir)
    from fdeval import SoftmaxConfig

    want = compute_csf(bundle, "msr", SoftmaxConfig(precision="f16")).scores.tolist()
    assert payload["scores"] == want


def test_rc_curve_outputs(toy_bundle_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["rc-curve", "--bundle", toy_bundle_dir, "--out", out, "--csf", "msr"]) == 0
    lines = (out / "rc_curve.csv").read_text().splitlines()
    assert lines[0] == "coverage,risk"
    payload = json.loads((out / "rc_curve.json").read_text())
    assert payload["coverages"][0] == 1.0
    assert payload["aurc"] == pytest.approx(1000.0 * payload["aurc_raw"], rel=1e-9)


def test_sgr_command(tmp_path):
    bundle_dir = make_big_bundle(tmp_path)
    out = tmp_path / "o"
    assert run(["sgr", "--bundle", bundle_dir, "--out", out, "--rstar", "0.5", "--delta", "0.2"]) == 0
    payload = json.loads((out / "sgr.json").read_text())
    assert payload["csf"] == "msr"
    assert payload["risk_bound"] <= 0.5
    assert 0 < payload["empirical_coverage"] <= 1
    # a target nobody can meet exits with the library error code
    hopeless = run(["sgr", "--bundle", bundle_dir, "--out", tmp_path / "x", "--rstar", "0.001", "--delta", "0.001"])
    assert hopeless == 1


def test_calibrate_command(toy_bundle_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["calibrate", "--bundle", toy_bundle_dir, "--out", out, "--bins", "5"]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert set(payload) == {"csf", "a", "b", "n_iter", "bins", "smoothing", "ece"}
    assert payload["bins"] == 5
    assert payload["smoothing"] is False
    assert 0.0 <= payload["ece"] <= 1.0


# each command's arguments and the files it writes, in the order of its "wrote" lines; verify writes none
WRITTEN = {
    "score": (["score", "--csf", "msr"], ["scores_msr.json"]),
    "evaluate": (["evaluate", "--emit", "json,csv,svg"],
                 ["report.json", "report.csv", "rc_standard_msr.svg", "rc_standard_pe.svg"]),
    "rc-curve": (["rc-curve"], ["rc_curve.csv", "rc_curve.json"]),
    "sgr": (["sgr", "--rstar", "0.5", "--delta", "0.2"], ["sgr.json"]),
    "calibrate": (["calibrate"], ["calibration.json"]),
    "precision-audit": (["precision-audit"], ["precision_audit.json", "precision_audit.csv"]),
    "verify": (["verify"], []),
}


@pytest.mark.parametrize("command", sorted(WRITTEN))
def test_wrote_lines_name_the_files_written(command, toy_bundle_dir, tmp_path, capsys):
    argv, names = WRITTEN[command]
    bundle_dir = make_big_bundle(tmp_path) if command == "sgr" else toy_bundle_dir  # sgr needs 10 rows
    out = tmp_path / "o"
    assert run(argv + ["--bundle", bundle_dir, "--out", out]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / name}" for name in names]
    assert sorted(p.name for p in out.rglob("*")) == sorted(names)


@pytest.mark.parametrize("precision", ["f16", "f32", "f64"])
def test_verify_reports_zero_deviation(precision, toy_bundle_dir, tmp_path, capsys):
    assert run(["verify", "--bundle", toy_bundle_dir, "--precision", precision]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "csfs=msr,pe,mls"
    assert lines[1] == "aurc_max_dev=0.0e0"
    assert lines[2] == "auroc_max_dev=0.0e0"


def test_verify_sorts_once_per_csf(toy_bundle_dir, monkeypatch, capsys):
    # verify reads both metrics off the sweep run_study makes, as evaluate does
    sorts, studies = [], []
    real_argsort, real_run_study = np.argsort, fdeval.cli.run_study
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or real_argsort(*args, **kwargs))
    monkeypatch.setattr(fdeval.cli, "run_study", lambda *args, **kwargs: studies.append(1) or real_run_study(*args, **kwargs))
    assert run(["verify", "--bundle", toy_bundle_dir, "--csf", "msr", "--csf", "pe", "--csf", "mls"]) == 0
    assert len(sorts) == 3
    assert len(studies) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["aurc_max_dev=0.0e0", "auroc_max_dev=0.0e0"]


def test_precision_audit_synthetic_honors_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FDSHIFT_SEED", "7")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["precision-audit", "--synthetic", "--n", "400", "--c", "5", "--out"]
    assert run(args + [out1]) == 0
    assert run(args + [out2]) == 0
    payload = json.loads((out1 / "precision_audit.json").read_text())
    assert payload["seed"] == 7
    assert payload["round_to_one_rate"]["f64"] == 0.0
    assert (out1 / "precision_audit.json").read_bytes() == (out2 / "precision_audit.json").read_bytes()
    assert (out1 / "precision_audit.csv").read_text().splitlines()[0] == (
        "precision,round_to_one_rate,aurc,auroc_f,accuracy"
    )

    monkeypatch.setenv("FDSHIFT_SEED", "8")
    out3 = tmp_path / "c"
    assert run(args + [out3]) == 0
    assert (out1 / "precision_audit.json").read_bytes() != (out3 / "precision_audit.json").read_bytes()

    monkeypatch.setenv("FDSHIFT_SEED", "not-a-seed")
    assert run(args + [tmp_path / "d"]) == 2


def test_precision_audit_refuses_a_negative_env_seed(tmp_path, monkeypatch, capsys):
    # numpy's generator takes no negative seed, and its ValueError once ended the run in a traceback
    monkeypatch.setenv("FDSHIFT_SEED", "-1")
    assert run(["precision-audit", "--synthetic", "--n", "50", "--out", tmp_path]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not tmp_path.joinpath("precision_audit.json").exists()


def test_config_file_flow(toy_bundle_dir, tmp_path):
    cfg = {
        "bundle": str(toy_bundle_dir),
        "csfs": ["msr", "ext:demo"],
        "studies": [
            {"name": "everything", "metrics": ["aurc", "accuracy"]},
        ],
        "emit": ["json"],
        "precision": "f16",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["evaluate", "--config", cfg_path, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["studies"]) == {"everything"}
    assert set(report["studies"]["everything"]["csfs"]) == {"msr", "ext:demo"}
    assert not (out / "report.csv").exists()  # emit limited to json

    # command-line flags beat config values
    out2 = tmp_path / "o2"
    assert run(["score", "--config", cfg_path, "--out", out2, "--csf", "msr", "--precision", "f64"]) == 0
    payload = json.loads((out2 / "scores_msr.json").read_text())
    assert payload["precision"] == "f64"


def test_config_errors_exit_2(toy_bundle_dir, tmp_path):
    assert run(["evaluate", "--config", tmp_path / "missing.json"]) == 2
    assert run(["evaluate", "--config", tmp_path]) == 2  # a directory, not a file
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": 1}')
    assert run(["evaluate", "--config", bad, "--bundle", toy_bundle_dir]) == 2
    bad.write_text('{"csfs": ["warp-drive"]}')
    assert run(["evaluate", "--config", bad, "--bundle", toy_bundle_dir]) == 2
    bad.write_text('{"emit": ["pdf"]}')
    assert run(["evaluate", "--config", bad, "--bundle", toy_bundle_dir]) == 2
    bad.write_text('{"studies": [{"name": "x", "kind": "newclass", "shift_filter": ["IID"]}]}')
    assert run(["evaluate", "--config", bad, "--bundle", toy_bundle_dir]) == 2
    assert run(["evaluate"]) == 2  # no bundle anywhere
    assert run([]) == 2  # no subcommand prints help


def test_library_errors_exit_1(tmp_path):
    assert run(["evaluate", "--bundle", tmp_path / "nope"]) == 1
    # corrupt bundle: meta promises more rows than the files hold
    d = tmp_path / "broken"
    d.mkdir()
    (d / "meta.json").write_text('{"n": 3, "c": 2}')
    (d / "logits.csv").write_text("1.0,0.0\n")
    (d / "labels.csv").write_text("0\n")
    (d / "shift.csv").write_text("IID\n")
    assert run(["evaluate", "--bundle", d]) == 1


def written(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


# one command per exit code: a run, a library error (no such external score) and a config error
@pytest.mark.parametrize("code, argv", [
    (0, ["evaluate", "--emit", "json,csv,svg"]),
    (1, ["score", "--csf", "ext:missing"]),
    (2, ["evaluate", "--temperature", "-1"]),
])
def test_module_entry_does_what_main_does(code, argv, toy_bundle_dir, tmp_path, capsys):
    # python -m fdeval.cli runs cli.run, which freezes the heap after main returns
    out = tmp_path / "out"
    argv = [*argv, "--bundle", str(toy_bundle_dir), "--out", str(out)]
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fdeval.cli", *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    artifacts = written(out)
    for name in artifacts:
        (out / name).unlink()
    assert main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (proc.stdout, proc.stderr)
    assert written(out) == artifacts and (code != 0) == (not artifacts)


def test_run_freezes_the_heap_once_main_has_returned(monkeypatch):
    calls = []
    monkeypatch.setattr(fdeval.cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(fdeval.cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exit_:
        fdeval.cli.run()
    assert exit_.value.code == 3 and calls == ["main", "freeze"]


def test_synthetic_audit_too_big_for_numpy_exits_2(tmp_path, capsys):
    # n x c f64 logits beyond numpy's largest array: refused before anything is allocated
    assert run(["precision-audit", "--synthetic", "--n", "100", "--c", str(10**18), "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n x c = 100 x 1000000000000000000") and len(err.splitlines()) == 1


class ArrayMemoryError(MemoryError):
    """Stands in for numpy's privately named subclass."""


@pytest.mark.parametrize("exc", [MemoryError(), ArrayMemoryError(
    "Unable to allocate 74.5 GiB for an array with shape (100, 100000000) and data type float64")])
def test_memory_error_exits_1_with_one_line(exc, toy_bundle_dir, tmp_path, monkeypatch, capsys):
    # raised in place of an allocation, so nothing large is ever asked for
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fdeval.cli, "audit", out_of_memory)
    assert run(["precision-audit", "--bundle", toy_bundle_dir, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError") and len(err.splitlines()) == 1


# the toy logits with the first one beyond the largest half, 65504
TOY_LOGITS_F16_OVERFLOW = "70000,0,-1\n0.5,1.5,0\n1,2,0\n0.2,0.1,0\n"

# the four toy labels in a .f64 file whose header says 2x2
LABELS_F64_2X2 = b"FDSB" + struct.pack("<III", 2, 2, 0) + np.array([0.0, 1.0, 0.0, 1.0], dtype="<f8").tobytes()

# where the damage goes, what is written there, the exit code it must give and,
# optionally, the command to run (default: evaluate)
BROKEN_INPUTS = {
    "ece-bins-not-a-number": ("config", {"ece_bins": "x"}, 2),
    "ece-bins-zero": ("config", {"ece_bins": 0}, 2),
    # JSON true is no number, though Python's bool is an int
    "ece-bins-a-bool": ("config", {"ece_bins": True}, 2),
    "temperature-a-bool": ("config", {"temperature": True}, 2),
    # a JSON integer beyond float range, which float() refuses with OverflowError
    "temperature-beyond-float-range": ("config", {"temperature": 10**400}, 2),
    "duplicate-study-names": ("config", {"studies": [{"name": "s"}, {"name": "s", "shift_filter": ["IID"]}]}, 2),
    "meta-without-n": ("meta", {"c": 3, "t": 2, "d": 2}, 1),
    "meta-non-integer-n": ("meta", {"n": "four", "c": 3}, 1),
    "meta-non-integer-t": ("meta", {"n": 4, "c": 3, "t": [2]}, 1),
    "f64-trailing-bytes": ("f64", None, 1),
    "csfs-not-a-list": ("config", {"csfs": 5}, 2),
    "emit-not-a-list": ("config", {"emit": 5}, 2),
    "studies-not-a-list": ("config", {"studies": 5}, 2),
    "shift-filter-not-a-list": ("config", {"studies": [{"name": "s", "shift_filter": 5}]}, 2),
    "metrics-not-a-list": ("config", {"studies": [{"name": "s", "metrics": 5}]}, 2),
    "meta-external-not-a-list": ("meta", {"n": 4, "c": 3, "t": 2, "d": 2, "external": 5}, 1),
    "shift-blank-interior-line": ("shift", None, 1),
    "study-file-names-collide": ("config", {"studies": [{"name": "a b"}, {"name": "a-b"}]}, 2),
    "svg-file-names-collide": ("config", {"csfs": ["msr", "ext:a b", "ext:a-b"], "emit": ["svg"]}, 2),
    "csf-listed-twice": ("config", {"csfs": ["msr", "msr"], "emit": ["svg"]}, 2),
    "study-unknown-key": ("config", {"studies": [{"name": "s", "metricz": ["aurc"]}]}, 2),
    "bundle-not-a-string": ("config", {"bundle": 5}, 2),
    "out-not-a-string": ("config", {"out": 5}, 2),
    "config-not-utf8": ("file", ("run.json", b'{"csfs": ["m\xffr"]}'), 2),
    "config-not-an-object": ("file", ("run.json", "[1]"), 2),
    # each file must hold exactly the shape meta.json promises, not the same number of values
    "labels-csv-2x2": ("file", ("bundle/labels.csv", "0,1\n0,1\n"), 1),
    "labels-csv-one-line": ("file", ("bundle/labels.csv", "0,1,0,1\n"), 1),
    "external-csv-2x2": ("file", ("bundle/external_demo.csv", "0.9,0.8\n0.3,0.4\n"), 1),
    "labels-f64-2x2": ("file", ("bundle/labels.f64", LABELS_F64_2X2), 1),
    "meta-float-n": ("meta", {"n": 4.7, "c": 3, "t": 2, "d": 2, "external": ["demo"]}, 1),
    "meta-string-n": ("meta", {"n": "4", "c": 3, "t": 2, "d": 2, "external": ["demo"]}, 1),
    "meta-negative-t": ("meta", {"n": 4, "c": 3, "t": -2, "d": 2, "external": ["demo"]}, 1),
    "meta-not-an-object": ("meta", [4, 3], 1),
    "meta-not-utf8": ("file", ("bundle/meta.json", b'{"n": 4, "c": 3, "external": ["d\xffmo"]}'), 1),
    "shift-not-utf8": ("file", ("bundle/shift.csv", b"IID\nI\xffD\nIID\nIID\n"), 1),
    "logits-csv-empty": ("file", ("bundle/logits.csv", ""), 1),
    "label-overflows-int64": ("file", ("bundle/labels.csv", "0\n1e300\n0\n1\n"), 1),
    "ece-bins-huge": ("config", {"ece_bins": 10**30, "studies": [{"name": "s", "metrics": ["ece"]}]}, 2),
    # --out names a regular file, so the output directory cannot be created
    "out-is-a-file": ("file", ("o", "not a directory\n"), 1),
    # a lone \r would split the study's report.csv rows in two
    "study-name-control-char": ("config", {"studies": [{"name": "a\rb"}]}, 2),
    "csf-name-control-char": ("config", {"csfs": ["msr", "ext:a\rb"]}, 2),
    # --csf is held to the rules of the config's csfs
    "config-csf-unknown": ("config", {"csfs": ["bogus"]}, 2),
    "score-csf-unknown": ("argv", ["score", "--csf", "bogus"], 2),
    "rc-curve-csf-unknown": ("argv", ["rc-curve", "--csf", "bogus"], 2),
    "calibrate-csf-unknown": ("argv", ["calibrate", "--csf", "bogus"], 2),
    "verify-csf-unknown": ("argv", ["verify", "--csf", "bogus"], 2),
    "sgr-csf-empty-external": ("argv", ["sgr", "--csf", "ext:"], 2),
    "verify-csf-listed-twice": ("argv", ["verify", "--csf", "msr", "--csf", "msr"], 2),
    # f16 stores these gaps as inf, and inf - inf leaves a NaN msr that must not be ranked
    "precision-audit-nan-msr": ("argv", ["precision-audit", "--synthetic", "--n", "200",
                                         "--gap-low", "60000", "--gap-high", "70000"], 1),
    # the cast to half overflows, and numpy must not warn before the NaN row is reported
    "score-f16-logit-overflow": ("file", ("bundle/logits.csv", TOY_LOGITS_F16_OVERFLOW), 1,
                                 ["score", "--csf", "msr", "--precision", "f16"]),
    # finite logits divided by a tiny temperature overflow; the flag is at fault, not the bundle
    "temperature-overflows-logits": ("argv", ["score", "--csf", "msr", "--temperature", "1e-320"], 2),
    "temperature-casts-to-zero-at-f16": ("argv", ["score", "--csf", "mcd-pe", "--precision", "f16",
                                                  "--temperature", "1e-8"], 2),
    # finite and positive, but inf once cast to the precision: every softmax row would be flat
    "temperature-rounds-to-inf-at-f16": ("argv", ["score", "--csf", "msr", "--precision", "f16",
                                                  "--temperature", "1e5"], 2),
    "temperature-rounds-to-inf-at-f32": ("argv", ["score", "--csf", "msr", "--precision", "f32",
                                                  "--temperature", "1e39"], 2),
    # an empty list asks for nothing, which is a config fault, not an empty result
    "csfs-empty": ("config", {"csfs": []}, 2),
    "metrics-empty": ("config", {"studies": [{"name": "s", "metrics": []}]}, 2),
    "shift-filter-empty": ("config", {"studies": [{"name": "s", "shift_filter": []}]}, 2),
    "emit-empty": ("config", {"emit": []}, 2),
    "emit-flag-empty": ("argv", ["evaluate", "--emit", ","], 2),
    "emit-flag-blank": ("argv", ["evaluate", "--emit", ""], 2),
    # a filter that names a tag the bundle lacks is valid; the data leave nothing to evaluate
    "shift-filter-matches-no-row": ("config", {"studies": [{"name": "s", "shift_filter": ["COVARIATE"]}]}, 1),
    # InvalidParameter raised by the library for a flag value exits 2 like a config value
    "sgr-rstar-out-of-range": ("argv", ["sgr", "--rstar", "2"], 2),
    "sgr-delta-out-of-range": ("argv", ["sgr", "--delta", "0"], 2),
    "precision-audit-n-zero": ("argv", ["precision-audit", "--synthetic", "--n", "0"], 2),
    "precision-audit-c-one": ("argv", ["precision-audit", "--synthetic", "--c", "1"], 2),
    "precision-audit-failure-rate-above-one": ("argv", ["precision-audit", "--synthetic", "--failure-rate", "1.5"], 2),
    "precision-audit-gaps-reversed": ("argv", ["precision-audit", "--synthetic", "--gap-low", "5", "--gap-high", "1"], 2),
    "precision-audit-gap-negative": ("argv", ["precision-audit", "--synthetic", "--gap-low", "-1"], 2),
    "precision-audit-gap-infinite": ("argv", ["precision-audit", "--synthetic", "--gap-high", "inf"], 2),
    "precision-audit-gap-nan": ("argv", ["precision-audit", "--synthetic", "--gap-low", "nan"], 2),
    # an infinite temperature makes every softmax row uniform, which ranks nothing
    "precision-audit-temperature-infinite": ("argv", ["precision-audit", "--synthetic", "--n", "300",
                                                      "--temperature", "inf"], 2),
    # an empty path or precision is refused, not passed over to the config's value or the default
    "out-flag-empty": ("argv", ["score", "--csf", "msr", "--out", ""], 2),
    "bundle-flag-empty": ("argv", ["evaluate", "--bundle", ""], 2),
    "out-empty": ("config", {"out": ""}, 2),
    "bundle-empty": ("config", {"bundle": ""}, 2),
    "precision-empty": ("config", {"precision": ""}, 2),
    # valid flags on a bundle too small for the SGR bound: the data are at fault
    "sgr-four-rows": ("argv", ["sgr"], 1),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_broken_input_exits_with_one_line_message(case, toy_bundle_dir, tmp_path, capsys):
    where, content, code, *command = BROKEN_INPUTS[case]
    command = content if where == "argv" else command[0] if command else ["evaluate"]
    bundle_dir = write_bundle(load_bundle(toy_bundle_dir), tmp_path / "bundle", binary=True)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"bundle": str(bundle_dir), "out": str(tmp_path / "o"),
                                  **(content if where == "config" else {})}))
    if where == "meta":
        (bundle_dir / "meta.json").write_text(json.dumps(content))
    elif where == "f64":
        with open(bundle_dir / "logits.f64", "ab") as fh:
            fh.write(b"\0\0\0")
    elif where == "shift":
        lines = (bundle_dir / "shift.csv").read_text().splitlines()
        (bundle_dir / "shift.csv").write_text("\n".join(lines[:1] + [""] + lines[1:]) + "\n")
    elif where == "file":
        name, raw = content
        (tmp_path / name).write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command + ["--config", config]) == code
    assert [str(w.message) for w in caught] == []  # a warning would print a second stderr line
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: " if code == 2 else "error: ")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone took about a second of every command's start-up
    code = "import sys, fdeval.cli; sys.exit('scipy.stats' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0


def scipy_modules_after(argv=None) -> list[str]:
    """The scipy modules a fresh process holds after importing fdeval.cli and, if given, running argv."""
    code = (
        "import json, sys, fdeval.cli\n"
        "code = fdeval.cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    extra = [json.dumps([str(a) for a in argv])] if argv else []
    proc = subprocess.run([sys.executable, "-c", code, *extra], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "evaluate-msr-pe-ece", "evaluate-maha", "sgr", "calibrate",
                                  "precision-audit"])
def test_commands_load_only_the_scipy_they_call(case, toy_bundle_dir, tmp_path):
    # scipy.linalg and scipy.special each cost about a third of a second of start-up;
    # maha runs on numpy's linalg and sgr inverts its bound itself, so no command imports scipy
    argv = None
    if case in ("sgr", "calibrate"):
        argv = [case, "--config", write_workload(tmp_path, "calibration-100k")]
        argv += ["--rstar", "0.5", "--delta", "0.2"] if case == "sgr" else []
    elif case == "precision-audit":
        argv = [case, "--synthetic", "--n", "300", "--out", tmp_path / "o"]
    elif case.startswith("evaluate"):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"csfs": ["maha"]} if case == "evaluate-maha" else
                                     {"csfs": ["msr", "pe"], "studies": [{"name": "s", "metrics": ["aurc", "ece"]}]}))
        argv = ["evaluate", "--bundle", toy_bundle_dir, "--config", config, "--out", tmp_path / "o"]
    assert scipy_modules_after(argv) == []


def test_verify_takes_csfs_from_flag_then_config_then_default(toy_bundle_dir, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"csfs": ["msr", "maha"]}))
    for extra, want in [([], "csfs=msr,pe,mls"), (["--config", config], "csfs=msr,maha"),
                        (["--config", config, "--csf", "pe"], "csfs=pe")]:
        assert run(["verify", "--bundle", toy_bundle_dir, *extra]) == 0
        assert capsys.readouterr().out.splitlines() == [want, "aurc_max_dev=0.0e0", "auroc_max_dev=0.0e0"]


def test_calibrate_bins_from_flag_then_config_then_default(toy_bundle_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ece_bins": 20}))
    for extra, want in [([], 15), (["--config", config], 20), (["--config", config, "--bins", "7"], 7)]:
        out = tmp_path / f"o{want}"
        assert run(["calibrate", "--bundle", toy_bundle_dir, "--out", out, *extra]) == 0
        assert json.loads((out / "calibration.json").read_text())["bins"] == want


def test_bad_flag_values_exit_2(toy_bundle_dir):
    assert run(["score", "--bundle", toy_bundle_dir, "--csf", "msr", "--precision", "f8"]) == 2
    assert run(["score", "--bundle", toy_bundle_dir, "--csf", "msr", "--temperature", "-1"]) == 2
    assert run(["calibrate", "--bundle", toy_bundle_dir, "--bins", str(10**30)]) == 2


def write_workload(tmp_path, name, config=None):
    """A small bundle of the fdbench workload's kind, and its run config (or the one given)."""
    workloads = load_fdbench_module("workloads")
    w = workloads.WORKLOADS[name]
    shape = workloads.Shape(n=200, c=5, t=3 if w.shape.t else 0, d=4 if w.shape.d else 0,
                            tied_external=w.shape.tied_external)
    bundle_dir = write_bundle(workloads.generate(shape, 3), tmp_path / "bundle", binary=True)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config or w.config, bundle=str(bundle_dir), out=str(tmp_path / "o"))))
    return path


@pytest.mark.parametrize("workload, calls", [("scores-wide", 2), ("ranking-100k", 1), ("calibration-100k", 1)])
def test_evaluate_softmaxes_each_logits_array_once(workload, calls, tmp_path, monkeypatch):
    # the logits and the MC stack once each: a study's nll and brier read its rows off the CSFs' logits softmax;
    # the logits and MC passes call _softmax once per row block, and these small arrays are one block each
    counted = []
    real = fdeval.scores._softmax

    def counting(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fdeval.scores, "_softmax", counting)
    assert run(["evaluate", "--config", write_workload(tmp_path, workload)]) == 0
    assert len(counted) == calls


def test_evaluate_never_copies_the_bundle(tmp_path, monkeypatch):
    metrics = ["aurc", "e-aurc", "auroc-f", "ap-f", "accuracy", "nll", "brier", "ece"]
    config = {"csfs": list(CSF_IDS), "studies": [
        {"name": "all", "metrics": metrics},
        {"name": "iid", "shift_filter": ["IID"], "metrics": metrics},
        {"name": "new", "kind": "newclass", "shift_filter": ["IID", "NEWCLASS_SEMANTIC"],
         "metrics": metrics + ["auroc-out"]},
    ]}

    def refuse(self, mask):
        raise AssertionError("evaluate copied the bundle")

    monkeypatch.setattr(PredictionBundle, "select", refuse)
    assert run(["evaluate", "--config", write_workload(tmp_path, "scores-wide", config), "--emit", "json,svg"]) == 0


def test_maha_without_an_inlier_row_exits_1(tmp_path, capsys):
    b = simple_bundle(np.eye(4, 2), [2] * 4, tags=["NEWCLASS_SEMANTIC"] * 4, features=np.eye(4, 2))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"csfs": ["maha"]}))
    assert run(["evaluate", "--bundle", write_bundle(b, tmp_path / "bundle"), "--config", config,
                "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == "error: ClassUnderpopulated: maha: no training rows\n"


def test_platt_on_far_apart_scores_runs_without_a_warning(tmp_path):
    # the fitted sigmoid overflows exp where it rounds to 0 or 1, and in the branch np.where drops
    scores = np.array([-1.0, 1.0, -500.0, 0.0, -999.0, -1000.0, 1000.0, 0.0])
    failed = [1, 0, 1, 0, 1, 1, 0, 1]
    bundle_dir = write_bundle(simple_bundle([[2.0, 0.0]] * 8, failed, externals={"x": scores}), tmp_path / "bundle")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"csfs": ["ext:x"], "studies": [{"name": "s", "metrics": ["ece"]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["evaluate", "--bundle", bundle_dir, "--config", config, "--out", tmp_path / "e"]) == 0
        assert run(["calibrate", "--bundle", bundle_dir, "--csf", "ext:x", "--out", tmp_path / "c"]) == 0
