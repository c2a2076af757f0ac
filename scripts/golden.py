"""Rewrite tests/golden.json, the sha256 and size of every file that the golden runs write.

    python3 scripts/golden.py

Each run calls `fdeval.cli.main` in-process, into a directory of its own, on
data/toy_bundle, on a copy of it, or on the blocks bundle: CI's 3000-row
bundle of fdbench's generator (50 classes, 4 MC passes, 32 features, seed 5),
whose logits pass and MC pass both take several row blocks. Its record holds the exit code, stdout (with
the output directory written as <out>), stderr and one entry per written file.
The script prints the name of every entry that differs from the old manifest.
tests/test_golden.py reruns the same runs and names every such entry, so a
change that alters an artifact on purpose reruns this script and lists those
names in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fdeval import cli, load_bundle, write_bundle  # noqa: E402

MANIFEST = REPO / "tests" / "golden.json"
TOY = REPO / "data" / "toy_bundle"

# the configs of CI's warnings-as-errors step: every CSF and every metric the toy bundle can rate,
# and at f16 all but ece, whose Platt fit of mcd-mi stops there with PerfectSeparation
ALL_CSFS = ["msr", "pe", "mls", "mcd-msr", "mcd-pe", "mcd-ee", "mcd-mi", "mcd-mls", "maha", "ext:demo"]
F16_METRICS = ["aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "accuracy", "nll", "brier"]
CONFIGS = {
    "toy-all.json": {"csfs": ALL_CSFS, "studies": [{"name": "all", "metrics": [*F16_METRICS, "ece"]}]},
    "toy-f16.json": {"csfs": ALL_CSFS, "studies": [{"name": "all", "metrics": F16_METRICS}]},
    # CI's one-CPU-and-all-of-them config: all nine CSFs
    "blocks.json": {"csfs": ALL_CSFS[:-1], "studies": [{"name": "standard", "metrics": [
        "aurc", "e-aurc", "auroc-f", "ap-f", "accuracy", "nll", "brier"]}]},
    # one study per failure source of the blocks bundle, each with every metric it can rate: auroc-out
    # needs new-class rows, which iid and covariate lack
    "blocks-studies.json": {"csfs": ALL_CSFS[:-1], "studies": [
        {"name": "iid", "shift_filter": ["IID"], "metrics": [*F16_METRICS, "ece"]},
        {"name": "covariate", "shift_filter": ["COVARIATE"], "metrics": [*F16_METRICS, "ece"]},
        {"name": "all", "metrics": [*F16_METRICS, "auroc-out", "ece"]},
        {"name": "newclass", "kind": "newclass", "shift_filter": ["IID", "NEWCLASS_SEMANTIC"],
         "metrics": [*F16_METRICS, "auroc-out", "ece"]}]},
}

# shift.csv layouts that the loader reads line by line; each copy must write what the plain bundle does
SHIFT_LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "padded": lambda text: "".join(f"  {line} \n" for line in text.splitlines()),
    "no-final-newline": lambda text: text[:-1],
    "trailing-blank": lambda text: text + "\n\n",
}

EVALUATE = ["evaluate", "--emit", "json,csv,svg"]
# run name -> (bundle, argv without --bundle and --out); {work} is the directory of the configs
RUNS = {
    "evaluate": ("toy", EVALUATE),
    "toy-all-f32": ("toy", [*EVALUATE, "--config", "{work}/toy-all.json", "--precision", "f32"]),
    "toy-all-f64": ("toy", [*EVALUATE, "--config", "{work}/toy-all.json", "--precision", "f64"]),
    "toy-f16": ("toy", [*EVALUATE, "--config", "{work}/toy-f16.json", "--precision", "f16"]),
    "toy-all-f16": ("toy", [*EVALUATE, "--config", "{work}/toy-all.json", "--precision", "f16"]),
    "score": ("toy", ["score", "--csf", "msr"]),
    "rc-curve": ("toy", ["rc-curve"]),
    "calibrate": ("toy", ["calibrate"]),
    "precision-audit-synthetic": (None, ["precision-audit", "--synthetic", "--n", "500"]),
    "precision-audit-bundle": ("toy", ["precision-audit"]),
    "evaluate-f64": ("toy-f64", EVALUATE),
    **{f"evaluate-shift-{layout}": (f"toy-shift-{layout}", EVALUATE) for layout in SHIFT_LAYOUTS},
    **{f"blocks-{p}": ("blocks", [*EVALUATE, "--config", "{work}/blocks.json", "--precision", p])
       for p in ("f16", "f32", "f64")},
    "blocks-f16-t1.5": ("blocks", [*EVALUATE, "--config", "{work}/blocks.json", "--precision", "f16",
                                   "--temperature", "1.5"]),
    **{f"blocks-studies-{p}": ("blocks", [*EVALUATE, "--config", "{work}/blocks-studies.json", "--precision", p])
       for p in ("f16", "f32", "f64")},
    "blocks-sgr": ("blocks", ["sgr"]),
    # both read predicted, the row-blocked argmax of the mapped logits
    "blocks-rc-curve": ("blocks", ["rc-curve"]),
    "blocks-calibrate": ("blocks", ["calibrate"]),
    "blocks-audit": ("blocks", ["precision-audit"]),
    "blocks-audit-compute-only": ("blocks", ["precision-audit", "--compute-only"]),
    "blocks-audit-t4": ("blocks", ["precision-audit", "--temperature", "4"]),
    "blocks-audit-compute-only-t4": ("blocks", ["precision-audit", "--compute-only", "--temperature", "4"]),
    # a top logit beyond f16's range stores as inf, and its row's f16 msr is NaN (exit 1)
    "precision-audit-synthetic-f16-inf": (None, ["precision-audit", "--synthetic", "--n", "200",
                                                 "--gap-low", "60000", "--gap-high", "70000"]),
    # dividing by the temperature overflows f16 in finite rows (exit 2)
    "precision-audit-synthetic-tiny-temperature": (None, ["precision-audit", "--synthetic", "--gap-low", "60",
                                                          "--gap-high", "70", "--temperature", "0.001"]),
    # the CSV copy's arrays are writeable, where the .f64 maps are read-only
    "blocks-csv-audit": ("blocks-csv", ["precision-audit"]),
    "blocks-csv-audit-compute-only": ("blocks-csv", ["precision-audit", "--compute-only"]),
}
# the runs whose record must equal that of "evaluate"
SAME_AS_EVALUATE = ["evaluate-f64", *(f"evaluate-shift-{layout}" for layout in SHIFT_LAYOUTS)]
# run -> the run whose record it must equal
SAME_AS = {"blocks-csv-audit": "blocks-audit", "blocks-csv-audit-compute-only": "blocks-audit-compute-only"}


def blocks_bundle():
    """CI's blocks bundle, from fdbench/workloads.py (a script directory, not a package)."""
    spec = importlib.util.spec_from_file_location("golden_workloads", REPO / "fdbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # dataclasses look their module up while the file runs
    spec.loader.exec_module(workloads)
    return workloads.generate(workloads.Shape(n=3000, c=50, t=4, d=32), 5)


def _bundles(work: Path) -> dict[str, Path]:
    """The toy bundle, and under work its .f64 copy, its copies with each shift.csv layout, and the
    blocks bundle as .f64 files and as a CSV copy."""
    bundles = {"toy": TOY, "toy-f64": write_bundle(load_bundle(TOY), work / "toy-f64", binary=True)}
    bundles["blocks"] = write_bundle(blocks_bundle(), work / "blocks", binary=True)
    bundles["blocks-csv"] = write_bundle(load_bundle(bundles["blocks"]), work / "blocks-csv")
    text = (TOY / "shift.csv").read_text()
    for layout, rewrite in SHIFT_LAYOUTS.items():
        copy = Path(shutil.copytree(TOY, work / f"toy-shift-{layout}"))
        (copy / "shift.csv").write_bytes(rewrite(text).encode())
        bundles[f"toy-shift-{layout}"] = copy
    return bundles


def _run(argv: list[str], out: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else []:
        if path.is_file():
            data = path.read_bytes()
            files[path.relative_to(out).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return {"exit": code, "stdout": stdout.getvalue().replace(str(out), "<out>"), "stderr": stderr.getvalue(),
            "files": files}


def run_all(work: Path) -> dict:
    """Every run's record, written under work, with FDSHIFT_SEED unset (seed 0)."""
    work.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        (work / name).write_text(json.dumps(config))
    bundles = _bundles(work)
    seed = os.environ.pop(cli.ENV_SEED, None)
    try:
        records = {}
        for name, (bundle, argv) in RUNS.items():
            argv = [arg.format(work=work) for arg in argv]
            records[name] = _run(argv if bundle is None else [*argv, "--bundle", str(bundles[bundle])],
                                 work / "out" / name)
        return records
    finally:
        if seed is not None:
            os.environ[cli.ENV_SEED] = seed


def changed(want: dict, got: dict) -> list[str]:
    """The entries that differ between two manifests: run/<exit|stdout|stderr> or run/<file>."""
    names = []
    for run in sorted(want.keys() | got.keys()):
        old, new = want.get(run, {}), got.get(run, {})
        names += [f"{run}/<{key}>" for key in ("exit", "stdout", "stderr") if old.get(key) != new.get(key)]
        old_files, new_files = old.get("files", {}), new.get("files", {})
        names += [f"{run}/{name}" for name in sorted(old_files.keys() | new_files.keys())
                  if old_files.get(name) != new_files.get(name)]
    return names


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        got = run_all(Path(work))
    want = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps(got, sort_keys=True, indent=1) + "\n")
    for name in changed(want, got):
        print(f"changed {name}")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
