import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import fdeval.scores
from fdeval import PredictionBundle, ShiftTag, validate_bundle

REPO = Path(__file__).resolve().parent.parent


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


# source of mapped_kb(name) for a child process's script: the Rss, in kB, of its mapping of the file
# called name (a loaded .f64 bundle file), from /proc/self/smaps
MAPPED_KB = """\
def mapped_kb(name):
    with open("/proc/self/smaps") as fh:
        lines = iter(fh)
        next(line for line in lines if line.rstrip().endswith("/" + name))
        return next(int(line.split()[1]) for line in lines if line.startswith("Rss:"))
"""
# a child process's own high-water mark of resident pages, in kB: ru_maxrss would carry over the
# peak of the process that started it, through exec
PEAK_KB = """\
def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""


def child_env() -> dict:
    """The environment of a child process that imports fdeval from this checkout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def load_fdbench_module(name: str):
    """Import fdbench/<name>.py, which is a script directory rather than a package."""
    module_name = f"fdbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, REPO / "fdbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up while the file runs
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.fixture
def toy_bundle_dir() -> Path:
    return REPO / "data" / "toy_bundle"


def random_instance(rng, n=None, tie_density=0.0, failure_rate=0.3):
    """Confidence/residual pair with controllable tie mass and failure rate."""
    if n is None:
        n = int(rng.integers(1, 501))
    conf = rng.random(n)
    if tie_density > 0:
        snap = rng.random(n) < tie_density
        levels = np.array([0.2, 0.5, 0.8])
        conf[snap] = levels[rng.integers(0, levels.size, int(snap.sum()))]
    residuals = (rng.random(n) < failure_rate).astype(np.int8)
    return conf, residuals


def both_outcomes_instance(rng, n, tie_density=0.0, failure_rate=0.3):
    """Like random_instance but guaranteed to contain a success and a failure."""
    conf, res = random_instance(rng, n=max(n, 2), tie_density=tie_density, failure_rate=failure_rate)
    if res.sum() == 0:
        res[int(rng.integers(0, res.size))] = 1
    if res.sum() == res.size:
        res[int(rng.integers(0, res.size))] = 0
    return conf, res


def simple_bundle(logits, labels, tags=None, **kw) -> PredictionBundle:
    logits = np.asarray(logits, dtype=np.float64)
    if tags is None:
        tags = np.full(logits.shape[0], ShiftTag.IID.value, dtype="U24")
    else:
        tags = np.asarray(tags, dtype="U24")
    return validate_bundle(
        PredictionBundle(logits=logits, labels=np.asarray(labels), shift_tags=tags, **kw)
    )


def newclass_bundle() -> PredictionBundle:
    """10 samples: 6 IID (2 misclassified) + 4 new-class, 3 inlier classes."""
    logits = np.array(
        [
            [3.0, 0.0, 0.0],   # IID, pred 0, label 0, correct
            [0.0, 3.0, 0.0],   # IID, pred 1, label 1, correct
            [0.0, 0.0, 3.0],   # IID, pred 2, label 2, correct
            [2.5, 0.5, 0.0],   # IID, pred 0, label 0, correct
            [2.0, 1.0, 0.0],   # IID, pred 0, label 1, failure
            [0.0, 1.5, 1.0],   # IID, pred 1, label 2, failure
            [1.2, 1.0, 0.8],   # new-class semantic
            [1.1, 1.0, 0.9],   # new-class semantic
            [0.9, 1.0, 1.1],   # new-class nonsemantic
            [1.0, 1.0, 1.2],   # new-class nonsemantic
        ]
    )
    labels = np.array([0, 1, 2, 0, 1, 2, 3, 3, 3, 3])
    tags = np.array(
        [ShiftTag.IID.value] * 6
        + [ShiftTag.NEWCLASS_SEMANTIC.value] * 2
        + [ShiftTag.NEWCLASS_NONSEMANTIC.value] * 2,
        dtype="U24",
    )
    return simple_bundle(logits, labels, tags)


def three_row_blocks(monkeypatch, workers=1) -> list[int]:
    """Blocks of 3 rows, which do not divide 10, on the given number of threads; returns the rows of
    each softmax call of the scoring pass (_pass_scores), over the logits or the MC stack, as they
    happen (in block order on one thread)."""
    rows, real = [], fdeval.scores._softmax
    monkeypatch.setattr(fdeval.scores, "_rows_per_block", lambda width, block=None: 3)
    monkeypatch.setattr(fdeval.scores, "_workers", lambda: workers)
    monkeypatch.setattr(fdeval.scores, "_softmax",
                        lambda x, cfg, out=None: rows.append(x.shape[0]) or real(x, cfg, out=out))
    return rows
