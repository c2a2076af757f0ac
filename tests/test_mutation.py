"""Mutated bundles and run configs end in exit 0, 1 or 2: never in a traceback, and never with a warning.

Each example copies the toy bundle (as CSV or as .f64), writes a run config
that asks for every toy CSF and metric, damages one input in one way and runs
`evaluate`. An error exit must print exactly one stderr line.
"""

import contextlib
import io
import json
import os
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import REPO
from fdeval import load_bundle, write_bundle
from fdeval.cli import main

TOY = REPO / "data" / "toy_bundle"
CONFIG = {
    "precision": "f64",
    "temperature": 1.0,
    "csfs": ["msr", "pe", "mls", "mcd-msr", "mcd-pe", "mcd-ee", "mcd-mi", "mcd-mls", "maha", "ext:demo"],
    "studies": [{"name": "all", "kind": "standard", "shift_filter": ["IID"],
                 "metrics": ["aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "accuracy", "nll", "brier", "ece"]}],
    "emit": ["json", "csv", "svg"],
    "ece_bins": 5,
}
META_KEYS = ("n", "c", "t", "d", "external")
MATRICES = ("logits", "labels", "mcd_logits", "features", "external_demo")
ONE_COLUMN = ("labels", "external_demo")
# one JSON value of each type; integers stay small, since a huge count is a failure of its own
OTHER_JSON = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([0.5, 4.0, -1.5, "x", "4", "", True, False, None, [1], {}]),
)


def files(work: Path, suffixes=(".json", ".csv", ".f64")) -> list[Path]:
    return sorted(p for p in work.rglob("*") if p.suffix in suffixes)


def matrix_file(data, work: Path, stems) -> Path:
    stem = data.draw(st.sampled_from(stems), label="matrix")
    path = work / "bundle" / f"{stem}.csv"
    return path if path.exists() else path.with_suffix(".f64")


def json_location(data, work: Path):
    """A JSON file, the keys leading to an object in it, and one key of that object."""
    where = data.draw(st.sampled_from(["meta", "config", "study"]), label="json")
    if where == "meta":
        return work / "bundle" / "meta.json", [], data.draw(st.sampled_from(META_KEYS), label="key")
    if where == "config":
        return work / "run.json", [], data.draw(st.sampled_from(sorted(CONFIG) + ["bundle", "out"]), label="key")
    return work / "run.json", ["studies", 0], data.draw(st.sampled_from(sorted(CONFIG["studies"][0])), label="key")


def edit_json(path: Path, parents, edit) -> None:
    obj = json.loads(path.read_text())
    target = obj
    for key in parents:
        target = target[key]
    edit(target)
    path.write_text(json.dumps(obj))


def truncate(data, work):
    path = data.draw(st.sampled_from(files(work)), label="file")
    raw = path.read_bytes()
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])


def drop_key(data, work):
    path, parents, key = json_location(data, work)
    edit_json(path, parents, lambda obj: obj.pop(key))


def swap_type(data, work):
    path, parents, key = json_location(data, work)
    value = data.draw(OTHER_JSON, label="value")
    edit_json(path, parents, lambda obj: obj.__setitem__(key, value))


def add_unknown_key(data, work):
    path, parents, _ = json_location(data, work)
    edit_json(path, parents, lambda obj: obj.__setitem__("zzz", 1))


def non_finite_cell(data, work):
    path = matrix_file(data, work, MATRICES)
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    if path.suffix == ".f64":
        raw = bytearray(path.read_bytes())
        k = data.draw(st.integers(0, (len(raw) - 16) // 8 - 1), label="cell")
        raw[16 + 8 * k: 24 + 8 * k] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
    else:
        rows = [line.split(",") for line in path.read_text().splitlines()]
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        rows[i][data.draw(st.integers(0, len(rows[i]) - 1), label="col")] = str(value)
        path.write_text("".join(",".join(row) + "\n" for row in rows))


def two_columns(data, work):
    path = matrix_file(data, work, ONE_COLUMN)
    if path.suffix == ".f64":
        raw = path.read_bytes()
        col = np.frombuffer(raw, dtype="<f8", offset=16)
        path.write_bytes(raw[:4] + struct.pack("<III", col.size, 2, 0) + np.repeat(col, 2).tobytes())
    else:
        path.write_text("".join(f"{line},{line}\n" for line in path.read_text().splitlines()))


def non_utf8(data, work):
    path = data.draw(st.sampled_from(files(work, (".json", ".csv"))), label="file")
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw)), label="at")
    path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at:])


MUTATIONS = [truncate, drop_key, swap_type, add_unknown_key, non_finite_cell, two_columns, non_utf8]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_cleanly(data):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if data.draw(st.booleans(), label="binary"):
            write_bundle(load_bundle(TOY), work / "bundle", binary=True)
        else:
            shutil.copytree(TOY, work / "bundle")
        config = work / "run.json"
        config.write_text(json.dumps(dict(CONFIG, bundle=str(work / "bundle"), out=str(work / "out"))))
        mutate = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        mutate(data, work)
        err = io.StringIO()
        # an empty "out" falls back to ./out, which must land in the scratch directory
        os.chdir(work)
        try:
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(["evaluate", "--config", str(config)])
        finally:
            os.chdir(cwd)
    event(f"{mutate.__name__}: exit {code}")  # shown by pytest --hypothesis-show-statistics
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "Traceback" not in lines[0] and "Warning" not in lines[0]
