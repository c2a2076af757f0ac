import json
import mmap
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAPPED_KB, REPO, newclass_bundle, simple_bundle
from fdeval.core import _ROW_BLOCK, ALL_TAGS, NEWCLASS_TAGS, _exact_tag_codes
from fdeval import (
    NEWCLASS,
    STANDARD,
    PredictionBundle,
    ShiftTag,
    failure_labels,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from fdeval.metrics import _residuals_and_mask
from fdeval.scores import fit_mahalanobis, likelihood_terms
from fdeval.errors import (
    EmptyNewClassStudy,
    LabelOutOfRange,
    MissingFile,
    NonFiniteValue,
    ShapeMismatch,
)


def rich_bundle(seed=0, n=17, c=4, t=3, d=5):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, c))
    labels = rng.integers(0, c, n)
    return simple_bundle(
        logits,
        labels,
        mcd_logits=rng.normal(size=(n, t, c)),
        features=rng.normal(size=(n, d)),
        externals={"alpha": rng.random(n), "beta": rng.random(n)},
    )


@pytest.mark.parametrize("binary", [False, True])
def test_write_load_roundtrip(tmp_path, binary):
    bundle = rich_bundle()
    write_bundle(bundle, tmp_path / "b", binary=binary)
    back = load_bundle(tmp_path / "b")
    assert np.array_equal(back.logits, bundle.logits)
    assert np.array_equal(back.labels, bundle.labels)
    assert np.array_equal(back.shift_tags, bundle.shift_tags)
    assert np.array_equal(back.mcd_logits, bundle.mcd_logits)
    assert np.array_equal(back.features, bundle.features)
    assert sorted(back.externals) == ["alpha", "beta"]
    for name in back.externals:
        assert np.array_equal(back.externals[name], bundle.externals[name])


def test_binary_layout(tmp_path):
    bundle = simple_bundle([[1.0, 2.0], [3.0, 4.0]], [1, 0])
    write_bundle(bundle, tmp_path / "b", binary=True)
    raw = (tmp_path / "b" / "logits.f64").read_bytes()
    assert raw[:4] == b"FDSB"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert np.frombuffer(raw, dtype="<f8", offset=16).tolist() == [1.0, 2.0, 3.0, 4.0]
    # shift tags stay textual even in binary mode
    assert (tmp_path / "b" / "shift.csv").exists()
    assert not (tmp_path / "b" / "shift.f64").exists()


def test_binary_write_streams_the_payload(tmp_path):
    bundle = rich_bundle(seed=3, n=500, c=1000, t=2, d=8)
    tracemalloc.start()
    try:
        write_bundle(bundle, tmp_path / "b", binary=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    files = {
        "logits": bundle.logits,
        "labels": bundle.labels.reshape(-1, 1),
        "mcd_logits": bundle.mcd_logits.reshape(500 * 2, 1000),
        "features": bundle.features,
        "external_alpha": bundle.externals["alpha"].reshape(-1, 1),
        "external_beta": bundle.externals["beta"].reshape(-1, 1),
    }
    payload = sum(arr.size * 8 for arr in files.values())
    # header + tobytes() held two copies of each payload at once
    assert peak < 0.1 * payload
    for stem, arr in files.items():
        reference = b"FDSB" + struct.pack("<III", *arr.shape, 0) + arr.astype("<f8").tobytes()
        assert (tmp_path / "b" / f"{stem}.f64").read_bytes() == reference


def test_binary_read_holds_one_copy(tmp_path):
    bundle = rich_bundle(seed=3, n=500, c=1000, t=2, d=8)
    directory = write_bundle(bundle, tmp_path / "b", binary=True)
    payload = sum(path.stat().st_size - 16 for path in directory.glob("*.f64"))
    tracemalloc.start()
    try:
        back = load_bundle(directory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # read_bytes, frombuffer and astype held two copies of each file; the
    # finiteness check adds one bool per value of the matrix it checks
    assert peak < 1.1 * payload
    assert np.array_equal(back.mcd_logits, bundle.mcd_logits)


def test_binary_size_is_checked_against_the_header(tmp_path):
    path = write_bundle(simple_bundle([[1.0, 2.0], [3.0, 4.0]], [1, 0]), tmp_path / "b", binary=True) / "logits.f64"
    raw = path.read_bytes()
    # 2**31 x 2 doubles would take 32 GiB: the file size refuses them before anything is allocated
    path.write_bytes(raw[:4] + struct.pack("<III", 2**31, 2, 0) + raw[16:])
    with pytest.raises(ShapeMismatch, match="logits.f64: header promises 2147483648x2, payload holds 4 values"):
        load_bundle(tmp_path / "b")
    path.write_bytes(raw + b"\0\0\0")
    with pytest.raises(ShapeMismatch, match="logits.f64: payload of 35 bytes is not a whole number of f64 values"):
        load_bundle(tmp_path / "b")


def test_binary_read_refuses_a_short_payload(tmp_path, monkeypatch):
    # the file shrinks between taking its size and reading it: 2x3 promised and stat'ed, 4 values read
    path = write_bundle(simple_bundle([[1.0, 2.0], [3.0, 4.0]], [1, 0]), tmp_path / "b", binary=True) / "logits.f64"
    path.write_bytes(b"FDSB" + struct.pack("<III", 2, 3, 0) + path.read_bytes()[16:])
    real_stat = Path.stat

    def stale_stat(self, **kwargs):
        st = real_stat(self, **kwargs)
        return SimpleNamespace(st_size=st.st_size + 16) if self == path else st

    monkeypatch.setattr(Path, "stat", stale_stat)
    with pytest.raises(ShapeMismatch, match="logits.f64: payload ended after 32 of 48 bytes"):
        load_bundle(tmp_path / "b")


def test_f64_arrays_are_read_only_maps_of_their_files(tmp_path):
    bundle = rich_bundle(seed=5)
    back = load_bundle(write_bundle(bundle, tmp_path / "b", binary=True))
    arrays = {"logits": back.logits, "mcd_logits": back.mcd_logits, "features": back.features}
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert np.array_equal(back.mcd_logits, bundle.mcd_logits)
    # the n-vectors are copied out of their mappings, which then close with their file descriptors
    for name, col in back.externals.items():
        assert col.flags.owndata and col.flags.writeable, name
        assert np.array_equal(col, bundle.externals[name])


# a child process whose open-file limit is lower than the bundle's file count
SCORE_UNDER_FILE_LIMIT = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from fdeval.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_f64_bundle_of_more_external_columns_than_open_files_scores(tmp_path):
    # each external column is copied out of its mapping, so the column's file descriptor is closed
    # before the next is read; a mapped column held one for the run, and 60 of them under a limit of
    # 40 ended in OSError: [Errno 24]
    rng = np.random.default_rng(9)
    externals = {f"x{k:02d}": rng.random(20) for k in range(60)}
    bundle = simple_bundle(rng.normal(size=(20, 3)), rng.integers(0, 3, 20), externals=externals)
    directory = write_bundle(bundle, tmp_path / "b", binary=True)
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["40", "score", "--bundle", str(directory), "--csf", "ext:x59", "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", SCORE_UNDER_FILE_LIMIT, *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scores = json.loads((tmp_path / "out" / "scores_ext-x59.json").read_text())["scores"]
    assert scores == pytest.approx(externals["x59"].tolist(), rel=1e-11)   # JSON keeps 12 digits


# the Rss of the logits.f64 mapping after each reader, then the same readers' results on the mapped
# bundle and on a writeable in-memory copy of it
READ_MAPPED_LOGITS = MAPPED_KB + """\
import dataclasses, hashlib, json, sys
import numpy as np
import fdeval.scores
from fdeval import PredictionBundle, load_bundle, precision_audit
from fdeval.scores import compute_csfs
def logits_kb():
    return mapped_kb("logits.f64")
def read(bundle, kb):
    got = {}
    for workers in (1, 2):
        fdeval.scores._workers = lambda: workers
        for csf, vec in compute_csfs(bundle, ["msr", "pe", "mls"]).items():
            got[f"{csf}-{workers}"] = hashlib.sha256(vec.scores.tobytes()).hexdigest()
        kb[f"scored on {workers}"] = logits_kb()
    got["predicted"] = hashlib.sha256(bundle.predicted.tobytes()).hexdigest()
    kb["predicted"] = logits_kb()
    got["audit"] = dataclasses.asdict(precision_audit.audit(bundle))
    kb["audited"] = logits_kb()
    return got
mapped = load_bundle(sys.argv[1])
kb = {"loaded": logits_kb()}
got = read(mapped, kb)
held = PredictionBundle(np.array(mapped.logits), mapped.labels, mapped.shift_codes)
print(json.dumps({"kb": kb, "mapped": got, "held": read(held, {})}))
"""


@pytest.mark.skipif(not (Path("/proc/self/smaps").exists() and hasattr(mmap, "MADV_DONTNEED")),
                    reason="reads the Rss of a mapping from /proc/self/smaps and releases pages with madvise")
def test_readers_of_mapped_logits_give_back_their_pages(tmp_path):
    # 8 MB of logits, the shape of ranking-100k: the page cache may hold them in 2 MiB folios, which a
    # fault maps whole, so each reader (the finite check, the scoring pass, the argmax, the audit)
    # gives back whole 2 MiB windows, or the first read of a block maps the last block's pages back in
    n, c = 100_000, 10
    rng = np.random.default_rng(37)
    logits = rng.normal(0.0, 3.0, (n, c))
    logits[::9] = np.round(logits[::9])   # tied top classes
    directory = write_bundle(simple_bundle(logits, rng.integers(0, c, n)), tmp_path / "b", binary=True)
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", READ_MAPPED_LOGITS, str(directory)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    window_kb = 2048
    workers = {"loaded": 1, "scored on 1": 1, "scored on 2": 2, "predicted": 1, "audited": 2}
    assert got["kb"].keys() == workers.keys()
    assert all(got["kb"][stage] <= window_kb * w for stage, w in workers.items()), got["kb"]
    assert got["mapped"] == got["held"]


def test_writing_a_loaded_f64_bundle_over_its_files_keeps_it_readable(tmp_path):
    # the files are replaced, not truncated: a truncated mapped file ends the next read in SIGBUS
    bundle = rich_bundle(seed=6)
    back = load_bundle(write_bundle(bundle, tmp_path / "b", binary=True))
    write_bundle(rich_bundle(seed=7, n=3), tmp_path / "b", binary=True)
    assert np.array_equal(back.mcd_logits, bundle.mcd_logits)
    assert np.array_equal(back.features, bundle.features)
    assert load_bundle(tmp_path / "b").n_samples == 3
    assert not list((tmp_path / "b").glob("*.part"))


def mc_block_bundle(t=4, c=256):
    """A bundle whose MC stack spans three finite-check row blocks, the last one short; its values
    are quarters, so the CSV stays small."""
    per_block = _ROW_BLOCK // (t * c)
    n = 2 * per_block + 44
    rng = np.random.default_rng(11)
    return simple_bundle(rng.integers(-8, 8, (n, c)) / 4, rng.integers(0, c, n),
                         mcd_logits=rng.integers(-8, 8, (n, t, c)) / 4), per_block


@pytest.mark.parametrize("binary", [False, True])
def test_nonfinite_mc_cell_is_named_by_its_row_in_any_block(tmp_path, binary):
    bundle, per_block = mc_block_bundle()
    n = bundle.n_samples
    for row, value in ((0, np.nan), (per_block + 5, np.inf), (n - 1, -np.inf)):
        mcd = bundle.mcd_logits.copy()
        mcd[row, 2, 17] = value
        broken = PredictionBundle(bundle.logits, bundle.labels, bundle.shift_codes, mcd_logits=mcd)
        directory = write_bundle(broken, tmp_path / f"b{row}", binary=binary)
        with pytest.raises(NonFiniteValue, match=rf"^mcd_logits: non-finite value at row {row}$"):
            load_bundle(directory)


@pytest.mark.parametrize("binary", [False, True])
def test_nonfinite_logit_is_named_by_its_row_in_any_block(tmp_path, binary):
    c = 64
    per_block = _ROW_BLOCK // c
    n = 2 * per_block + 44   # three finite-check row blocks, the last one short
    rng = np.random.default_rng(12)
    bundle = simple_bundle(rng.integers(-8, 8, (n, c)) / 4, rng.integers(0, c, n))
    for row, value in ((0, np.nan), (per_block + 5, np.inf), (n - 1, -np.inf)):
        logits = bundle.logits.copy()
        logits[row, 17] = value
        directory = write_bundle(PredictionBundle(logits, bundle.labels, bundle.shift_codes), tmp_path / f"b{row}",
                                 binary=binary)
        with pytest.raises(NonFiniteValue, match=rf"^logits: non-finite value at row {row}$"):
            load_bundle(directory)


@pytest.mark.parametrize("stem", ["logits", "features", "external_alpha"])
def test_nonfinite_f64_cell_is_named_by_its_row(tmp_path, stem):
    directory = write_bundle(rich_bundle(seed=8), tmp_path / "b", binary=True)
    path = directory / f"{stem}.f64"
    raw = bytearray(path.read_bytes())
    cols = struct.unpack("<I", raw[8:12])[0]
    at = 16 + 8 * (11 * cols + cols - 1)   # the last value of row 11
    raw[at:at + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValue, match=rf"^{stem}: non-finite value at row 11$"):
        load_bundle(directory)


def test_finite_check_sums_first_and_passes_finite_values_whose_sum_overflows():
    # logits, features and external scores are summed first, and looked at one by one only when the
    # sum is not finite: a finite bundle makes no mask of its shape, and finite values whose sum
    # overflows take the one-by-one path and pass it
    rng = np.random.default_rng(23)
    logits = rng.normal(0.0, 3.0, (2000, 500))
    features = rng.normal(0.0, 1.0, (2000, 500))
    bundle = PredictionBundle(logits, rng.integers(0, 500, 2000), np.full(2000, "IID"), features=features)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        validate_bundle(bundle)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * logits.nbytes   # a mask of the logits' shape is 0.125x
    huge = np.full((3, 2), 1.5e308)
    simple_bundle(huge, [0, 1, 0], features=huge, externals={"x": huge[:, 0]})


def test_binary_bad_magic(tmp_path):
    bundle = simple_bundle([[1.0, 2.0]], [0])
    write_bundle(bundle, tmp_path / "b", binary=True)
    path = tmp_path / "b" / "logits.f64"
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(ShapeMismatch, match="FDSB"):
        load_bundle(tmp_path / "b")


def test_load_missing_files(tmp_path):
    with pytest.raises(MissingFile):
        load_bundle(tmp_path / "nope")
    (tmp_path / "b").mkdir()
    with pytest.raises(MissingFile, match="meta.json"):
        load_bundle(tmp_path / "b")
    (tmp_path / "b" / "meta.json").write_text('{"n": 1, "c": 2}')
    with pytest.raises(MissingFile, match="logits"):
        load_bundle(tmp_path / "b")
    (write_bundle(simple_bundle([[1.0, 2.0]], [0]), tmp_path / "b") / "shift.csv").unlink()
    with pytest.raises(MissingFile, match="shift.csv"):
        load_bundle(tmp_path / "b")


def test_meta_row_count_mismatch(tmp_path):
    bundle = simple_bundle([[1.0, 2.0], [3.0, 4.0]], [1, 0])
    write_bundle(bundle, tmp_path / "b")
    meta = json.loads((tmp_path / "b" / "meta.json").read_text())
    meta["n"] = 3
    (tmp_path / "b" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ShapeMismatch, match="logits"):
        load_bundle(tmp_path / "b")


def test_shift_csv_blank_lines(tmp_path):
    bundle = simple_bundle([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]], [1, 0, 0])
    shift = write_bundle(bundle, tmp_path / "b") / "shift.csv"
    shift.write_text("IID\nIID\nIID\n\n \n")
    assert load_bundle(tmp_path / "b").n_samples == 3
    shift.write_text("IID\n\nIID\nIID\n")
    with pytest.raises(ShapeMismatch, match="line 2 is blank"):
        load_bundle(tmp_path / "b")


def test_shift_csv_nul_byte_is_no_tag(tmp_path):
    bundle = simple_bundle([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]], [1, 0, 0])
    shift = write_bundle(bundle, tmp_path / "b") / "shift.csv"
    shift.write_text("IID\nIID\x00\nIID\n")
    with pytest.raises(LabelOutOfRange) as exc:
        load_bundle(tmp_path / "b")
    assert str(exc.value) == "shift: unknown tag 'IID\\x00' at row 1"


def test_unknown_tag_message_is_the_whole_tag_as_a_plain_repr(tmp_path):
    long_tag = "IID_" + "X" * 40
    bundle = simple_bundle([[1.0, 2.0], [3.0, 4.0]], [1, 0])
    shift = write_bundle(bundle, tmp_path / "b") / "shift.csv"
    shift.write_text(f"IID\n  {long_tag} \n")
    with pytest.raises(LabelOutOfRange) as exc:
        load_bundle(tmp_path / "b")
    assert str(exc.value) == f"shift: unknown tag {long_tag!r} at row 1"
    with pytest.raises(LabelOutOfRange) as exc:
        PredictionBundle(logits=np.eye(2), labels=np.zeros(2), shift_tags=np.array(["IID", long_tag]))
    assert str(exc.value) == f"shift: unknown tag {long_tag!r} at row 1"


SHIFT_TAGS = ["IID", "SUBCLASS", "NEWCLASS_NONSEMANTIC", "COVARIATE"]
SHIFT_TEXT = "".join(f"{tag}\n" for tag in SHIFT_TAGS)


def shift_bundle(tmp_path, data):
    bundle = simple_bundle(np.eye(4, 2), [0, 1, 2, 0], tags=SHIFT_TAGS)
    (write_bundle(bundle, tmp_path / "b") / "shift.csv").write_bytes(data)
    return tmp_path / "b"


def test_shift_csv_of_exact_tag_lines_takes_the_byte_path(tmp_path):
    every_tag = "".join(f"{tag}\n" for tag in ALL_TAGS * 3)
    assert _exact_tag_codes(every_tag.encode()).tolist() == list(range(len(ALL_TAGS))) * 3
    assert _exact_tag_codes(b"IID\n").tolist() == [0]
    assert load_bundle(shift_bundle(tmp_path, SHIFT_TEXT.encode())).shift_tags.tolist() == SHIFT_TAGS
    with pytest.raises(ShapeMismatch, match=r"^shift: expected shape \(4,\), got \(5,\)$"):
        load_bundle(shift_bundle(tmp_path, (SHIFT_TEXT + "IID\n").encode()))


@pytest.mark.parametrize("data", [
    SHIFT_TEXT.replace("\n", "\r\n").encode(),                       # CRLF line ends
    SHIFT_TEXT.replace("SUBCLASS", " SUBCLASS\t").encode(),           # padding
    SHIFT_TEXT.replace("IID", "IID ").encode(),                        # padding to another tag's length
    SHIFT_TEXT.encode()[:-1],                                         # no final newline
    (SHIFT_TEXT + "\n\n").encode(),                                    # trailing blank lines
    (SHIFT_TEXT + "  \n").encode(),
], ids=["crlf", "padded", "padded-to-a-tag-length", "no-final-newline", "trailing-blank-lines", "trailing-space-line"])
def test_shift_csv_fallbacks_read_the_same_tags(tmp_path, data):
    assert _exact_tag_codes(data) is None
    assert load_bundle(shift_bundle(tmp_path, data)).shift_tags.tolist() == SHIFT_TAGS


@pytest.mark.parametrize("data, error, message", [
    (b"", ShapeMismatch, "shift: expected shape (4,), got (0,)"),
    (SHIFT_TEXT.replace("IID\n", "IID\n\n").encode(), ShapeMismatch, "shift.csv: line 2 is blank"),
    (SHIFT_TEXT.replace("SUBCLASS", "SUBCLASX").encode(), LabelOutOfRange, "shift: unknown tag 'SUBCLASX' at row 1"),
    (SHIFT_TEXT.replace("IID", "iid").encode(), LabelOutOfRange, "shift: unknown tag 'iid' at row 0"),
    (SHIFT_TEXT.replace("COVARIATE", "COVARIATES_AND_MORE_THAN_20").encode(), LabelOutOfRange,
     "shift: unknown tag 'COVARIATES_AND_MORE_THAN_20' at row 3"),
    (SHIFT_TEXT.replace("IID", "I\x00D").encode(), LabelOutOfRange, "shift: unknown tag 'I\\x00D' at row 0"),
    (SHIFT_TEXT.encode().replace(b"IID", b"I\xffD"), ShapeMismatch, "shift.csv: 'utf-8' codec can't decode"),
], ids=["empty", "interior-blank-line", "same-length-unknown-tag", "lower-case", "longer-than-any-tag",
        "nul-byte", "not-utf8"])
def test_shift_csv_fallbacks_name_the_same_errors(tmp_path, data, error, message):
    assert _exact_tag_codes(data) is None
    with pytest.raises(error) as exc:
        load_bundle(shift_bundle(tmp_path, data))
    assert str(exc.value).startswith(message)


line_ends = st.sampled_from(["\n", "\r\n"])
padding = st.sampled_from(["", " ", "  ", "\t"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ALL_TAGS), padding, padding), min_size=1, max_size=40),
       line_ends, st.lists(padding, max_size=3), st.sets(st.sampled_from(ALL_TAGS), min_size=1),
       st.integers(0, 2**32 - 1))
def test_shift_codes_load_write_and_read_as_the_tag_strings(rows, end, trailing, study, seed):
    tags = [tag for tag, _, _ in rows]
    is_new = np.isin(tags, NEWCLASS_TAGS)
    bundle = simple_bundle(np.tile([1.0, 0.0], (len(tags), 1)), np.where(is_new, 2, 0), tags=tags)
    text = "".join(f"{left}{tag}{right}{end}" for tag, left, right in rows) + "".join(f"{t}{end}" for t in trailing)
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_bundle(bundle, Path(tmp) / "a")
        (directory / "shift.csv").write_bytes(text.encode())
        loaded = load_bundle(directory)
        # written back, the tags are the text the loader always wrote: one bare tag a line
        written = write_bundle(loaded, Path(tmp) / "b") / "shift.csv"
        assert written.read_bytes() == ("\n".join(tags) + "\n").encode()
    assert loaded.shift_codes.dtype == np.uint8
    assert loaded.shift_tags.tolist() == tags
    assert np.array_equal(loaded.tagged(study), np.isin(loaded.shift_tags, list(study)))
    mask = np.random.default_rng(seed).random(len(tags)) < 0.5
    assert loaded.select(mask).shift_tags.tolist() == loaded.shift_tags[mask].tolist()
    with pytest.raises(ValueError):
        loaded.shift_tags[0] = "IID"
    with pytest.raises(ValueError):
        loaded.select(mask).shift_tags[...] = "IID"


def test_nonfinite_logits_named_by_row():
    logits = np.ones((5, 3))
    logits[3, 1] = np.nan
    with pytest.raises(NonFiniteValue, match=r"logits.*row 3"):
        simple_bundle(logits, [0] * 5)


def test_label_validation():
    with pytest.raises(LabelOutOfRange, match=r"^labels must be integers in \[0, 2\], got 5 at row 1$"):
        simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 5])
    with pytest.raises(LabelOutOfRange, match=r"^labels must be integers in \[0, 2\], got 0.5 at row 0$"):
        simple_bundle([[1.0, 0.0]], [0.5])


# the four readers of core.integer_values, each with the value below its range and its upper bound, which
# the range leaves out: bundle labels are in [0, c], maha labels within int64, likelihood labels in
# [0, c) and residuals 0 or 1
INTEGER_READERS = {
    "validate_bundle": (lambda v: simple_bundle(np.eye(4, 3), v), -1.0, 4.0),
    "fit_mahalanobis": (lambda v: fit_mahalanobis(np.ones((4, 2)), v), -2.0**64, 2.0**63),
    "likelihood_terms": (lambda v: likelihood_terms(np.full((4, 3), 1 / 3), v), -1.0, 3.0),
    "_residuals_and_mask": (_residuals_and_mask, -1.0, 2.0),
}


@pytest.mark.parametrize("bad", ["half", "nan", "inf", "below", "upper"])
@pytest.mark.parametrize("reader", list(INTEGER_READERS))
def test_integer_check_names_the_first_value_outside_each_range(reader, bad):
    fn, below, upper = INTEGER_READERS[reader]
    value = {"half": 0.5, "nan": np.nan, "inf": np.inf, "below": below, "upper": upper}[bad]
    values = np.array([0.0, 1.0, value, 0.5])   # row 3 is no integer either, but row 2 comes first
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(LabelOutOfRange, match=rf", got {re.escape(str(values[2]))} at row 2$"):
            fn(values)


def test_ood_label_iff_newclass_tag():
    # sentinel label without the tag
    with pytest.raises(LabelOutOfRange, match="row 0"):
        simple_bundle([[1.0, 0.0]], [2])
    # tag without the sentinel label
    with pytest.raises(LabelOutOfRange, match="row 0"):
        simple_bundle([[1.0, 0.0]], [0], tags=[ShiftTag.NEWCLASS_SEMANTIC.value])
    # matched pair is fine
    b = simple_bundle([[1.0, 0.0]], [2], tags=[ShiftTag.NEWCLASS_SEMANTIC.value])
    assert b.ood_label == 2


def test_unknown_shift_tag():
    with pytest.raises(LabelOutOfRange, match="unknown tag"):
        simple_bundle([[1.0, 0.0]], [0], tags=["WEIRD"])


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        validate_bundle(PredictionBundle(logits=np.ones(3), labels=np.zeros(3), shift_tags=np.array(["IID"] * 3)))
    with pytest.raises(ShapeMismatch, match="c >= 2"):
        simple_bundle([[1.0]], [0])
    with pytest.raises(ShapeMismatch, match="labels"):
        simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0])
    # four values in the wrong shape are not flattened into four rows
    with pytest.raises(ShapeMismatch, match=r"labels: expected shape \(4,\), got \(2, 2\)"):
        simple_bundle(np.eye(4, 3), [[0, 1], [0, 1]])
    with pytest.raises(ShapeMismatch, match="external_x"):
        simple_bundle(np.eye(4, 3), [0, 1, 0, 1], externals={"x": np.ones((2, 2))})
    with pytest.raises(ShapeMismatch, match="shift"):
        simple_bundle(np.eye(4, 3), [0, 1, 0, 1], tags=[["IID", "IID"], ["IID", "IID"]])
    with pytest.raises(ShapeMismatch, match=r"mcd_logits: expected \(4, t, 3\), got \(4, 2, 2\)"):
        simple_bundle(np.eye(4, 3), [0, 1, 0, 1], mcd_logits=np.ones((4, 2, 2)))
    with pytest.raises(ShapeMismatch, match=r"features: expected \(4, d\), got \(3, 2\)"):
        simple_bundle(np.eye(4, 3), [0, 1, 0, 1], features=np.ones((3, 2)))


def test_predictions_tie_takes_lowest_index():
    b = simple_bundle([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]], [0, 1])
    assert b.predicted.tolist() == [0, 1]


def test_predictions_are_the_bundle_argmax_taken_once_and_read_only():
    b = rich_bundle()
    p = b.predicted
    assert b.predicted is p
    assert p.tolist() == np.argmax(b.logits, axis=1).tolist()
    with pytest.raises(ValueError, match="read-only"):
        p[0] = 0


def test_predicted_reads_a_read_only_array_in_row_blocks():
    # np.argmax copies a read-only array, such as a mapped .f64 file, in full: 8.39 MB of traced peak
    # on ranking-100k's (100k, 10) logits, against 0.76 MB on a writeable copy
    rng = np.random.default_rng(29)
    logits = rng.normal(size=(100_000, 20))
    logits[::7] = np.round(logits[::7])   # tied top classes on many rows
    logits[5, :] = 1.0                    # a row tied across every class
    logits.flags.writeable = False
    b = PredictionBundle(logits=logits, labels=np.zeros(100_000, dtype=np.int64), shift_tags=np.full(100_000, "IID"))
    tracemalloc.start()
    try:
        predicted = b.predicted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < logits.nbytes / 4, peak
    want = np.argmax(logits.copy(), axis=1)
    ties = (logits == logits.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert ties.sum() > 1000 and predicted[5] == 0
    assert predicted.dtype == want.dtype and predicted.tobytes() == want.tobytes()


def test_failure_labels_standard():
    b = simple_bundle([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]], [0, 0, 0])
    fl = failure_labels(b, STANDARD)
    assert fl.residuals.tolist() == [0, 1, 0]
    assert fl.eval_mask.all()


def test_failure_labels_newclass_masks_iid_failures():
    b = newclass_bundle()
    fl = failure_labels(b, NEWCLASS)
    # rows 4 and 5 are the misclassified inliers
    assert fl.residuals.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    assert fl.eval_mask.tolist() == [True] * 4 + [False, False] + [True] * 4
    # standard protocol keeps everything
    assert failure_labels(b, STANDARD).eval_mask.all()
    # only IID-tagged failures are dismissed: a misclassified COVARIATE row stays a failure
    tags = ["IID", "IID", "COVARIATE", "NEWCLASS_SEMANTIC"]
    fl = failure_labels(simple_bundle([[2.0, 0.0]] * 4, [0, 1, 1, 2], tags=tags), NEWCLASS)
    assert fl.residuals.tolist() == [0, 1, 1, 1]
    assert fl.eval_mask.tolist() == [True, False, True, True]


def test_newclass_study_needs_newclass_rows():
    b = simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(EmptyNewClassStudy):
        failure_labels(b, NEWCLASS)


def test_unknown_study_kind():
    b = simple_bundle([[1.0, 0.0]], [0])
    with pytest.raises(ValueError):
        failure_labels(b, "bogus")


def test_failure_labels_commute_with_permutation():
    b = newclass_bundle()
    base = failure_labels(b, NEWCLASS)
    rng = np.random.default_rng(11)
    for _ in range(10):
        perm = rng.permutation(b.n_samples)
        permuted = PredictionBundle(
            logits=b.logits[perm], labels=b.labels[perm], shift_tags=b.shift_tags[perm]
        )
        pfl = failure_labels(validate_bundle(permuted), NEWCLASS)
        assert np.array_equal(pfl.residuals, base.residuals[perm])
        assert np.array_equal(pfl.eval_mask, base.eval_mask[perm])


def test_failure_labels_of_rows_are_those_of_the_selected_bundle():
    b = newclass_bundle()
    rng = np.random.default_rng(29)
    subsets = [np.arange(10), np.arange(6), np.array([0, 4, 6, 9]), np.sort(rng.choice(10, 7, replace=False))]
    for kind in (STANDARD, NEWCLASS):
        for rows in subsets:
            keep = np.zeros(10, dtype=bool)
            keep[rows] = True
            for picked in (rows, keep):
                try:
                    want = failure_labels(b.select(keep), kind)
                except EmptyNewClassStudy as exc:
                    with pytest.raises(EmptyNewClassStudy, match=f"^{exc}$"):
                        failure_labels(b, kind, picked)
                    continue
                got = failure_labels(b, kind, picked)
                assert got.residuals.dtype == want.residuals.dtype and got.eval_mask.dtype == want.eval_mask.dtype
                assert got.residuals.tolist() == want.residuals.tolist()
                assert got.eval_mask.tolist() == want.eval_mask.tolist()


def test_select_mask_shape_checked():
    b = simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ShapeMismatch):
        b.select(np.array([True]))
    sub = b.select(np.array([True, False]))
    assert sub.n_samples == 1 and sub.labels.tolist() == [0]
