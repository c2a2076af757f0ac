import json
import struct
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import newclass_bundle, simple_bundle
from fdeval.core import ALL_TAGS, NEWCLASS_TAGS
from fdeval import (
    NEWCLASS,
    STANDARD,
    PredictionBundle,
    ShiftTag,
    failure_labels,
    load_bundle,
    predictions,
    validate_bundle,
    write_bundle,
)
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
    with pytest.raises(LabelOutOfRange, match="row 1"):
        simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 5])
    with pytest.raises(LabelOutOfRange, match="non-integer"):
        simple_bundle([[1.0, 0.0]], [0.5])


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
    assert predictions(b).tolist() == [0, 1]


def test_predictions_are_the_bundle_argmax_taken_once_and_read_only():
    b = rich_bundle()
    p = predictions(b)
    assert p is b.predicted and predictions(b) is p
    assert p.tolist() == np.argmax(b.logits, axis=1).tolist()
    with pytest.raises(ValueError, match="read-only"):
        p[0] = 0


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
