"""Prediction bundles: on-disk format, validation, and failure labels.

A bundle directory holds the stored outputs of one classifier run:

    meta.json          {"n": int, "c": int, "t": int, "d": int, "external": [names]}
    logits.csv         n rows x c columns, headerless
    labels.csv         n rows x 1 column, integer class ids; c marks a new-class sample
    shift.csv          n rows, one ShiftTag name per row
    mcd_logits.csv     optional, n*t rows x c, sample-major (t rows per sample)
    features.csv       optional, n rows x d
    external_<x>.csv   optional, n rows x 1 column, precomputed confidence scores

The counts in meta.json are non-negative JSON integers, and every matrix file
holds exactly the shape they give it. Every matrix file may instead be shipped
as <name>.f64: a 16-byte header (magic "FDSB", u32 rows, u32 cols, u32
reserved, little-endian) followed by row-major IEEE-754 f64 payload.
shift.csv is always CSV.

A .f64 payload is mapped, not copied: its array is a read-only view of the
file, so a bundle file must not be truncated or rewritten while it is loaded.
The n-vectors (labels, external scores) are copied out of their mappings, so a
loaded bundle holds at most three open files: logits, MC stack and features.
Each reader of the logits or of the MC-dropout stack (validate_bundle's finite
check, the scoring pass scores._pass_scores, the argmax _argmax_rows) reads it
in row blocks and releases each block once read, in whole 2 MiB windows of the
mapping: the page cache may hold the file in folios of up to 2 MiB, and a fault
maps a whole folio, so a release of the block's own pages alone would be undone
by the first read of the next block. A later read faults the pages back in.
"""

from __future__ import annotations

import enum
import json
import mmap
import os
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyNewClassStudy,
    LabelOutOfRange,
    MissingFile,
    NonFiniteValue,
    ShapeMismatch,
)

STANDARD = "standard"
NEWCLASS = "newclass"
STUDY_KINDS = (STANDARD, NEWCLASS)

BINARY_MAGIC = b"FDSB"
_HEADER = 16
# f64 elements per row block of the row-wise passes over the logits and the MC-dropout stack (the
# finite check and the argmax here, scores._map_rows there): 1 MB, so that a block and its
# temporaries stay in cache. The four softmax MC CSFs of scores-wide took 61 ms with 8 MB blocks and
# 46 ms with these on one thread, 28 ms on two (medians of 31, 2-core VM).
_ROW_BLOCK = 1 << 17
_WINDOW = 1 << 21   # bytes: _release_pages releases whole aligned windows of this size


def _rows_per_block(width: int, block: int) -> int:
    return max(1, block // max(width, 1))


def _row_blocks(arr: np.ndarray):
    """(first row, block) for each _ROW_BLOCK-element block of arr's rows; each block's pages are
    released (_release_pages) once its reader asks for the next one."""
    step = _rows_per_block(arr[:1].size, _ROW_BLOCK)
    for lo in range(0, arr.shape[0], step):
        yield lo, (block := arr[lo:lo + step])
        _release_pages(block)


class ShiftTag(str, enum.Enum):
    IID = "IID"
    COVARIATE = "COVARIATE"
    SUBCLASS = "SUBCLASS"
    NEWCLASS_SEMANTIC = "NEWCLASS_SEMANTIC"
    NEWCLASS_NONSEMANTIC = "NEWCLASS_NONSEMANTIC"


NEWCLASS_TAGS = (ShiftTag.NEWCLASS_SEMANTIC.value, ShiftTag.NEWCLASS_NONSEMANTIC.value)
ALL_TAGS = tuple(t.value for t in ShiftTag)
# a bundle holds each row's shift tag as a uint8 code, the tag's index in ALL_TAGS
_TAG_CODE = {tag: k for k, tag in enumerate(ALL_TAGS)}
_NO_TAG = 255
# the five tags differ in length, so a shift.csv line's length names the one tag it can be:
# entry L is that tag's code, or _NO_TAG; the last entry stands for every longer line
_CODE_OF_LENGTH = np.full(max(map(len, ALL_TAGS)) + 2, _NO_TAG, dtype=np.uint8)
_CODE_OF_LENGTH[[len(tag) for tag in ALL_TAGS]] = range(len(ALL_TAGS))
_TAG_LINES = [np.frombuffer(f"{tag}\n".encode(), dtype=np.uint8) for tag in ALL_TAGS]


def _tag_codes(tags) -> np.ndarray:
    """The uint8 codes of an array of tag names; a uint8 array holds codes already and is taken as it is."""
    if isinstance(tags, np.ndarray) and tags.dtype == np.uint8:
        return tags
    # str objects compare exactly; a str array would drop a trailing NUL byte
    names = tags if getattr(tags, "dtype", None) == object else np.asarray(tags, dtype=str)
    codes = np.full(names.shape, _NO_TAG, dtype=np.uint8)
    for tag, k in _TAG_CODE.items():
        codes[names == tag] = k
    bad = np.flatnonzero(codes == _NO_TAG)
    if bad.size:
        raise LabelOutOfRange(f"shift: unknown tag {str(names.flat[bad[0]])!r} at row {bad[0]}")
    return codes


class PredictionBundle:
    """Validated in-memory view of one bundle directory; the shift tags are held as codes, shift_codes."""

    def __init__(self, logits, labels, shift_tags, mcd_logits=None, features=None, externals=None):
        self.logits = logits                        # (n, c) f64
        self.labels = labels                        # (n,) int64, values in [0, c]; c = new class
        self.shift_codes = _tag_codes(shift_tags)   # (n,) uint8, indices into ALL_TAGS
        self.mcd_logits = mcd_logits                # (n, t, c) f64
        self.features = features                    # (n, d) f64
        self.externals = {} if externals is None else externals  # name -> (n,) f64

    @property
    def shift_tags(self) -> np.ndarray:
        """The tag names, built from the codes on each read: read-only, as a write into them would be lost."""
        tags = np.array(ALL_TAGS)[self.shift_codes]
        tags.flags.writeable = False
        return tags

    def tagged(self, tags) -> np.ndarray:
        """Boolean mask of the rows whose shift tag is one of tags, read off a table over the codes."""
        return np.isin(ALL_TAGS, list(tags))[self.shift_codes]

    @cached_property
    def predicted(self) -> np.ndarray:
        """Predicted class per row, argmax over logits with the lowest index on ties: taken once, read-only."""
        predicted = _argmax_rows(self.logits)
        predicted.flags.writeable = False
        return predicted

    @property
    def n_samples(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]

    @property
    def ood_label(self) -> int:
        # the sentinel class id reserved for new-class samples
        return self.n_classes

    def select(self, mask: np.ndarray) -> "PredictionBundle":
        """Row-subset view; mask is boolean over samples."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_samples,):
            raise ShapeMismatch(f"selection mask has shape {mask.shape}, expected ({self.n_samples},)")
        return PredictionBundle(
            logits=self.logits[mask],
            labels=self.labels[mask],
            shift_tags=self.shift_codes[mask],
            mcd_logits=None if self.mcd_logits is None else self.mcd_logits[mask],
            features=None if self.features is None else self.features[mask],
            externals={k: v[mask] for k, v in self.externals.items()},
        )


@dataclass
class FailureLabels:
    """Per-sample failure residuals plus the evaluation mask of a study."""

    residuals: np.ndarray   # (n,) int8, 1 = classifier failed on the sample
    eval_mask: np.ndarray   # (n,) bool, False = sample dismissed from ranking metrics


def _argmax_rows(logits: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Argmax per row of logits cast to dtype, the lowest index on ties. np.argmax copies a read-only
    array, such as a mapped .f64 file, in full, so the logits are read one row block at a time."""
    predicted = np.empty(logits.shape[0], dtype=np.intp)
    with np.errstate(over="ignore"):   # a value beyond dtype's range casts to inf
        for lo, block in _row_blocks(logits):
            np.argmax(block.astype(dtype, copy=False), axis=1, out=predicted[lo:lo + len(block)])
    return predicted


def _check_finite(arr: np.ndarray, name: str, first_row: int = 0) -> None:
    """Raise NonFiniteValue naming the first row of arr that holds an inf or a NaN, counting rows from first_row."""
    # an inf or a NaN always makes arr's sum non-finite, so only then are its values looked at one by
    # one; finite values whose sum overflows take that path too, and pass it
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(arr, axis=None)):
            return
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise NonFiniteValue(f"{name}: non-finite value at row {first_row + int(bad[0][0])}")


def integer_values(values: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    """values as int64, when each is an integer in [lo, hi); else LabelOutOfRange "<what>, got <value> at
    row <row>" for the first other one. The values are compared, not cast: a cast would read 1.7 as 1,
    and warn about a NaN or an inf. bool and integral floats read as integers."""
    bad = np.flatnonzero(~((values >= lo) & (values < hi) & (values == np.floor(values))))
    if bad.size:
        raise LabelOutOfRange(f"{what}, got {values[bad[0]]} at row {bad[0]}")
    return values.astype(np.int64, copy=False)


def _release_pages(arr: np.ndarray) -> None:
    """Drop the pages of the 2 MiB-aligned windows of the mapping that arr touches from this process,
    when arr is a contiguous view of a read-only file mapping (a loaded .f64 file). The page cache may
    hold the file in folios of up to 2 MiB, which a fault maps whole, so only whole windows stay
    released. Pages of a neighbouring block dropped with them fault back in from the page cache with
    the same bytes. Any other array is left as it is."""
    owner = arr
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, memoryview):   # numpy 2 keeps a memoryview of the buffer it was given
        owner = owner.obj
    if not (isinstance(owner, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED") and arr.flags.c_contiguous):
        return
    whole = np.frombuffer(owner, dtype=np.uint8)
    if whole.flags.writeable:   # a copy-on-write mapping would lose its writes
        return
    start = arr.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    lo = start // _WINDOW * _WINDOW
    hi = min(-(-(start + arr.nbytes) // _WINDOW) * _WINDOW, len(owner))
    if hi > lo:
        owner.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _read_binary_matrix(path: Path) -> np.ndarray:
    # the payload is mapped read-only, once the file size agrees with the header
    with open(path, "rb") as fh:
        header = fh.read(_HEADER)
        if len(header) < _HEADER or header[:4] != BINARY_MAGIC:
            raise ShapeMismatch(f"{path.name}: missing FDSB header")
        rows, cols, _ = struct.unpack("<III", header[4:])
        size = path.stat().st_size - _HEADER
        if size % 8:
            raise ShapeMismatch(f"{path.name}: payload of {size} bytes is not a whole number of f64 values")
        if size // 8 != rows * cols:
            raise ShapeMismatch(f"{path.name}: header promises {rows}x{cols}, payload holds {size // 8} values")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if (got := len(mapped) - _HEADER) != size:   # the file shrank after its size was taken
        raise ShapeMismatch(f"{path.name}: payload ended after {got} of {size} bytes")
    return np.frombuffer(mapped, dtype="<f8", count=rows * cols, offset=_HEADER).reshape(rows, cols)


def _write_binary_matrix(path: Path, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    # written beside path and then moved over it, so that a bundle loaded from the old file, which
    # maps it, keeps its pages: truncating a mapped file ends its next read in SIGBUS
    part = path.with_name(f"{path.name}.part")
    with open(part, "wb") as fh:
        fh.write(BINARY_MAGIC + struct.pack("<III", arr.shape[0], arr.shape[1], 0))
        arr.astype("<f8", copy=False).tofile(fh)
    os.replace(part, path)


def _read_matrix(directory: Path, stem: str, rows: int, cols: int) -> np.ndarray:
    """Load stem.csv or stem.f64 from directory as exactly the rows x cols array meta.json promises."""
    path = directory / f"{stem}.csv"
    if path.exists():
        try:
            with warnings.catch_warnings():
                # an empty file warns before it fails the shape check below
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:  # ragged rows, text that is no number, bytes that are no UTF-8
            raise ShapeMismatch(f"{path.name}: {exc}") from exc
    elif (path := directory / f"{stem}.f64").exists():
        arr = _read_binary_matrix(path)
    else:
        raise MissingFile(f"{stem}.csv (or {stem}.f64) not found in {directory}")
    if arr.shape != (rows, cols):
        raise ShapeMismatch(f"{path.name}: meta promises {rows}x{cols}, file holds {arr.shape[0]}x{arr.shape[1]}")
    return arr


def validate_bundle(bundle: PredictionBundle) -> PredictionBundle:
    """Enforce the bundle invariants; returns the bundle for chaining."""
    logits = np.asarray(bundle.logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeMismatch(f"logits: expected 2-d array, got shape {logits.shape}")
    n, c = logits.shape
    if n < 1 or c < 2:
        raise ShapeMismatch(f"logits: need n >= 1 and c >= 2, got {n}x{c}")
    for lo, block in _row_blocks(logits):
        _check_finite(block, "logits", first_row=lo)
    bundle.logits = logits

    labels = np.asarray(bundle.labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels: expected shape ({n},), got {labels.shape}")
    bundle.labels = integer_values(labels, 0, c + 1, f"labels must be integers in [0, {c}]")

    if bundle.shift_codes.shape != (n,):
        raise ShapeMismatch(f"shift: expected shape ({n},), got {bundle.shift_codes.shape}")
    is_new = bundle.tagged(NEWCLASS_TAGS)
    is_ood = bundle.labels == c
    if (is_new != is_ood).any():
        row = int(np.argwhere(is_new != is_ood)[0][0])
        raise LabelOutOfRange(
            f"labels/shift: row {row} must carry label {c} exactly when tagged new-class"
        )

    if bundle.mcd_logits is not None:
        mcd = np.asarray(bundle.mcd_logits, dtype=np.float64)
        if mcd.ndim != 3 or mcd.shape[0] != n or mcd.shape[2] != c:
            raise ShapeMismatch(f"mcd_logits: expected ({n}, t, {c}), got {mcd.shape}")
        for lo, block in _row_blocks(mcd):
            _check_finite(block, "mcd_logits", first_row=lo)
        bundle.mcd_logits = mcd

    if bundle.features is not None:
        feats = np.asarray(bundle.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ShapeMismatch(f"features: expected ({n}, d), got {feats.shape}")
        _check_finite(feats, "features")
        bundle.features = feats

    for name, col in bundle.externals.items():
        col = np.asarray(col, dtype=np.float64)
        if col.shape != (n,):
            raise ShapeMismatch(f"external_{name}: expected shape ({n},), got {col.shape}")
        _check_finite(col, f"external_{name}")
        bundle.externals[name] = col

    return bundle


def _exact_tag_codes(data: bytes) -> np.ndarray | None:
    """The codes of a shift.csv whose every line is exactly a tag ended by "\n", from one pass over
    its bytes; None for any other file.

    Each line's length gives its candidate tag, and each line is then compared, once, with the
    bytes of that tag and its "\n".
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if ends.size == 0 or ends[-1] != raw.size - 1:
        return None
    starts = np.r_[0, ends[:-1] + 1]
    codes = _CODE_OF_LENGTH[np.minimum(ends - starts, _CODE_OF_LENGTH.size - 1)]
    if (codes == _NO_TAG).any():
        return None
    for k, line in enumerate(_TAG_LINES):
        rows = starts[codes == k]
        # row i of the view is the len(line) bytes from byte i on, so only these lines are copied
        if rows.size and not (sliding_window_view(raw, line.size)[rows] == line).all():
            return None
    return codes


def _read_shift_tags(path: Path) -> np.ndarray:
    codes = _exact_tag_codes(path.read_bytes())
    if codes is not None:
        return codes
    # CRLF line ends, padding, blank lines, a missing last newline or no tag: line by line
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ShapeMismatch(f"shift.csv: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    lines = [line.strip() for line in lines]
    if "" in lines:
        # dropping an interior blank line would move every later tag onto the wrong row
        raise ShapeMismatch(f"shift.csv: line {lines.index('') + 1} is blank")
    # the stripped lines go to the constructor as str objects, which it compares exactly and names when unknown
    return np.array(lines, dtype=object)


def _meta_count(meta: dict, key: str, default: int | None = None) -> int:
    # bool, float and string counts are refused: coercing 4.7 or "4" to 4 loads a bundle meta does not describe
    value = meta.get(key, default)
    if type(value) is not int or value < 0:
        raise ShapeMismatch(f"meta.json: {key} must be a non-negative JSON integer, got {value!r}")
    return value


def load_bundle(path: str | Path) -> PredictionBundle:
    """Read and validate a bundle directory."""
    directory = Path(path)
    if not directory.is_dir():
        raise MissingFile(f"bundle directory {directory} not found")
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise MissingFile(f"meta.json not found in {directory}")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # invalid JSON, or bytes that are no UTF-8
        raise ShapeMismatch(f"meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise ShapeMismatch(f"meta.json must hold a JSON object, got {meta!r}")
    n, c = _meta_count(meta, "n"), _meta_count(meta, "c")
    t, d = _meta_count(meta, "t", 0), _meta_count(meta, "d", 0)
    external_names = meta.get("external", [])
    if not isinstance(external_names, list) or not all(isinstance(x, str) for x in external_names):
        raise ShapeMismatch(f"meta.json: external must be a list of names, got {external_names!r}")

    logits = _read_matrix(directory, "logits", n, c)
    labels = _read_matrix(directory, "labels", n, 1)[:, 0]
    shift_path = directory / "shift.csv"
    if not shift_path.exists():
        raise MissingFile(f"shift.csv not found in {directory}")
    tags = _read_shift_tags(shift_path)
    mcd = _read_matrix(directory, "mcd_logits", n * t, c).reshape(n, t, c) if t else None
    features = _read_matrix(directory, "features", n, d) if d else None
    # copied, so that each column's mapping, and its file descriptor, is released before the next is read
    externals = {name: _read_matrix(directory, f"external_{name}", n, 1)[:, 0].copy() for name in external_names}

    bundle = PredictionBundle(
        logits=logits,
        labels=labels,
        shift_tags=tags,
        mcd_logits=mcd,
        features=features,
        externals=externals,
    )
    return validate_bundle(bundle)


def write_bundle(bundle: PredictionBundle, path: str | Path, binary: bool = False) -> Path:
    """Serialize a bundle to a directory in the documented layout."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    t = 0 if bundle.mcd_logits is None else bundle.mcd_logits.shape[1]
    d = 0 if bundle.features is None else bundle.features.shape[1]
    meta = {
        "n": bundle.n_samples,
        "c": bundle.n_classes,
        "t": t,
        "d": d,
        "external": sorted(bundle.externals),
    }
    meta_text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    (directory / "meta.json").write_text(meta_text)

    def emit(stem: str, arr: np.ndarray) -> None:
        arr2 = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        if binary:
            _write_binary_matrix(directory / f"{stem}.f64", arr2)
        else:
            np.savetxt(directory / f"{stem}.csv", arr2, delimiter=",", fmt="%.17g")

    emit("logits", bundle.logits)
    emit("labels", bundle.labels.reshape(-1, 1))
    if bundle.mcd_logits is not None:
        emit("mcd_logits", bundle.mcd_logits.reshape(bundle.n_samples * t, bundle.n_classes))
    if bundle.features is not None:
        emit("features", bundle.features)
    for name, col in bundle.externals.items():
        emit(f"external_{name}", col.reshape(-1, 1))
    (directory / "shift.csv").write_text("\n".join(bundle.shift_tags.tolist()) + "\n")
    return directory


def failure_labels(bundle: PredictionBundle, study_kind: str = STANDARD, rows: np.ndarray | None = None) -> FailureLabels:
    """Residuals (1 = wrong prediction) plus the study's evaluation mask.

    New-class samples carry the sentinel label c and therefore always count as
    failures. Under a new-class study, misclassified IID-tagged rows are
    dismissed from the evaluation mask: the classifier cannot be blamed for
    flagging a sample it would have gotten wrong anyway. Misclassified rows
    of other inlier tags stay as failures. Accuracy reporting stays over all
    samples regardless of mask.

    rows, when given, picks the bundle rows of a study, as a boolean mask or
    as indices: the labels are those of the bundle of just those rows, read
    without copying the bundle's rows.
    """
    if study_kind not in STUDY_KINDS:
        raise ValueError(f"unknown study kind {study_kind!r}")
    sel = slice(None) if rows is None else rows
    residuals = (bundle.predicted != bundle.labels)[sel].astype(np.int8)
    eval_mask = np.ones(residuals.shape[0], dtype=bool)
    if study_kind == NEWCLASS:
        if not (bundle.labels == bundle.ood_label)[sel].any():
            raise EmptyNewClassStudy("new-class study on a bundle with no new-class samples")
        is_iid = bundle.tagged([ShiftTag.IID.value])[sel]
        eval_mask[is_iid & (residuals == 1)] = False
    return FailureLabels(residuals=residuals, eval_mask=eval_mask)
