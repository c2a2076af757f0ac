"""Confidence scoring functions over prediction bundles.

All scores share one orientation contract: higher value = more confident.
Entropy-, mutual-information- and distance-based scores are therefore stored
negated. Natural logarithm throughout, 0*ln(0) treated as 0.

Softmax arithmetic is precision-controlled so that ranking degradation from
reduced-precision storage/compute can be reproduced exactly:

    f64  native double
    f32  native single (inputs cast, every op in float32)
    f16  native half: inputs and every elementary result rounded to half
         precision (round-to-nearest-even), with a fixed left-to-right
         summation order per row

numpy computes half +, - and / in float32 and rounds once, which gives the
correctly rounded half (24 >= 2 * 11 + 2); half exp is not, so it runs in f64.

One row-blocked pass (_pass_scores) scores every softmax CSF: it reads an
(n, t, c) stack once, the logits as a stack of one pass and the MC-dropout
stack as it is, in cache-sized row blocks (about 1 MB of f64 each) on one
thread per CPU in the process's affinity mask; there is no flag or environment
variable for it. Every step works row by row and each block writes only its
own rows, so the scores are bitwise the same on any number of threads, and no
(n, c) softmax is made. A thread's block temporaries are its _scratch, reused
from block to block. These row-wise threads run before maha, whose BLAS calls
leave worker threads spinning that would slow them down.
"""

from __future__ import annotations

import mmap
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .core import _ROW_BLOCK, PredictionBundle, _check_finite, _release_pages, _rows_per_block, integer_values
from .errors import (
    ClassUnderpopulated,
    InvalidParameter,
    MissingFeatures,
    MissingMcdStack,
    NonFiniteValue,
    SingularCovariance,
    UnknownExternal,
)

F16 = "f16"
F32 = "f32"
F64 = "f64"
PRECISIONS = (F16, F32, F64)
_DTYPES = {F16: np.float16, F32: np.float32, F64: np.float64}

MSR = "msr"
PE = "pe"
MLS = "mls"
MCD_MSR = "mcd-msr"
MCD_PE = "mcd-pe"
MCD_EE = "mcd-ee"
MCD_MI = "mcd-mi"
MCD_MLS = "mcd-mls"
MAHA = "maha"
EXTERNAL_PREFIX = "ext:"
CSF_IDS = (MSR, PE, MLS, MCD_MSR, MCD_PE, MCD_EE, MCD_MI, MCD_MLS, MAHA)


@dataclass(frozen=True)
class SoftmaxConfig:
    precision: str = F64
    temperature: float = 1.0

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise InvalidParameter(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        # an infinite temperature makes every softmax row uniform; an integer beyond float range is no float
        if not 0 < self.temperature <= sys.float_info.max:
            raise InvalidParameter(f"temperature must be finite and positive, got {self.temperature}")
        object.__setattr__(self, "temperature", float(self.temperature))   # kept as the float it is read as
        with np.errstate(over="ignore"):  # softmax divides by the temperature cast to the precision
            cast = _DTYPES[self.precision](self.temperature)
        if not 0 < cast < np.inf:
            raise InvalidParameter(f"temperature {self.temperature} rounds to {cast} at precision {self.precision}")


@dataclass
class ConfidenceVector:
    csf_id: str
    scores: np.ndarray        # (n,) f64
    precision_mode: str = F64


def quantize(arr: np.ndarray, precision: str) -> np.ndarray:
    """Round array entries to the storage grid of the given precision."""
    if precision not in _DTYPES:
        raise InvalidParameter(f"unknown precision {precision!r}")
    with np.errstate(over="ignore"):  # a value beyond the precision's range rounds to inf
        return np.asarray(arr, dtype=np.float64).astype(_DTYPES[precision], copy=False).astype(np.float64, copy=False)


def softmax(logits: np.ndarray, cfg: SoftmaxConfig | None = None) -> np.ndarray:
    """Stable (max-subtracted) softmax along the last axis at cfg precision.

    Returns f64 arrays whose values lie on the configured precision grid.
    """
    return _softmax(logits, cfg or SoftmaxConfig())


def _softmax(logits: np.ndarray, cfg: SoftmaxConfig, out: np.ndarray | None = None) -> np.ndarray:
    """softmax at a given cfg, written into out, an f64 array of the logits' shape, when given. Worker
    threads call this name: fdbench's tracer replaces softmax with a wrapper that keeps one unlocked
    span stack."""
    dtype = _DTYPES[cfg.precision]
    logits = np.asarray(logits, dtype=np.float64)
    if out is None:
        out = np.empty(logits.shape)
    # a logit beyond the precision's range casts to inf, as does one divided by a tiny
    # temperature, and inf - inf gives a NaN probability; callers report its row, so
    # numpy need not warn about it first (SoftmaxConfig keeps the cast temperature nonzero)
    with np.errstate(over="ignore", invalid="ignore"):
        # x is out at f64, else a scratch array of the precision; the steps below work on it in place
        if dtype is np.float64:
            x = np.divide(logits, dtype(cfg.temperature), out=out)
        else:
            x = _scratch("softmax", logits.shape, dtype)
            x[...] = logits
            x /= dtype(cfg.temperature)
        x -= np.max(x, axis=-1, keepdims=True)
        if dtype is np.float16:
            # half exp is not correctly rounded, so it runs in f64, into out; accumulate rounds
            # each partial sum to half, left to right, where np.sum would carry f32; the exps are
            # back in x by then, so the prefix sums take out's bytes, and their last column is copied
            np.exp(x, dtype=np.float64, out=out)
            x[...] = out
            prefix = out.reshape(-1).view(np.float16)[:x.size].reshape(x.shape)
            total = np.add.accumulate(x, axis=-1, out=prefix)[..., -1:].copy()
        else:
            np.exp(x, out=x)
            total = np.sum(x, axis=-1, keepdims=True)
        x /= total
        if x is not out:
            out[...] = x
        return out


def _nan_free(scores: np.ndarray, what: str, logits: np.ndarray, cfg: SoftmaxConfig) -> np.ndarray:
    """scores, unless one is NaN: a NaN has no rank, so the error names its first row.

    logits are the rows the scores were softmaxed from at cfg. Where that row's logits are finite
    at cfg's precision, only dividing them by the temperature can have overflowed, so the error
    names the temperature.
    """
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        row = int(nan[0])
        if np.isfinite(quantize(logits[row], cfg.precision)).all():
            raise InvalidParameter(f"temperature {cfg.temperature} overflows the {cfg.precision} logits "
                                   f"of row {row}, leaving {what} NaN")
        raise NonFiniteValue(f"{what}: NaN score at row {row}")
    return scores


def _entropy(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rowwise -sum p ln p along the last axis, 0 ln 0 = 0, written into out when given.

    Callers pass one _map_rows block, whose temporaries come from the worker's _scratch.
    """
    dtype = np.result_type(p, 1.0)
    # p, with 1 where p is not positive: p * ln(1) is then +0.0 where p == 0, and NaN where p is
    positive = np.greater(p, 0, out=_scratch("positive", p.shape, bool))
    plogp = _scratch("plogp", p.shape, dtype)
    plogp.fill(1.0)
    np.copyto(plogp, p, where=positive)
    np.log(plogp, out=plogp)
    plogp *= p
    out = np.sum(plogp, axis=-1, out=out)
    return np.negative(out, out=out)


def fit_mahalanobis(train_features: np.ndarray, train_labels: np.ndarray, ridge: float | None = None):
    """Class means plus shared covariance of class-centered features.

    ridge=None uses 1e-6 * trace(cov) / dim; pass an absolute value when the
    features are degenerate enough that the trace itself vanishes.
    """
    feats = np.asarray(train_features, dtype=np.float64)
    labels = np.asarray(train_labels).reshape(-1)
    if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
        raise InvalidParameter(f"maha: features {feats.shape} and labels {labels.shape} do not align")
    labels = integer_values(labels, -2.0**63, 2.0**63, "maha: labels must be integers within int64")
    if feats.shape[1] == 0:
        raise InvalidParameter("maha: features have zero width")
    class_ids, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if class_ids.size < 1:
        raise ClassUnderpopulated("maha: no training rows")
    if counts.min() < 2:
        k = int(np.argmax(counts < 2))
        raise ClassUnderpopulated(f"maha: class {class_ids[k]} has {counts[k]} rows, need at least 2")
    # each class's rows gathered on their own, in their original order, so that every mean adds
    # the same rows in the same order as a mask would (np.add.reduceat does not)
    order = np.argsort(inverse, kind="stable")
    means = np.empty((class_ids.size, feats.shape[1]))
    ends = np.cumsum(counts)
    for k, (lo, hi) in enumerate(zip(ends - counts, ends)):
        np.add.reduce(feats[order[lo:hi]], axis=0, out=means[k])
    means /= counts[:, None]
    centered = means[inverse]
    np.subtract(feats, centered, out=centered)
    cov = centered.T @ centered / feats.shape[0]
    lam = 1e-6 * np.trace(cov) / feats.shape[1] if ridge is None else float(ridge)
    cov = cov + lam * np.eye(feats.shape[1])
    if not np.isfinite(cov).all():  # NaN/inf features, or an overflowed covariance
        raise NonFiniteValue("maha: covariance has non-finite entries")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"maha: covariance not positive definite (ridge {lam:g}): {exc}") from exc
    return MahaModel(class_ids=class_ids, means=means, chol_lower=chol, ridge=lam)


@dataclass
class MahaModel:
    class_ids: np.ndarray     # (k,)
    means: np.ndarray         # (k, d)
    chol_lower: np.ndarray    # (d, d), L with L L^T = cov + ridge I
    ridge: float


# Relative margin of the candidate pick. The expanded distance of row i to
# class c differs from the difference form by cancellation and whitening
# error, measured at about u * cond(L) * (|z_i|^2 + max_c |m_c|^2), u = 1.1e-16.
# The default ridge bounds cond(cov) by 1 + 1e6 * d, so cond(L) <= 1.6e4 at
# d = 256; with rank-1 features, which reach that bound, the error of the
# inverse-factor whitening measured at most 1.6e-12 of the scale at d = 256
# and 2.5e-12 at d = 1024 (2000 rows, 50 classes, three seeds). 1e-8 leaves
# more than three orders of magnitude, and the pick then holds the argmin of
# the difference form.
_MAHA_MARGIN = 1e-8
# Fewest output values of a _whiten product: OpenBLAS (0.3.31, x86-64) sends a product of at most 1200
# through its small-matrix kernels, which give a row other bits than a larger product does.
_MIN_PRODUCT = 1 << 11


def _workers() -> int:
    """Threads of _map_rows: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pass = threading.local()   # arrays: the scratch of the _map_rows worker running on this thread


def _scratch(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of shape and dtype. In a _map_rows worker it is that worker's array of this
    name, trailing shape and dtype, made at its first block and reused by every later one, which has at
    most as many rows: an anonymous mapping, not a malloc block, so its pages go back when the pass
    ends, whatever malloc's thresholds. Elsewhere it is a new array."""
    arrays = getattr(_pass, "arrays", None)
    if arrays is None:
        return np.empty(shape, dtype)
    key = (name, shape[1:], np.dtype(dtype))
    held = arrays.get(key)
    if held is None or held.shape[0] < shape[0]:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        held = np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape) if nbytes else np.empty(shape, dtype)
        arrays[key] = held
    return held[:shape[0]]


def _map_rows(fn, n: int, width: int) -> None:
    """Call fn(lo, hi) for each block of rows of range(n), _ROW_BLOCK // width rows a block, on _workers() threads.

    fn must write rows lo:hi of preallocated outputs from rows lo:hi of its inputs, so the bytes do
    not depend on which thread runs a block. Worker k of w takes blocks k, k + w, ...; this thread is
    worker 0, and no thread starts for a single block. Each worker's temporaries come from its
    _scratch, which it drops when it stops. numpy's error state is per thread, so each worker takes
    the caller's. Once every worker has stopped, the first error, by worker, is raised.
    """
    step = _rows_per_block(width, _ROW_BLOCK)
    starts = range(0, n, step)
    workers = max(1, min(_workers(), len(starts)))
    errstate, errors = np.geterr(), [None] * workers

    def work(k: int) -> None:
        _pass.arrays = {}
        try:
            with np.errstate(**errstate):
                for lo in starts[k::workers]:
                    fn(lo, min(lo + step, n))
        except BaseException as exc:   # raised in the caller, below
            errors[k] = exc
        finally:
            del _pass.arrays

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _whiten(rows: np.ndarray, inv_chol: np.ndarray) -> np.ndarray:
    """L^-1 x for every row x, as one GEMM that gives each row the bits it has in any other product.

    inv_chol is L^-1 with zero rows appended up to a multiple of 8 rows, and rows are padded with zero
    rows up to two rows and _MIN_PRODUCT output values. Without this, OpenBLAS gives a row other bits
    in a one-row product (numpy sends it to gemv), in its small-matrix kernels and, at larger d, in the
    last d mod 8 columns, where they depend on the product's other rows. Returns a view, rows x d.
    """
    count = rows.shape[0]
    least = max(2, -(-_MIN_PRODUCT // inv_chol.shape[0]))
    if count < least:
        rows = np.concatenate([rows, np.zeros((least - count, rows.shape[1]))])
    return (rows @ inv_chol.T)[:count, :inv_chol.shape[1]]


def score_mahalanobis(model: MahaModel, features: np.ndarray) -> ConfidenceVector:
    """Negated minimum squared Mahalanobis distance to any class mean.

    With L the Cholesky factor and c the mean of the class means, the means are whitened by the
    inverse factor (m = L^-1 (mu - c)). One pass on this thread then takes the features in blocks of
    _ROW_BLOCK // max(d, k) rows: it checks a block's values, whitens its rows (z = L^-1 (x - c)), and
    one GEMM gives their expanded distances |z|^2 - 2 z.m + |m|^2. Every class within _MAHA_MARGIN of
    a row's smallest is a candidate, and the score is the minimum of the difference form
    |L^-1 (x - mu_c)|^2 over the candidates, so the cancellation of the expansion never reaches the
    result. The block's pages then go back (core._release_pages).

    The candidates always hold the class of the smallest difference form, so its GEMMs alone set the
    scores' bits, and _whiten gives a row the same bits in any block.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.means.shape[1]:
        raise InvalidParameter(f"features {feats.shape} do not match model dim {model.means.shape[1]}")
    n, dim = feats.shape
    inv_chol = np.zeros((-(-dim // 8) * 8, dim))   # L^-1 with _whiten's zero rows
    inv_chol[:dim] = np.linalg.inv(model.chol_lower)
    # centering keeps a common feature offset out of |z|^2 and so out of the
    # margin; the distances do not change
    center = model.means.mean(axis=0)
    m = _whiten(model.means - center, inv_chol)
    mm = np.einsum("ij,ij->i", m, m)
    top = mm.max()

    best = np.full(n, np.inf)
    step = _rows_per_block(max(dim, m.shape[0]), _ROW_BLOCK)
    pairs_step = _rows_per_block(dim, _ROW_BLOCK)
    for lo in range(0, n, step):
        block = feats[lo:lo + step]
        _check_finite(block, "features", lo)
        z = _whiten(block - center, inv_chol)
        zz = np.einsum("ij,ij->i", z, z)
        dist = z @ m.T
        dist *= -2.0
        dist += zz[:, None]
        dist += mm
        low = dist.min(axis=1)
        near = dist <= (low + _MAHA_MARGIN * (zz + top))[:, None]
        # an overflowed expansion (inf, or inf - inf) ranks nothing: refine every class
        near[~np.isfinite(low)] = True
        rows, classes = np.nonzero(near)
        del z, dist, near   # before the refinement's arrays are made
        for at in range(0, rows.size, pairs_step):
            r, c = rows[at:at + pairs_step], classes[at:at + pairs_step]
            diff = block[r]   # x - mu_c in the gathered rows
            diff -= model.means[c]
            w = _whiten(diff, inv_chol)
            np.minimum.at(best, r + lo, np.einsum("ij,ij->i", w, w))
        # nothing reads these rows again, so a mapped file's pages go back now
        _release_pages(block)
    return ConfidenceVector(csf_id=MAHA, scores=-best + 0.0, precision_mode=F64)


class CsfScores(dict):
    """CSF id -> ConfidenceVector over all bundle rows, scored at cfg.

    terms, if kept, maps nll and brier to their per-row terms (likelihood_terms) of the logits
    softmax, NaN on new-class rows.
    """

    cfg: SoftmaxConfig = SoftmaxConfig()
    terms: dict[str, np.ndarray] | None = None


_LABELS_FOR_TERMS = "labels must be integers in [0, {c}) for likelihood metrics"


def likelihood_terms(p: np.ndarray, labels: np.ndarray, metrics=("nll", "brier")) -> dict[str, np.ndarray]:
    """The per-row terms that nll and brier, among metrics, reduce: row i's true-class probability
    p[i, labels[i]] for nll, and sum_j (p[i, j] - onehot(labels[i])_j)^2 for brier.

    A label that is not an integer in [0, c) raises LabelOutOfRange naming its row (core.integer_values).
    The brier terms are taken in p, which is overwritten: 1 is subtracted at each label, then p is
    squared in place and summed by row, so no second array of p's shape is made.
    """
    labels = integer_values(labels, 0, p.shape[1], _LABELS_FOR_TERMS.format(c=p.shape[1]))
    rows = np.arange(p.shape[0])
    terms = {}
    if "nll" in metrics:
        terms["nll"] = p[rows, labels]
    if "brier" in metrics:
        p[rows, labels] -= 1.0
        terms["brier"] = np.sum(np.square(p, out=p), axis=1)
    return terms


def _pass_scores(stack: np.ndarray, cfg: SoftmaxConfig, wanted, labels=None) -> dict[str, np.ndarray]:
    """The wanted statistics of each row of an (n, t, c) stack of t passes' logits, from one read of it in
    row blocks: max and entropy of the mean softmax over passes, expected_entropy (the mean of the passes'
    entropies) and mls (the max of the mean logits); given labels, checked whole by the caller, also the
    nll and brier terms of the mean softmax (likelihood_terms). The logits are a stack of one pass, whose
    mean is a view of it: no copy, and the bits of one softmax of the logits. Every step works row by
    row, so a block gives the bits of the whole stack, and each block gives its pages back once read
    (core._release_pages)."""
    n, t, c = stack.shape
    out = {name: np.empty(n) for name in wanted}
    if labels is not None:
        out.update(nll=np.empty(n), brier=np.empty(n))
    if not out:
        return out

    def mean(rows: np.ndarray, name: str) -> np.ndarray:
        return rows[:, 0] if t == 1 else np.mean(rows, axis=1, out=_scratch(name, (rows.shape[0], c)))

    def block(lo: int, hi: int) -> None:
        rows = stack[lo:hi]
        if "mls" in out:
            np.max(mean(rows, "mean_logits"), axis=-1, out=out["mls"][lo:hi])
        if out.keys() - {"mls"}:
            p = _softmax(rows, cfg, out=_scratch("p", rows.shape))
            if "expected_entropy" in out:
                np.mean(_entropy(p), axis=-1, out=out["expected_entropy"][lo:hi])
            mean_p = mean(p, "mean_p")
            if "max" in out:
                np.max(mean_p, axis=-1, out=out["max"][lo:hi])
            if "entropy" in out:
                _entropy(mean_p, out=out["entropy"][lo:hi])
            if labels is not None:   # last: the brier terms overwrite mean_p
                for name, vec in likelihood_terms(mean_p, labels[lo:hi]).items():
                    out[name][lo:hi] = vec
        # nothing reads these rows of a mapped stack again in this pass, so their pages go back now
        _release_pages(rows)

    _map_rows(block, n, t * c)
    return out


# each softmax CSF: (its stack, the _pass_scores statistics it reads, two giving their difference,
# negated, precision mode: None for the softmax's; mls and mcd-mls are maxima of the f64 logits)
_PASS_CSFS = {
    MSR: ("logits", ("max",), False, None),
    PE: ("logits", ("entropy",), True, None),
    MLS: ("logits", ("mls",), False, F64),
    MCD_MSR: ("mcd_logits", ("max",), False, None),
    MCD_PE: ("mcd_logits", ("entropy",), True, None),
    MCD_EE: ("mcd_logits", ("expected_entropy",), True, None),
    MCD_MI: ("mcd_logits", ("entropy", "expected_entropy"), True, None),   # predictive minus expected entropy
    MCD_MLS: ("mcd_logits", ("mls",), False, F64),
}


def compute_csfs(bundle: PredictionBundle, csf_ids, cfg: SoftmaxConfig | None = None, keep_terms: bool = False) -> CsfScores:
    """Evaluate each confidence scoring function over all bundle rows, sharing work between CSFs.

    One row-blocked pass (_pass_scores) over each stack feeds every softmax CSF (_PASS_CSFS): over the
    logits, msr, pe, mls and, with keep_terms, the per-row terms of nll and brier (likelihood_terms),
    which the result holds as terms, NaN on new-class rows; over the MC-dropout stack, every mcd- CSF.
    No (n, c) softmax is made. maha is fitted once, on the inlier-labeled rows, and scored last. The
    result records cfg, the softmax configuration it was scored at.
    """
    cfg = cfg or SoftmaxConfig()
    inlier = bundle.labels != bundle.ood_label
    labels = None
    if keep_terms:
        # a new-class row's class 0 stands in for its label, and its terms are then NaN
        c = bundle.logits.shape[1]
        labels = integer_values(np.where(inlier, bundle.labels, 0), 0, c, _LABELS_FOR_TERMS.format(c=c))
    wanted = {"logits": set(), "mcd_logits": set()}
    for stack, names, *_ in (_PASS_CSFS[csf_id] for csf_id in csf_ids if csf_id in _PASS_CSFS):
        wanted[stack].update(names)
    stacks = {"logits": bundle.logits[:, None], "mcd_logits": bundle.mcd_logits}
    stats = {stack: _pass_scores(stacks[stack], cfg, names, labels if stack == "logits" else None)
             for stack, names in wanted.items() if stacks[stack] is not None}

    out = CsfScores()
    out.cfg = cfg
    for csf_id in csf_ids:
        if csf_id.startswith(EXTERNAL_PREFIX):
            name = csf_id[len(EXTERNAL_PREFIX):]
            if name not in bundle.externals:
                raise UnknownExternal(f"external score {name!r} not in bundle (has {sorted(bundle.externals)})")
            out[csf_id] = ConfidenceVector(csf_id=csf_id, scores=bundle.externals[name].copy(), precision_mode=F64)
        elif csf_id == MAHA:
            if bundle.features is None:
                raise MissingFeatures("maha requires bundle features")
            out[csf_id] = None   # scored below, keeping its place in the order
        elif csf_id in _PASS_CSFS:
            stack, names, negated, precision = _PASS_CSFS[csf_id]
            if stack not in stats:
                raise MissingMcdStack(f"{csf_id} requires the mcd_logits stack")
            first, *rest = (stats[stack][name] for name in names)
            scores = first - rest[0] if rest else first
            scores = -scores if negated else scores
            out[csf_id] = ConfidenceVector(csf_id=csf_id, scores=_nan_free(scores, csf_id, stacks[stack], cfg),
                                           precision_mode=precision or cfg.precision)
        else:
            raise InvalidParameter(f"unknown CSF {csf_id!r}")
    if labels is not None:
        # two n-vectors held for the run in place of an (n, c) softmax
        out.terms = {name: stats["logits"][name] for name in ("nll", "brier")}
        for vec in out.terms.values():
            vec[~inlier] = np.nan
    # maha last: its GEMMs leave BLAS threads spinning, which slowed an MC pass started right after
    # one from 28 to 49 ms
    if MAHA in out:
        # one fit, so a row has one maha score in every study
        model = fit_mahalanobis(bundle.features[inlier], bundle.labels[inlier])
        out[MAHA] = score_mahalanobis(model, bundle.features)
    return out


def compute_csf(bundle: PredictionBundle, csf_id: str, cfg: SoftmaxConfig | None = None) -> ConfidenceVector:
    """Evaluate one confidence scoring function over all bundle rows."""
    return compute_csfs(bundle, [csf_id], cfg)[csf_id]
