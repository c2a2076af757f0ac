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

The MC-dropout pass runs over cache-sized row blocks (about 1 MB of f64 each)
on one thread per CPU in the process's affinity mask; there is no flag or
environment variable for it. Every step works row by row and each block writes
only its own rows, so the scores are bitwise the same on any number of
threads. These row-wise threads run before maha, whose BLAS calls leave
worker threads spinning that would slow them down.
"""

from __future__ import annotations

import os
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
        if not 0 < self.temperature < np.inf:  # an infinite one makes every softmax row uniform
            raise InvalidParameter(f"temperature must be finite and positive, got {self.temperature}")
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


def _softmax(logits: np.ndarray, cfg: SoftmaxConfig) -> np.ndarray:
    """softmax at a given cfg. Worker threads call this name: fdbench's tracer replaces softmax with
    a wrapper that keeps one unlocked span stack."""
    dtype = _DTYPES[cfg.precision]
    # a logit beyond the precision's range casts to inf, as does one divided by a tiny
    # temperature, and inf - inf gives a NaN probability; callers report its row, so
    # numpy need not warn about it first (SoftmaxConfig keeps the cast temperature nonzero)
    with np.errstate(over="ignore", invalid="ignore"):
        # the division makes x a new array, so the steps below work on it in place
        x = np.asarray(logits, dtype=np.float64).astype(dtype, copy=False) / dtype(cfg.temperature)
        x -= np.max(x, axis=-1, keepdims=True)
        if dtype is np.float16:
            # half exp is not correctly rounded, so it runs in f64; accumulate rounds
            # each partial sum to half, left to right, where np.sum would carry f32;
            # its last column is copied, so the (n, c) prefix sums are freed at once
            x[...] = np.exp(x, dtype=np.float64)
            total = np.add.accumulate(x, axis=-1)[..., -1:].copy()
        else:
            np.exp(x, out=x)
            total = np.sum(x, axis=-1, keepdims=True)
        x /= total
        return x.astype(np.float64, copy=False)


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


def _entropy(p: np.ndarray) -> np.ndarray:
    """Rowwise -sum p ln p along the last axis, 0 ln 0 = 0.

    p is read in blocks of _ROW_BLOCK elements along its first axis, on the
    calling thread, so the temporaries are a block's size, not p's. Each row is
    summed on its own, so the bits do not depend on the blocks.
    """
    out = np.empty(p.shape[:-1], dtype=np.result_type(p, 1.0))
    step = _rows_per_block(p[:1].size, _ROW_BLOCK)
    for lo in range(0, p.shape[0], step):
        block = p[lo:lo + step]
        # p * ln(1) is already +0.0 where p == 0
        plogp = np.where(block > 0, block, 1.0)
        np.log(plogp, out=plogp)
        plogp *= block
        np.sum(plogp, axis=-1, out=out[lo:lo + step])
        del plogp   # before the next block's is made
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
    # each class's rows as one contiguous slice, in their original order, so that every mean adds
    # the same rows in the same order as a mask would (np.add.reduceat does not)
    grouped = feats[np.argsort(inverse, kind="stable")]
    means = np.empty((class_ids.size, feats.shape[1]))
    ends = np.cumsum(counts)
    for k, (lo, hi) in enumerate(zip(ends - counts, ends)):
        np.add.reduce(grouped[lo:hi], axis=0, out=means[k])
    del grouped
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


# f64 elements per block: rows x classes of maha's expanded distances, or (row,
# class) pairs x dim of its refined differences; 2**20 elements keep a block at
# 8 MB. The block sets the row count of each GEMM, and with it OpenBLAS's kernel
# and so the bits, so it stays.
_BLOCK = 1 << 20
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


def _workers() -> int:
    """Threads of _map_rows: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_rows(fn, n: int, width: int) -> None:
    """Call fn(lo, hi) for each block of rows of range(n), _ROW_BLOCK // width rows a block, on _workers() threads.

    fn must write rows lo:hi of preallocated outputs from rows lo:hi of its inputs, so the bytes do
    not depend on which thread runs a block. Worker k of w takes blocks k, k + w, ...; this thread is
    worker 0, and no thread starts for a single block. numpy's error state is per thread, so each
    worker takes the caller's. Once every worker has stopped, the first error, by worker, is raised.
    """
    step = _rows_per_block(width, _ROW_BLOCK)
    starts = range(0, n, step)
    workers = max(1, min(_workers(), len(starts)))
    errstate, errors = np.geterr(), [None] * workers

    def work(k: int) -> None:
        try:
            with np.errstate(**errstate):
                for lo in starts[k::workers]:
                    fn(lo, min(lo + step, n))
        except BaseException as exc:   # raised in the caller, below
            errors[k] = exc

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
    """L^-1 x for every row x, as one GEMM."""
    return rows @ inv_chol.T


def score_mahalanobis(model: MahaModel, features: np.ndarray) -> ConfidenceVector:
    """Negated minimum squared Mahalanobis distance to any class mean.

    With L the Cholesky factor and c the mean of the class means, features and
    means are whitened once by the inverse factor (z = L^-1 (x - c),
    m = L^-1 (mu - c)), and one GEMM per row block gives the expanded distances
    |z|^2 - 2 z.m + |m|^2. Every class within _MAHA_MARGIN of a row's smallest
    expanded distance is a candidate, and the score is the minimum of the
    difference form |L^-1 (x - mu_c)|^2 over the candidates, so the
    cancellation of the expansion never reaches the result.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.means.shape[1]:
        raise InvalidParameter(f"features {feats.shape} do not match model dim {model.means.shape[1]}")
    _check_finite(feats, "features")
    n, dim = feats.shape
    inv_chol = np.linalg.inv(model.chol_lower)
    # centering keeps a common feature offset out of |z|^2 and so out of the
    # margin; the distances do not change
    center = model.means.mean(axis=0)
    z = _whiten(feats - center, inv_chol)
    m = _whiten(model.means - center, inv_chol)
    zz = np.einsum("ij,ij->i", z, z)
    mm = np.einsum("ij,ij->i", m, m)
    margin = _MAHA_MARGIN * (zz + mm.max())

    rows, classes = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # n = 0 concatenates too
    step = _rows_per_block(model.means.shape[0], _BLOCK)
    for lo in range(0, n, step):
        block = z[lo:lo + step] @ m.T
        block *= -2.0
        block += zz[lo:lo + step, None]
        block += mm
        low = block.min(axis=1)
        near = block <= (low + margin[lo:lo + step])[:, None]
        # an overflowed expansion (inf, or inf - inf) ranks nothing: refine every class
        near[~np.isfinite(low)] = True
        r, c = np.nonzero(near)
        rows.append(r + lo)
        classes.append(c)
    rows, classes = np.concatenate(rows), np.concatenate(classes)

    best = np.full(n, np.inf)
    step = _rows_per_block(dim, _BLOCK)
    for lo in range(0, rows.size, step):
        r, c = rows[lo:lo + step], classes[lo:lo + step]
        w = _whiten(feats[r] - model.means[c], inv_chol)
        np.minimum.at(best, r, np.einsum("ij,ij->i", w, w))
    return ConfidenceVector(csf_id=MAHA, scores=-best + 0.0, precision_mode=F64)


class CsfScores(dict):
    """CSF id -> ConfidenceVector over all bundle rows, scored at cfg.

    terms, if kept, maps nll and brier to their per-row terms (likelihood_terms) of the logits
    softmax, NaN on new-class rows.
    """

    cfg: SoftmaxConfig = SoftmaxConfig()
    terms: dict[str, np.ndarray] | None = None


def likelihood_terms(p: np.ndarray, labels: np.ndarray, metrics=("nll", "brier")) -> dict[str, np.ndarray]:
    """The per-row terms that nll and brier, among metrics, reduce: row i's true-class probability
    p[i, labels[i]] for nll, and sum_j (p[i, j] - onehot(labels[i])_j)^2 for brier.

    A label that is not an integer in [0, c) raises LabelOutOfRange naming its row (core.integer_values).
    The brier terms are taken in p, which is overwritten: 1 is subtracted at each label, then p is
    squared in place and summed by row, so no second (n, c) array is made.
    """
    labels = integer_values(labels, 0, p.shape[1], f"labels must be integers in [0, {p.shape[1]}) for likelihood metrics")
    rows = np.arange(p.shape[0])
    terms = {}
    if "nll" in metrics:
        terms["nll"] = p[rows, labels]
    if "brier" in metrics:
        p[rows, labels] -= 1.0
        terms["brier"] = np.sum(np.square(p, out=p), axis=1)
    return terms


def _mc_scores(stack: np.ndarray, cfg: SoftmaxConfig, csf_ids) -> dict[str, np.ndarray]:
    """The MC-dropout scores among csf_ids, from one read of the (n, t, c) stack in row blocks.

    Per block: the softmax of every pass, their mean over passes, the entropies of both, and the
    logits' mean over passes for mcd-mls. Every step works row by row, so a block gives the bits of
    the whole stack, and only a block's temporaries are held per thread. A block of a stack mapped
    from a .f64 file releases its pages once read (core._release_pages).
    """
    n, t, c = stack.shape
    wanted = {MCD_MSR, MCD_PE, MCD_EE, MCD_MI, MCD_MLS}.intersection(csf_ids)
    if not wanted:
        return {}
    msr = np.empty(n) if MCD_MSR in wanted else None
    expected_entropy = np.empty(n) if not {MCD_EE, MCD_MI}.isdisjoint(wanted) else None
    predictive_entropy = np.empty(n) if not {MCD_PE, MCD_MI}.isdisjoint(wanted) else None
    mls = np.empty(n) if MCD_MLS in wanted else None

    def block(lo: int, hi: int) -> None:
        rows = stack[lo:hi]
        if mls is not None:
            np.max(np.mean(rows, axis=1), axis=-1, out=mls[lo:hi])
        if wanted != {MCD_MLS}:
            p_mc = _softmax(rows, cfg)
            if expected_entropy is not None:
                np.mean(_entropy(p_mc), axis=-1, out=expected_entropy[lo:hi])
            mean_p = np.mean(p_mc, axis=1)
            del p_mc
            if msr is not None:
                np.max(mean_p, axis=-1, out=msr[lo:hi])
            if predictive_entropy is not None:
                predictive_entropy[lo:hi] = _entropy(mean_p)
        # nothing reads these rows of a mapped stack again, so their pages go back now
        _release_pages(rows)

    _map_rows(block, n, t * c)
    formulas = {
        MCD_MSR: lambda: msr,
        MCD_PE: lambda: -predictive_entropy,
        MCD_EE: lambda: -expected_entropy,
        MCD_MI: lambda: -(predictive_entropy - expected_entropy),  # predictive minus expected entropy, negated
        MCD_MLS: lambda: mls,
    }
    return {csf_id: formulas[csf_id]() for csf_id in wanted}


def compute_csfs(bundle: PredictionBundle, csf_ids, cfg: SoftmaxConfig | None = None, keep_terms: bool = False) -> CsfScores:
    """Evaluate each confidence scoring function over all bundle rows, sharing work between CSFs.

    One logits softmax feeds msr and pe; pe's entropy reads it in row blocks on this thread, so pe
    makes no (n, c) temporary. With keep_terms, once the CSFs have read the softmax, it is reduced
    in place to the per-row terms of nll and brier (likelihood_terms), which the result holds as
    terms, NaN on new-class rows; the softmax itself is freed before maha. One row-blocked pass over
    the MC-dropout stack feeds every mcd- CSF. maha is fitted once, on the inlier-labeled rows, and
    scored last. The result records cfg, the softmax configuration it was scored at.
    """
    cfg = cfg or SoftmaxConfig()
    p = softmax(bundle.logits, cfg) if keep_terms or not {MSR, PE}.isdisjoint(csf_ids) else None
    mc = {} if bundle.mcd_logits is None else _mc_scores(bundle.mcd_logits, cfg, csf_ids)
    formulas = {
        MSR: lambda: np.max(p, axis=-1),
        PE: lambda: -_entropy(p),
        MLS: lambda: np.max(bundle.logits, axis=-1),
    }

    out = CsfScores()
    out.cfg = cfg
    for csf_id in csf_ids:
        if csf_id.startswith(EXTERNAL_PREFIX):
            name = csf_id[len(EXTERNAL_PREFIX):]
            if name not in bundle.externals:
                raise UnknownExternal(f"external score {name!r} not in bundle (has {sorted(bundle.externals)})")
            out[csf_id] = ConfidenceVector(csf_id=csf_id, scores=bundle.externals[name].copy(), precision_mode=F64)
        elif csf_id not in CSF_IDS:
            raise InvalidParameter(f"unknown CSF {csf_id!r}")
        elif csf_id == MAHA:
            if bundle.features is None:
                raise MissingFeatures("maha requires bundle features")
            out[csf_id] = None   # scored below, keeping its place in the order
        elif csf_id.startswith("mcd-") and bundle.mcd_logits is None:
            raise MissingMcdStack(f"{csf_id} requires the mcd_logits stack")
        else:
            logits = bundle.mcd_logits if csf_id.startswith("mcd-") else bundle.logits
            scores = _nan_free(mc[csf_id] if csf_id in mc else formulas[csf_id](), csf_id, logits, cfg)
            # mls and mcd-mls are maxima of the f64 logits; no softmax, so no reduced precision
            precision = F64 if csf_id in (MLS, MCD_MLS) else cfg.precision
            out[csf_id] = ConfidenceVector(csf_id=csf_id, scores=scores, precision_mode=precision)
    inlier = bundle.labels != bundle.ood_label
    if keep_terms:
        # two n-vectors held for the run in place of the (n, c) softmax; a new-class row's class 0
        # stands in for its label, and its terms are then NaN
        out.terms = likelihood_terms(p, np.where(inlier, bundle.labels, 0))
        for terms in out.terms.values():
            terms[~inlier] = np.nan
    # maha last: its temporaries then do not stack on the softmax's, and its GEMMs leave BLAS
    # threads spinning, which slowed an MC pass started right after one from 28 to 49 ms
    del p, formulas
    if MAHA in out:
        # one fit, so a row has one maha score in every study
        model = fit_mahalanobis(bundle.features[inlier], bundle.labels[inlier])
        out[MAHA] = score_mahalanobis(model, bundle.features)
    return out


def compute_csf(bundle: PredictionBundle, csf_id: str, cfg: SoftmaxConfig | None = None) -> ConfidenceVector:
    """Evaluate one confidence scoring function over all bundle rows."""
    return compute_csfs(bundle, [csf_id], cfg)[csf_id]
