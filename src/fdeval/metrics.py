"""Ranking and proper-score metrics for failure detection.

The risk-coverage machinery follows one fixed sweep semantics: samples are
dropped in ascending confidence order (ties broken by sample index, so the
sweep is deterministic), a curve point is recorded when the sweep enters a new
confidence value, and a terminal zero-coverage point repeats the last recorded
risk whenever a trailing tie group leaves unrecorded weight. AURC integrates
the recorded points with trapezoids weighted by the coverage mass each point
absorbed. The companion oracle module re-implements the same sweep point by
point; the two must agree to 1e-12.

Every ranking metric is a statistic of that one sweep. `_Sweep` sorts the
confidences once, cuts them into tie groups and carries the residuals in sweep
order; SWEEP_METRICS, which every caller reads, states each metric once as a
read of a sweep. The optimal curve behind E-AURC needs no sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FailureLabels, integer_values
from .errors import DegenerateLabels, EmptyEvaluationSet, ShapeMismatch
from .scores import ConfidenceVector, _scratch, likelihood_terms


@dataclass
class RiskCoverageCurve:
    coverages: np.ndarray   # strictly decreasing, starts at 1.0
    risks: np.ndarray       # selective risk at each recorded coverage
    weights: np.ndarray     # trapezoid masses, len(risks) - 1, summing to <= 1


def _conf_array(scores) -> np.ndarray:
    if isinstance(scores, ConfidenceVector):
        return np.asarray(scores.scores, dtype=np.float64)
    return np.asarray(scores, dtype=np.float64).reshape(-1)


def _residuals_and_mask(failure) -> tuple[np.ndarray, np.ndarray | None]:
    """The residuals, each 0 or 1, as int64, and the evaluation mask, None (all rows) for a bare array."""
    res, mask = (failure.residuals, failure.eval_mask) if isinstance(failure, FailureLabels) else (failure, None)
    res = integer_values(np.asarray(res).reshape(-1), 0, 2, "residuals must be 0 or 1")
    return res, None if mask is None else mask.astype(bool)


def _masked(scores, failure) -> tuple[np.ndarray, np.ndarray]:
    """The evaluated confidences and residuals; for bare residuals, the arrays as given, not copies."""
    conf = _conf_array(scores)
    res, mask = _residuals_and_mask(failure)
    if conf.shape != res.shape:
        raise ShapeMismatch(f"scores {conf.shape} and residuals {res.shape} do not align")
    if mask is not None:
        conf, res = conf[mask], res[mask]
    if conf.shape[0] == 0:
        raise EmptyEvaluationSet("no samples left after masking")
    return conf, res


def _words(name: str, n: int, dtype=np.int64) -> np.ndarray:
    """n 8-byte words of scratch, as int64 or float64: inside run_study the study's held array of that
    name (scores._scratch), else a new one.

    Each holds data only until the next call that writes it, and a call that holds data in one calls
    nothing that writes it. The words are written by:
        w1  _Sweep, _curve, aurc, _Sweep.counts, .auroc and .ap, the SVG path (reporting._path), platt_fit
        w2  _Sweep, _curve, _Sweep.ap, the SVG path, platt_fit, platt_apply, ece
        w3  run_study (a CSF's evaluated confidences), _Sweep.counts (its per-group counts)
        w4  platt_fit, platt_apply, ece
        w5  platt_fit, platt_apply
    and the flags b0 and b1 (_flags) by _Sweep, _Sweep.counts, _optimal_aurc, platt_fit and platt_apply.
    """
    return _scratch(name, (n,), np.int64).view(dtype)


def _flags(name: str, n: int) -> np.ndarray:
    """n booleans of scratch, as _words gives words."""
    return _scratch(name, (n,), bool)


_GATHER_BLOCK = 1 << 13


def _compress(mask: np.ndarray, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[mask], written into the start of out and returned as that part of it. It is gathered a
    block at a time, so no temporary is as long as values, where np.compress buffers its whole result."""
    at = 0
    for lo in range(0, mask.shape[0], _GATHER_BLOCK):
        part = values[lo:lo + _GATHER_BLOCK][mask[lo:lo + _GATHER_BLOCK]]
        out[at:at + part.shape[0]] = part
        at += part.shape[0]
    return out[:at]


def _curve(res: np.ndarray, starts: np.ndarray) -> RiskCoverageCurve:
    """Risk-coverage curve of residuals in sweep order, tie groups starting at starts.

    Its steps run in the words w1 and w2; the three arrays of the curve are the only new ones.
    """
    n = res.shape[0]
    total = int(res.sum())
    if n == 1:
        return RiskCoverageCurve(
            coverages=np.array([1.0]),
            risks=np.array([total / n]),
            weights=np.zeros(0),
        )
    # a point is recorded after dropping the first row of each tie group,
    # except a group that starts at the last row; starts ascend, so those are a prefix
    k = int(np.searchsorted(starts, n - 1))
    idxs = starts[:k]
    trailing = (n - 2) - int(idxs[-1])
    size = k + 1 + (trailing > 0)
    coverages, risks, weights = np.empty(size), np.empty(size), np.empty(size - 1)
    coverages[0], risks[0] = 1.0, total / n
    # errors remaining after dropping samples 0..i of the sweep
    dropped = _words("w1", n)[: n - 1]
    dropped[...] = res[: n - 1]
    np.cumsum(dropped, out=dropped)
    err_after = np.take(dropped, idxs, out=_words("w2", n)[:k], mode="clip")   # "clip" writes out unbuffered
    np.subtract(total, err_after, out=err_after)
    left = np.subtract(n - 1, idxs, out=_words("w1", n)[:k])   # rows left after each recorded drop
    np.divide(left, n, out=coverages[1:k + 1])
    np.divide(err_after, left, out=risks[1:k + 1])
    # the rows each point absorbed: idxs less the idxs before it, -1 before the first
    steps = np.subtract(idxs[1:], idxs[:-1], out=_words("w1", n)[1:k])
    weights[0] = (int(idxs[0]) + 1) / n
    np.divide(steps, n, out=weights[1:k])
    if trailing > 0:
        coverages[-1], risks[-1], weights[-1] = 0.0, risks[-2], trailing / n
    return RiskCoverageCurve(coverages=coverages, risks=risks, weights=weights)


class _Sweep:
    """Confidences in ascending order, ties by index, cut into tie groups, with their residuals in that order.

    res is in sweep order, and the flags passed to counts in the row order
    of conf; the curve is built when first read. order, res, starts, sizes
    and the curve are new arrays; every other step runs in scratch words and
    flags (_words), and the counts per tie group are read from w3 until the
    next call writes it.
    """

    def __init__(self, conf: np.ndarray, res: np.ndarray):
        # numpy's default sort is several times faster than kind="stable" but
        # leaves equal values, and the NaNs it sorts last, in any order; one
        # integer sort of (run, index) keys over those rows puts each run back
        # into index order, which makes the order exactly the stable one
        order = np.argsort(conf)
        n = order.shape[0]
        c = np.take(conf, order, out=_words("w1", n, np.float64), mode="clip")   # "clip" writes out unbuffered
        same = np.equal(c[1:], c[:-1], out=_flags("b0", n)[: n - 1])
        first = _flags("b1", max(n, 1))   # the first row of each tie group; no rows are one empty group
        first[:1] = True
        np.logical_not(same, out=first[1:])
        self.starts = np.flatnonzero(first)
        self.sizes = np.empty_like(self.starts)
        np.subtract(self.starts[1:], self.starts[:-1], out=self.sizes[:-1])
        self.sizes[-1:] = n - self.starts[-1:]
        # each NaN is its own group, but the NaN tail is one run to repair
        same |= np.isnan(c[:-1], out=first[: n - 1])
        # the 0-based run of each row: the runs that ended before it
        runs = _words("w1", n)
        runs[:1] = 0
        runs[1:] = np.logical_not(same, out=first[: n - 1])
        np.cumsum(runs, out=runs)
        tied = first   # the rows of runs longer than one: same as the row after them or the row before
        tied[: n - 1] = same
        tied[n - 1:] = False
        tied[1:] |= same
        m = int(np.count_nonzero(tied))
        if m:
            keys = _compress(tied, runs, _words("w2", n))
            keys *= n
            keys += _compress(tied, order, runs)
            keys.sort()
            order[tied] = np.remainder(keys, n, out=keys)
        self.order = order
        self.res = res[order]

    def failures(self) -> np.ndarray:
        """The failures in each tie group, in the scratch word w3."""
        return self.counts(self.res, ordered=True)

    def successes(self) -> np.ndarray:
        """The successes in each tie group, its size less its failures, in the scratch word w3."""
        failures = self.failures()
        return np.subtract(self.sizes, failures, out=failures)

    @cached_property
    def curve(self) -> RiskCoverageCurve:
        return _curve(self.res, self.starts)

    def counts(self, flags: np.ndarray, ordered: bool = False) -> np.ndarray:
        """The number of set flags (or the sum of 0/1 values) in each tie group, in the scratch word w3:
        the input of auroc and ap. flags are in the row order of conf, or in sweep order if ordered."""
        n = self.order.shape[0]
        values = _words("w1", n)   # as int64, so that reduceat makes no cast copy
        values[...] = flags if ordered else np.take(flags, self.order, out=_flags("b0", n), mode="clip")
        return np.add.reduceat(values, self.starts, out=_words("w3", n)[: self.starts.shape[0]])

    def auroc(self, pos: np.ndarray) -> float:
        """Mann-Whitney AUROC with half credit per tied pair, via midranks, of pos positives per tie group."""
        n_pos = int(pos.sum())
        n_neg = self.order.shape[0] - n_pos
        if n_pos == 0 or n_neg == 0:
            raise DegenerateLabels(f"need both outcomes, got {n_pos} positives / {n_neg} negatives")
        # the 1-based midrank of a group is start + (size + 1) / 2; twice it is
        # an integer, so the rank sum is exact
        twice = np.multiply(self.starts, 2, out=_words("w1", self.order.shape[0])[: self.starts.shape[0]])
        twice += self.sizes
        twice += 1
        twice *= pos
        rank_sum = int(np.sum(twice)) / 2
        u = rank_sum - n_pos * (n_pos + 1) / 2.0
        return float(u / (n_pos * n_neg))

    def ap(self, tp: np.ndarray, descending: bool) -> float:
        """Step-interpolated average precision with one threshold per tie group, of tp positives per group."""
        sizes = self.sizes
        if descending:
            tp, sizes = tp[::-1], sizes[::-1]
        n_pos = int(tp.sum())
        if n_pos == 0:
            raise DegenerateLabels("no positive samples for average precision")
        # the cumulative counts are integers, exact in float64 as in int64
        n, groups = self.order.shape[0], sizes.shape[0]
        precision = _words("w1", n, np.float64)[:groups]
        precision[...] = tp
        np.cumsum(precision, out=precision)
        precision /= np.cumsum(sizes, out=_words("w2", n)[:groups])
        precision *= tp
        return float(np.sum(precision) / n_pos)


def aurc(curve: RiskCoverageCurve) -> float:
    """Area under the risk-coverage curve, lower is better."""
    r = curve.risks
    w = curve.weights
    trapezoids = np.add(r[:-1], r[1:], out=_words("w1", r.shape[0], np.float64)[: w.shape[0]])
    np.multiply(w, trapezoids, out=trapezoids)
    trapezoids *= 0.5
    return float(np.sum(trapezoids))


# the ranking metrics of one sweep
SWEEP_METRICS = {
    "aurc": lambda sweep: aurc(sweep.curve),
    "auroc-f": lambda sweep: sweep.auroc(sweep.successes()),
    "ap-f": lambda sweep: sweep.ap(sweep.successes(), descending=True),
    "ap-f-err": lambda sweep: sweep.ap(sweep.failures(), descending=False),
}


def rc_curve(scores, failure) -> RiskCoverageCurve:
    """Risk-coverage curve of a confidence vector against failure labels."""
    return _Sweep(*_masked(scores, failure)).curve


def _optimal_aurc(res: np.ndarray) -> float:
    """AURC of the best achievable ranking of the evaluated residuals res."""
    # the empirical optimum of the sweep ranks all failures strictly below all
    # successes with distinct values (a tied 0/1 oracle is not optimal,
    # because tie groups merge trapezoids upward): its sorted residuals are
    # known without a sort, and every row is its own tie group
    n, failed = res.shape[0], int(res.sum())
    presorted = _flags("b0", n)
    presorted[:failed] = True
    presorted[failed:] = False
    return aurc(_curve(presorted, np.arange(n)))


def e_aurc(curve: RiskCoverageCurve, failure) -> float:
    """Excess AURC over the best achievable ranking of the same residuals."""
    res, mask = _residuals_and_mask(failure)
    res = res if mask is None else res[mask]
    if res.shape[0] == 0:
        raise EmptyEvaluationSet("no samples left after masking")
    return aurc(curve) - _optimal_aurc(res)


def auroc_f(scores, failure) -> float:
    """Failure-detection AUROC: successes as positives, higher is better."""
    return SWEEP_METRICS["auroc-f"](_Sweep(*_masked(scores, failure)))


def auroc_out(scores, outlier_labels, mask=None) -> float:
    """Outlier-detection AUROC with inliers as positives: auroc-f with the 0/1 outlier labels as residuals."""
    out = np.asarray(outlier_labels).reshape(-1)
    keep = np.ones(out.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return SWEEP_METRICS["auroc-f"](_Sweep(*_masked(scores, FailureLabels(residuals=out, eval_mask=keep))))


def ap_f(scores, failure, positive: str = "success") -> float:
    """Step-interpolated average precision over descending score thresholds.

    positive="success" ranks retained-and-correct; positive="failure" scans
    ascending confidence instead (equivalently, descending negated scores) so
    that low confidence is treated as a failure alarm.
    """
    conf, res = _masked(scores, failure)
    if positive not in ("success", "failure"):
        raise ValueError(f"positive must be 'success' or 'failure', got {positive!r}")
    return SWEEP_METRICS["ap-f" if positive == "success" else "ap-f-err"](_Sweep(conf, res))


def accuracy(failure) -> float:
    """Fraction of correct predictions over all samples, mask ignored."""
    res, _ = _residuals_and_mask(failure)
    if res.shape[0] == 0:
        raise EmptyEvaluationSet("no samples")
    return float(np.mean(1 - res))


def _probs_and_labels(probabilities, labels) -> tuple[np.ndarray, np.ndarray]:
    """(n, c) probabilities and their n true classes, for the likelihood metrics; likelihood_terms checks the classes."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels).reshape(-1)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"probabilities {p.shape} and labels {y.shape} do not align")
    if p.shape[0] == 0:
        raise EmptyEvaluationSet("no samples")
    return p, y


# nll and brier as reductions of their per-row terms (scores.likelihood_terms), stated once for
# these functions and for run_study
LIKELIHOOD_METRICS = {
    # the true-class probability, floored at 1e-300
    "nll": lambda picked: float(-np.mean(np.log(np.maximum(picked, 1e-300)))),
    "brier": lambda terms: float(np.mean(terms)),
}


def nll(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood of the true class, floored at 1e-300."""
    p, y = _probs_and_labels(probabilities, labels)
    return LIKELIHOOD_METRICS["nll"](likelihood_terms(p, y, ("nll",))["nll"])


def brier(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared distance between the probability row and the one-hot truth."""
    p, y = _probs_and_labels(probabilities, labels)
    # the terms are taken in place, so in a copy of the caller's probabilities
    return LIKELIHOOD_METRICS["brier"](likelihood_terms(p.copy(), y, ("brier",))["brier"])
