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
from .scores import ConfidenceVector, likelihood_terms


@dataclass
class RiskCoverageCurve:
    coverages: np.ndarray   # strictly decreasing, starts at 1.0
    risks: np.ndarray       # selective risk at each recorded coverage
    weights: np.ndarray     # trapezoid masses, len(risks) - 1, summing to <= 1


def _conf_array(scores) -> np.ndarray:
    if isinstance(scores, ConfidenceVector):
        return np.asarray(scores.scores, dtype=np.float64)
    return np.asarray(scores, dtype=np.float64).reshape(-1)


def _residuals_and_mask(failure) -> tuple[np.ndarray, np.ndarray]:
    """The residuals, each 0 or 1, as int64, and the evaluation mask, all rows for a bare array."""
    res, mask = (failure.residuals, failure.eval_mask) if isinstance(failure, FailureLabels) else (failure, None)
    res = integer_values(np.asarray(res).reshape(-1), 0, 2, "residuals must be 0 or 1")
    return res, np.ones(res.shape[0], dtype=bool) if mask is None else mask.astype(bool)


def _masked(scores, failure) -> tuple[np.ndarray, np.ndarray]:
    conf = _conf_array(scores)
    res, mask = _residuals_and_mask(failure)
    if conf.shape != res.shape:
        raise ShapeMismatch(f"scores {conf.shape} and residuals {res.shape} do not align")
    conf, res = conf[mask], res[mask]
    if conf.shape[0] == 0:
        raise EmptyEvaluationSet("no samples left after masking")
    return conf, res


def _curve(res: np.ndarray, starts: np.ndarray) -> RiskCoverageCurve:
    """Risk-coverage curve of residuals in sweep order, tie groups starting at starts."""
    n = res.shape[0]
    total = int(res.sum())
    if n == 1:
        return RiskCoverageCurve(
            coverages=np.array([1.0]),
            risks=np.array([total / n]),
            weights=np.zeros(0),
        )
    # a point is recorded after dropping the first row of each tie group,
    # except a group that starts at the last row
    idxs = starts[starts < n - 1]
    # errors remaining after dropping samples 0..i of the sweep
    err_after = total - np.cumsum(res[: n - 1])[idxs]

    coverages = [[1.0], (n - 1 - idxs) / n]
    risks = [[total / n], err_after / (n - 1 - idxs)]
    weights = [np.diff(idxs, prepend=-1) / n]

    trailing = (n - 2) - idxs[-1]
    if trailing > 0:
        coverages.append([0.0])
        risks.append(risks[-1][-1:])
        weights.append([trailing / n])
    return RiskCoverageCurve(
        coverages=np.concatenate(coverages), risks=np.concatenate(risks), weights=np.concatenate(weights)
    )


class _Sweep:
    """Confidences in ascending order, ties by index, cut into tie groups, with their residuals in that order.

    res and the flags passed to counts are in the row order of conf; the
    failures per tie group and the curve are built when first read.
    """

    def __init__(self, conf: np.ndarray, res: np.ndarray):
        # numpy's default sort is several times faster than kind="stable" but
        # leaves equal values, and the NaNs it sorts last, in any order; one
        # integer sort of (run, index) keys over those rows puts each run back
        # into index order, which makes the order exactly the stable one
        order = np.argsort(conf)
        c = conf[order]
        n = c.shape[0]
        same = c[1:] == c[:-1]
        self.starts = np.flatnonzero(np.r_[True, ~same])
        self.sizes = np.diff(self.starts, append=n)
        same |= np.isnan(c[:-1])  # each NaN is its own group, but the NaN tail is one run to repair
        tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        if tied.size:
            keys = np.cumsum(np.r_[True, ~same])[tied] * n + order[tied]
            keys.sort()
            order[tied] = keys % n
        self.order = order
        self.res = res[order]

    @cached_property
    def failures(self) -> np.ndarray:
        return np.add.reduceat(self.res, self.starts, dtype=np.int64)

    @cached_property
    def curve(self) -> RiskCoverageCurve:
        return _curve(self.res, self.starts)

    def counts(self, flags: np.ndarray) -> np.ndarray:
        """The number of set flags in each tie group, the input of auroc and ap."""
        return np.add.reduceat(flags[self.order], self.starts, dtype=np.int64)

    def auroc(self, pos: np.ndarray) -> float:
        """Mann-Whitney AUROC with half credit per tied pair, via midranks, of pos positives per tie group."""
        n_pos = int(pos.sum())
        n_neg = self.order.shape[0] - n_pos
        if n_pos == 0 or n_neg == 0:
            raise DegenerateLabels(f"need both outcomes, got {n_pos} positives / {n_neg} negatives")
        # the 1-based midrank of a group is start + (size + 1) / 2; twice it is
        # an integer, so the rank sum is exact
        rank_sum = int(np.sum((2 * self.starts + self.sizes + 1) * pos)) / 2
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
        precision = np.cumsum(tp) / np.cumsum(sizes)
        return float(np.sum(tp * precision) / n_pos)


def aurc(curve: RiskCoverageCurve) -> float:
    """Area under the risk-coverage curve, lower is better."""
    r = curve.risks
    return float(np.sum(curve.weights * (r[:-1] + r[1:]) * 0.5))


# the ranking metrics of one sweep; successes per tie group are its sizes less its failures
SWEEP_METRICS = {
    "aurc": lambda sweep: aurc(sweep.curve),
    "auroc-f": lambda sweep: sweep.auroc(sweep.sizes - sweep.failures),
    "ap-f": lambda sweep: sweep.ap(sweep.sizes - sweep.failures, descending=True),
    "ap-f-err": lambda sweep: sweep.ap(sweep.failures, descending=False),
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
    n = res.shape[0]
    presorted = np.zeros(n, dtype=np.int64)
    presorted[: int(res.sum())] = 1
    return aurc(_curve(presorted, np.arange(n)))


def e_aurc(curve: RiskCoverageCurve, failure) -> float:
    """Excess AURC over the best achievable ranking of the same residuals."""
    res, mask = _residuals_and_mask(failure)
    if not mask.any():
        raise EmptyEvaluationSet("no samples left after masking")
    return aurc(curve) - _optimal_aurc(res[mask])


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
