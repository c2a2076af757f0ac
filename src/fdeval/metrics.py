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
confidences once and cuts them into tie groups; the curve, the midrank AUROC
and both average precisions are read off the groups, and the optimal curve
behind E-AURC is built from presorted residuals without a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FailureLabels
from .errors import DegenerateLabels, EmptyEvaluationSet, LabelOutOfRange, ShapeMismatch
from .scores import ConfidenceVector


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
    if isinstance(failure, FailureLabels):
        return failure.residuals.astype(np.int64), failure.eval_mask.astype(bool)
    res = np.asarray(failure).astype(np.int64).reshape(-1)
    return res, np.ones(res.shape[0], dtype=bool)


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
    """Confidences in ascending order, ties by index, cut into tie groups.

    Label vectors passed to the methods are in the row order of the
    confidences the sweep was built from.
    """

    def __init__(self, conf: np.ndarray):
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

    def counts(self, flags: np.ndarray) -> np.ndarray:
        """The number of set flags in each tie group, the input of auroc and ap."""
        return np.add.reduceat(flags[self.order], self.starts, dtype=np.int64)

    def curve(self, res: np.ndarray) -> RiskCoverageCurve:
        return _curve(res[self.order], self.starts)

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


def rc_curve(scores, failure) -> RiskCoverageCurve:
    """Risk-coverage curve of a confidence vector against failure labels."""
    conf, res = _masked(scores, failure)
    return _Sweep(conf).curve(res)


def aurc(curve: RiskCoverageCurve) -> float:
    """Area under the risk-coverage curve, lower is better."""
    r = curve.risks
    return float(np.sum(curve.weights * (r[:-1] + r[1:]) * 0.5))


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
    conf, res = _masked(scores, failure)
    sweep = _Sweep(conf)
    return sweep.auroc(sweep.counts(res == 0))


def auroc_out(scores, outlier_labels, mask=None) -> float:
    """Outlier-detection AUROC with inliers as positives."""
    conf = _conf_array(scores)
    out = np.asarray(outlier_labels).astype(np.int64).reshape(-1)
    if conf.shape != out.shape:
        raise ShapeMismatch(f"scores {conf.shape} and outlier labels {out.shape} do not align")
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        conf, out = conf[keep], out[keep]
    if conf.shape[0] == 0:
        raise EmptyEvaluationSet("no samples left after masking")
    sweep = _Sweep(conf)
    return sweep.auroc(sweep.counts(out == 0))


def ap_f(scores, failure, positive: str = "success") -> float:
    """Step-interpolated average precision over descending score thresholds.

    positive="success" ranks retained-and-correct; positive="failure" scans
    ascending confidence instead (equivalently, descending negated scores) so
    that low confidence is treated as a failure alarm.
    """
    conf, res = _masked(scores, failure)
    if positive not in ("success", "failure"):
        raise ValueError(f"positive must be 'success' or 'failure', got {positive!r}")
    sweep = _Sweep(conf)
    if positive == "success":
        return sweep.ap(sweep.counts(res == 0), descending=True)
    return sweep.ap(sweep.counts(res == 1), descending=False)


def accuracy(failure) -> float:
    """Fraction of correct predictions over all samples, mask ignored."""
    res, _ = _residuals_and_mask(failure)
    if res.shape[0] == 0:
        raise EmptyEvaluationSet("no samples")
    return float(np.mean(1 - res))


def _probs_and_labels(probabilities, labels) -> tuple[np.ndarray, np.ndarray]:
    """(n, c) probabilities and their n true classes, each in [0, c), for the likelihood metrics."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64).reshape(-1)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"probabilities {p.shape} and labels {y.shape} do not align")
    if p.shape[0] == 0:
        raise EmptyEvaluationSet("no samples")
    if (y < 0).any() or (y >= p.shape[1]).any():
        raise LabelOutOfRange("labels must lie in [0, c) for likelihood metrics")
    return p, y


def nll(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood of the true class, floored at 1e-300."""
    p, y = _probs_and_labels(probabilities, labels)
    picked = np.maximum(p[np.arange(p.shape[0]), y], 1e-300)
    return float(-np.mean(np.log(picked)))


def brier(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared distance between the probability row and the one-hot truth."""
    p, y = _probs_and_labels(probabilities, labels)
    # p minus the one-hot truth, squared in place: one (n, c) array, not three
    diff = p.copy()
    diff[np.arange(p.shape[0]), y] -= 1.0
    return float(np.mean(np.sum(np.square(diff, out=diff), axis=1)))
