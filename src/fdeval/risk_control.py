"""Risk-guaranteed threshold selection, Platt scaling, and calibration error.

sgr_select picks the largest-coverage confidence threshold whose selective
risk is bounded by r_star with confidence 1 - delta: a binary search over
ceil(log2 n) retained-count candidates, each scored by the closed-form
Clopper-Pearson upper limit of its risk (Bonferroni-corrected delta split
across the candidates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, EmptyEvaluationSet, InvalidParameter, NoFeasibleThreshold, PerfectSeparation
from .metrics import _conf_array, _masked


@dataclass
class SgrResult:
    threshold: float
    risk_bound: float
    empirical_coverage: float
    empirical_risk: float
    r_star: float
    delta: float


def _clopper_pearson_upper(k: int, m: int, delta: float) -> float:
    """Smallest p with P[Binom(m, p) <= k] <= delta: the one-sided Clopper-Pearson upper limit."""
    if k >= m:
        return 1.0
    from scipy.special import betaincinv  # imported here: only sgr needs scipy.special

    return float(betaincinv(k + 1, m - k, 1.0 - delta))


def sgr_select(scores, residuals, r_star: float, delta: float) -> SgrResult:
    """Largest-coverage threshold whose bounded selective risk stays <= r_star."""
    if not (0.0 < r_star < 1.0):
        raise InvalidParameter(f"r_star must lie in (0, 1), got {r_star}")
    if not (0.0 < delta < 1.0):
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    conf, res = _masked(scores, residuals)
    n = conf.shape[0]
    if n < 10:
        raise EmptyEvaluationSet(f"need at least 10 samples, got {n}")

    order = np.argsort(-conf, kind="stable")
    sorted_conf = conf[order]
    sorted_res = res[order]
    cum_err = np.cumsum(sorted_res)

    iters = max(1, math.ceil(math.log2(n)))

    def candidate(k: int):
        tau = sorted_conf[k - 1]
        m = int(np.searchsorted(-sorted_conf, -tau, side="right"))  # all scores >= tau
        errors = int(cum_err[m - 1])                                # == floor(risk_hat * m)
        bound = _clopper_pearson_upper(errors, m, delta / iters)
        return tau, m, errors / m, bound

    best = None
    lo, hi = 1, n
    for _ in range(iters):
        if lo > hi:
            break
        mid = (lo + hi) // 2
        tau, m, risk_hat, bound = candidate(mid)
        if bound <= r_star:
            if best is None or m > best[1]:
                best = (tau, m, risk_hat, bound)
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise NoFeasibleThreshold(f"no coverage level satisfies bound {r_star} at delta {delta}")
    tau, m, risk_hat, bound = best
    return SgrResult(
        threshold=float(tau),
        risk_bound=bound,
        empirical_coverage=m / n,
        empirical_risk=risk_hat,
        r_star=float(r_star),
        delta=float(delta),
    )


@dataclass
class PlattModel:
    a: float
    b: float
    n_iter: int


def _platt_nll_grad_hess(s, y, a, b):
    z = a * s + b
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-z))
    diff = p - y
    g = np.array([np.sum(diff * s), np.sum(diff)])
    w = p * (1.0 - p)
    h = np.array([[np.sum(w * s * s), np.sum(w * s)], [np.sum(w * s), np.sum(w)]])
    return nll, g, h


def platt_fit(scores, residuals, prior_smoothing: bool = False) -> PlattModel:
    """Fit sigma(a*s + b) to success labels by damped Newton on the NLL.

    prior_smoothing replaces the 0/1 targets with (n+1)/(n+2)-style prior
    counts; off by default so that downstream thresholds stay comparable to
    the raw fit.
    """
    s, res = _masked(scores, residuals)
    y = (res == 0).astype(np.float64)
    n_pos, n_neg = float(y.sum()), float((1 - y).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both outcomes, got {n_pos:g} successes / {n_neg:g} failures")
    if not prior_smoothing and float(s[res == 0].min()) > float(s[res == 1].max()):
        # separable supports leave the NLL without a finite minimizer;
        # interior targets (prior_smoothing) restore one
        raise PerfectSeparation("success scores lie strictly above failure scores")
    if prior_smoothing:
        t_pos = (n_pos + 1.0) / (n_pos + 2.0)
        t_neg = 1.0 / (n_neg + 2.0)
        y = y * t_pos + (1.0 - y) * t_neg

    a, b = 0.0, float(np.log(y.mean() / (1.0 - y.mean())))
    nll, g, h = _platt_nll_grad_hess(s, y, a, b)
    n_iter = ties = 0
    for n_iter in range(1, 101):
        if np.max(np.abs(g)) <= 1e-10:
            break
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(2), -g)
        except np.linalg.LinAlgError:
            step = -g
        scale = 1.0
        for _ in range(40):
            na, nb = a + scale * step[0], b + scale * step[1]
            new_nll, new_g, new_h = _platt_nll_grad_hess(s, y, na, nb)
            if new_nll <= nll:
                break
            scale *= 0.5
        if new_nll > nll:
            break  # every step length raised the NLL: stop at (a, b)
        ties = ties + 1 if new_nll == nll else 0
        if ties == 2:
            # near the optimum rounding decides the comparison: a full Newton step
            # can land one ulp of NLL above a shorter one, and steps that only tie
            # the NLL would crawl on to the iteration cap
            break
        a, b, nll, g, h = na, nb, new_nll, new_g, new_h
        if abs(a) > 1e4:
            raise PerfectSeparation(f"slope diverged to {a:g}; scores separate the outcomes")
    return PlattModel(a=float(a), b=float(b), n_iter=n_iter)


def platt_apply(model: PlattModel, scores) -> np.ndarray:
    """Map scores through the fitted sigmoid; strictly monotone for a > 0."""
    s = _conf_array(scores)
    z = model.a * s + model.b
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def ece(calibrated_scores, residuals, bins: int = 15) -> float:
    """Expected calibration error over equal-width, right-closed bins on [0, 1]."""
    s, res = _masked(calibrated_scores, residuals)
    if bins < 1:
        raise InvalidParameter(f"bins must be >= 1, got {bins}")
    if (s < 0).any() or (s > 1).any():
        raise InvalidParameter("calibrated scores must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, bins + 1)[1:]
    idx = np.searchsorted(edges, s, side="left")
    counts = np.bincount(idx)
    filled = counts > 0
    n_b = counts[filled]
    acc = np.bincount(idx, weights=1.0 - res)[filled] / n_b
    conf = np.bincount(idx, weights=s)[filled] / n_b
    return float(np.sum(n_b / s.size * np.abs(acc - conf)))
