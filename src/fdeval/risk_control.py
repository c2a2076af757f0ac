"""Risk-guaranteed threshold selection, Platt scaling, and calibration error.

sgr_select picks the largest-coverage confidence threshold whose selective
risk is bounded by r_star with confidence 1 - delta: a binary search over
ceil(log2 n) retained-count candidates, each scored by the one-sided
Clopper-Pearson upper limit of its risk (Bonferroni-corrected delta split
across the candidates). That limit is the root in p of a binomial CDF,
P[Binom(m, p) <= k] = delta, which _clopper_pearson_upper finds by a bracketed
Newton search with the standard library alone.
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


# stirlerr(n) for n = 0..15, from mpmath at 40 digits; stirlerr(0) is never used
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
             0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
             0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n): a table up to 15, then five terms of the asymptotic series (Loader 2000)."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mu: float) -> float:
    """x log(x / mu) + mu - x, by a series in (x - mu) / (x + mu) where the two terms would cancel (Loader 2000)."""
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        term = 2 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            s, last = s + term / j, s
            if s == last:
                return s
            j += 2
    return x * math.log(x / mu) + mu - x


def _beta_cf(a: int, b: int, x: float, y: float) -> float:
    """G with I_x(a, b) = x^a y^b / (a B(a, b) G), for integers a, b, y = 1 - x and x < (a + 1) / (a + b + 2).

    G is the odd part of the fraction 1 + d1 / (1 + d2 / (1 + ...)) of DLMF 8.17.22, summed by the
    modified Lentz method. Near x = 1 the terms 1 + d_{2j+1} are small and would cancel if formed
    from x, so they are formed from the smaller of x and y, which is exact. Every term is then
    positive, and no step cancels.
    """
    small_x = x <= y
    ab = a + b
    d_odd = -ab * x / (a + 1)
    g = c = 1.0 + d_odd if small_x else (ab * y - (b - 1)) / (a + 1)    # the loop's 1 + d_odd at j = 0
    dd, j, j2 = 0.0, 0, float(a)    # j2 = a + 2 j
    while True:
        j += 1
        j2 += 2.0
        d_even = j * (b - j) * x / ((j2 - 1.0) * j2)
        alpha = -d_odd * d_even
        num, den = (a + j) * (ab + j), j2 * (j2 + 1.0)
        d_odd = -num * x / den
        # 1 + d_odd = (den - num + num y) / den, with den - num expanded so that no rounding precedes it
        beta = d_even + (1.0 + d_odd if small_x else (a * (2 * j + 1 - b) + j * (3 * j + 2 - b) + num * y) / den)
        dd = 1.0 / (beta + alpha * dd)
        c = beta + alpha / c
        g *= c * dd
        if abs(c * dd - 1.0) <= 2.0 ** -52:
            return g


def _log_binom_cdf(k: int, m: int, p: float, log_front: float) -> tuple[float, float]:
    """log P[Binom(m, p) <= k] and its derivative in p, for 0 < k < m.

    log_front is the p-free part of log P[Binom(m, p) = k]. The CDF F has dF/dp = -(m - k) P[= k] / (1 - p).
    """
    q = 1.0 - p
    log_pmf = log_front - _bd0(k, m * p) - _bd0(m - k, m * q)
    # the CDF is I_q(m - k, k + 1) = 1 - I_p(k + 1, m - k); take the side whose fraction converges
    if p * (m + 3) > k + 2:
        g = _beta_cf(m - k, k + 1, q, p)    # F = p P[= k] / g
        return math.log(p) + log_pmf - math.log(g), -(m - k) * g / (p * q)
    pmf = math.exp(log_pmf)
    tail = (m - k) / (k + 1) * p * pmf / _beta_cf(k + 1, m - k, p, q)
    return math.log1p(-tail), -(m - k) * pmf / (q * (1.0 - tail))


def _clopper_pearson_upper(k: int, m: int, delta: float) -> float:
    """Smallest p with P[Binom(m, p) <= k] <= delta: the one-sided Clopper-Pearson upper limit.

    A bracket that starts as [0, 1] (for delta > 1/2 the bound lies below k / m) shrinks to two
    adjacent doubles, and the upper one is returned. Steps are Newton steps on the log CDF while
    each at most halves the last, and bisections otherwise. The log CDF is concave in p, so a
    Newton step lands past the root; aimed a little further still (2^-10 of the step, and at
    least about 4 ulps), it lands past the root from either side, and both ends of the bracket
    close in: a median of 13 CDF evaluations, where bisection takes about 60. The CDF is the
    binomial probability of k in Loader's saddle-point form times an incomplete-beta continued
    fraction. The Stirling-error and deviance terms of that form keep log P[Binom(m, p) = k] to a
    few ulps at m = 10^6, where differences of lgamma lose about 1e-10.
    """
    if k >= m:
        return 1.0
    if k == 0:
        return -math.expm1(math.log(delta) / m)    # (1 - p)^m = delta
    log_front = _stirlerr(m) - _stirlerr(k) - _stirlerr(m - k) - 0.5 * math.log(2 * math.pi * k * (m - k) / m)
    log_delta = math.log(delta)
    lo, hi, last = 0.0, 1.0, 1.0
    p = (k + 1) / (m + 1)    # the mean of Beta(k + 1, m - k), where the CDF is near 1/2
    while True:
        log_cdf, slope = _log_binom_cdf(k, m, p, log_front)
        excess = log_cdf - log_delta
        if excess <= 0:
            hi = p
        else:
            lo = p
        step = -excess / slope if slope else math.nan    # the slope underflows far left
        step += math.copysign(max(abs(step) * 2.0**-10, p * 2.0**-50), step)
        if lo < p + step < hi and abs(step) <= 0.5 * last:
            p, last = p + step, abs(step)
        else:
            p, last = 0.5 * (lo + hi), hi - lo
            if p in (lo, hi):
                return hi


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
    with np.errstate(over="ignore"):   # exp(-z) overflows to inf where the sigmoid rounds to 0
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
    with np.errstate(over="ignore", invalid="ignore"):   # np.where drops the branch that overflows
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
