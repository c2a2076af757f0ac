import math

import mpmath
import numpy as np
import pytest
from scipy.special import betainc, betaincinv

import fdeval.risk_control
from conftest import both_outcomes_instance, simple_bundle
from fdeval import (
    NEWCLASS,
    FailureLabels,
    ap_f,
    aurc,
    auroc_f,
    compute_csf,
    ece,
    failure_labels,
    platt_apply,
    platt_fit,
    rc_curve,
    sgr_select,
)
from fdeval.errors import (
    DegenerateLabels,
    EmptyEvaluationSet,
    InvalidParameter,
    NoFeasibleThreshold,
    PerfectSeparation,
    ShapeMismatch,
)
from fdeval.risk_control import _clopper_pearson_upper


def binom_log_cdf(k, m, p):
    """log P[Binom(m, p) <= k] via the regularized incomplete beta."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 0.0 if k >= m else -np.inf
    if k >= m:
        return 0.0
    cdf = betainc(m - k, k + 1, 1.0 - p)
    return math.log(cdf) if cdf > 0 else -np.inf


def bisect_binomial_tail(k, m, log_delta):
    """The bound as computed before the closed form: bisection on the log CDF."""
    if binom_log_cdf(k, m, 1.0) > log_delta:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binom_log_cdf(k, m, mid) <= log_delta:
            hi = mid
        else:
            lo = mid
    return hi


def test_sgr_all_correct_matches_closed_form():
    n, delta = 1000, 0.01
    scores = np.linspace(1.0, 0.0, n)
    res = sgr_select(scores, np.zeros(n, dtype=int), r_star=0.15, delta=delta)
    assert res.empirical_coverage == 1.0
    assert res.empirical_risk == 0.0
    # zero observed errors invert to 1 - delta'^(1/m)
    delta_prime = delta / math.ceil(math.log2(n))
    want = 1.0 - delta_prime ** (1.0 / n)
    assert res.risk_bound == pytest.approx(want, abs=1e-12)
    assert res.risk_bound <= 0.15


def test_sgr_all_wrong_is_infeasible():
    n = 100
    scores = np.linspace(1.0, 0.0, n)
    with pytest.raises(NoFeasibleThreshold):
        sgr_select(scores, np.ones(n, dtype=int), r_star=0.15, delta=0.1)


def test_sgr_parameter_guards():
    scores = np.linspace(1.0, 0.0, 50)
    res = np.zeros(50, dtype=int)
    with pytest.raises(EmptyEvaluationSet):
        sgr_select(scores[:5], res[:5], r_star=0.15, delta=0.1)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(InvalidParameter):
            sgr_select(scores, res, r_star=bad, delta=0.1)
        with pytest.raises(InvalidParameter):
            sgr_select(scores, res, r_star=0.15, delta=bad)
    with pytest.raises(ShapeMismatch):
        sgr_select(scores, res[:20], r_star=0.15, delta=0.1)


def test_sgr_bound_dominates_empirical_risk():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(30, 400))
        conf, res = both_outcomes_instance(rng, n=n, failure_rate=0.2)
        conf = conf + 0.5 * (1 - res)  # make confidence informative
        try:
            out = sgr_select(conf, res, r_star=0.3, delta=0.1)
        except NoFeasibleThreshold:
            continue
        assert out.empirical_risk <= out.risk_bound
        assert out.risk_bound <= 0.3
        assert 0.0 < out.empirical_coverage <= 1.0
        m = round(out.empirical_coverage * n)
        assert np.sum(conf >= out.threshold) == m


def test_sgr_coverage_monotone_on_separated_scores():
    n = 200
    res = np.zeros(n, dtype=int)
    res[150:] = 1  # failures carry the lowest scores
    scores = np.linspace(1.0, 0.0, n)
    coverages = []
    for r_star in (0.02, 0.05, 0.15, 0.3, 0.6):
        try:
            coverages.append(sgr_select(scores, res, r_star=r_star, delta=0.05).empirical_coverage)
        except NoFeasibleThreshold:
            coverages.append(0.0)
    assert coverages == sorted(coverages)
    assert coverages[-1] > 0.7


def test_sgr_counts_full_tie_group_at_threshold():
    scores = np.array([1.0] * 6 + [0.5] * 6)
    res = np.zeros(12, dtype=int)
    out = sgr_select(scores, res, r_star=0.5, delta=0.2)
    assert out.empirical_coverage == 1.0
    assert out.threshold in (0.5, 1.0)


def test_binomial_tail_inversion_brackets_the_cdf():
    delta = 0.01
    log_delta = math.log(delta)
    for k, m in ((0, 50), (3, 80), (10, 40)):
        p = _clopper_pearson_upper(k, m, delta)
        assert binom_log_cdf(k, m, p) <= log_delta + 1e-9
        assert binom_log_cdf(k, m, max(p - 1e-6, 0.0)) > log_delta


def test_closed_form_bound_matches_bisection():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(1, 3000))
        k = int(rng.integers(0, m + 1))
        delta = float(10 ** rng.uniform(-6, -0.05))
        want = bisect_binomial_tail(k, m, math.log(delta))
        assert _clopper_pearson_upper(k, m, delta) == pytest.approx(want, rel=0, abs=1e-12)


def binom_cdf_mp(k, m, p):
    """P[Binom(m, p) <= k] in mpmath, as the sum of its k + 1 terms."""
    q = 1 - p
    term = total = q**m
    for j in range(k):
        term = term * (m - j) / (j + 1) * p / q
        total += term
    return total


def mpmath_bound(k, m, delta, guess):
    """The root of P[Binom(m, p) <= k] = delta at 40 digits.

    It is sought on a bracket of relative width about 2e-9 around guess, and that the bracket holds
    the root is checked first, so the reference takes nothing from the value under test on trust.
    """
    with mpmath.workdps(40):
        g = mpmath.mpf(guess)
        lo, hi = g * (1 - 1e-9), min(g * (1 + 1e-9), (1 + g) / 2)    # the CDF sum needs p < 1

        def excess(p):
            return binom_cdf_mp(k, m, p) - delta

        assert excess(lo) > 0 > excess(hi), (k, m, delta)
        return mpmath.findroot(excess, (lo, hi), solver="anderson")


@pytest.mark.parametrize("log_m, max_k, rel", [
    ((0.3, math.log10(3000)), None, 1e-12),
    # few errors among many rows: the bound is small and 1 - p is close to 1, where a continued
    # fraction formed from 1 - p cancels (such a one strayed by up to 7e-12 here); the sum stays short
    ((4, 6), 30, 1e-14),
], ids=["m-to-3000", "few-errors-m-1e4-to-1e6"])
def test_bound_matches_mpmath(log_m, max_k, rel):
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(10 ** rng.uniform(*log_m))
        k = int(rng.integers(0, min(m, max_k or m)))
        delta = float(10 ** rng.uniform(-15, -0.02) if max_k is None else 10 ** rng.uniform(-6, -0.3))
        got = _clopper_pearson_upper(k, m, delta)
        want = mpmath_bound(k, m, delta, got)
        assert abs(got - want) <= rel * want, (k, m, delta)


def test_bound_matches_scipy_up_to_a_million_rows():
    rng = np.random.default_rng(43)
    for _ in range(150):
        m = int(10 ** rng.uniform(1, 6))
        # few errors among many rows is where 1 - p cancels; it gets a third of the draws
        k = int(rng.integers(0, m)) if rng.random() < 0.67 else int(rng.integers(0, min(m, 30)))
        delta = float(10 ** rng.uniform(-6, math.log10(0.25)))
        want = float(betaincinv(k + 1, m - k, 1.0 - delta))
        assert _clopper_pearson_upper(k, m, delta) == pytest.approx(want, rel=1e-11, abs=0), (k, m, delta)


@pytest.mark.parametrize("k, m, delta", [(5, 10, 1e-12), (28, 1744, 2.279171557989047e-06)])
def test_bound_where_scipy_strays(k, m, delta):
    # scipy 1.17.1's betaincinv misses these roots by 5.8e-9 and 6.5e-13 relative
    got = _clopper_pearson_upper(k, m, delta)
    want = mpmath_bound(k, m, delta, got)
    assert abs(got - want) <= 5e-16 * want


def test_platt_recovers_true_logistic_parameters():
    rng = np.random.default_rng(5)
    n = 30000
    s = rng.normal(0, 2, n)
    p = 1.0 / (1.0 + np.exp(-(1.5 * s - 0.5)))
    residuals = (rng.random(n) >= p).astype(int)  # residual 1 = failure
    model = platt_fit(s, residuals)
    assert model.a == pytest.approx(1.5, abs=0.15)
    assert model.b == pytest.approx(-0.5, abs=0.15)
    assert model.n_iter <= 100


def test_platt_apply_preserves_ranking_metrics_exactly():
    rng = np.random.default_rng(31)
    for _ in range(10):
        conf, res = both_outcomes_instance(rng, n=int(rng.integers(20, 300)))
        conf = conf + 0.3 * (1 - res)
        # pin one failure above one success so the fit stays well-posed
        conf[np.flatnonzero(res == 1)[0]] = conf[np.flatnonzero(res == 0)[0]] + 0.05
        model = platt_fit(conf, res)
        assert model.a > 0
        mapped = platt_apply(model, conf)
        assert np.all((mapped >= 0) & (mapped <= 1))
        assert auroc_f(mapped, res) == auroc_f(conf, res)
        assert aurc(rc_curve(mapped, res)) == aurc(rc_curve(conf, res))


def test_platt_stops_where_rounding_decides_the_line_search(monkeypatch):
    # near the optimum the full Newton step can land one ulp of NLL above a
    # shorter step that only ties the NLL; this seed tied its way to the
    # 100-iteration cap
    rng = np.random.default_rng(8)
    s = rng.normal(2.0, 1.0, 1000)
    residuals = (rng.random(1000) > 1.0 / (1.0 + np.exp(-(s - 1.5)))).astype(int)
    nlls = []
    real = fdeval.risk_control._platt_nll_grad_hess

    def recording(*args):
        out = real(*args)
        nlls.append(out[0])
        return out

    monkeypatch.setattr(fdeval.risk_control, "_platt_nll_grad_hess", recording)
    model = platt_fit(s, residuals)
    assert model.n_iter <= 10 and len(nlls) <= 20
    final = real(s, (residuals == 0).astype(float), model.a, model.b)[0]
    assert final <= min(nlls)


def test_platt_prior_smoothing_flag():
    rng = np.random.default_rng(4)
    conf, res = both_outcomes_instance(rng, n=200)
    raw = platt_fit(conf, res)
    smooth = platt_fit(conf, res, prior_smoothing=True)
    assert (raw.a, raw.b) != (smooth.a, smooth.b)


def test_platt_degenerate_and_separated_inputs():
    with pytest.raises(DegenerateLabels):
        platt_fit(np.linspace(0, 1, 20), np.zeros(20, dtype=int))
    scores = np.concatenate([np.full(50, 10.0), np.full(50, -10.0)])
    res = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    with pytest.raises(PerfectSeparation):
        platt_fit(scores, res)
    # interior targets make the separated fit well-posed again
    model = platt_fit(scores, res, prior_smoothing=True)
    assert np.isfinite(model.a) and model.a > 0


def test_ece_fixtures():
    # 100 samples pinned at confidence 0.9 but only half correct
    scores = np.full(100, 0.9)
    res = np.array([0, 1] * 50)
    assert ece(scores, res, bins=15) == pytest.approx(0.4, abs=1e-12)
    # perfectly calibrated bin contributes nothing
    scores = np.full(100, 0.7)
    res = np.array([0] * 70 + [1] * 30)
    assert ece(scores, res, bins=15) == pytest.approx(0.0, abs=1e-12)


def test_ece_bin_edges_are_right_closed():
    # 0.0 falls in the first bin, 0.5 and 1.0 close their bins
    scores = np.array([0.0, 0.5, 1.0, 1.0])
    res = np.array([1, 1, 0, 0])
    value = ece(scores, res, bins=2)
    # bin 1 holds {0.0, 0.5}: acc 0, mean conf 0.25; bin 2 holds the two 1.0s: exact
    assert value == pytest.approx(0.5 * 0.25, abs=1e-12)


def per_bin_ece(scores, res, bins):
    """ECE as it was before np.bincount: one mask and two means per bin."""
    edges = np.linspace(0.0, 1.0, bins + 1)[1:]
    idx = np.searchsorted(edges, scores, side="left")
    correct = 1.0 - res
    total = 0.0
    for b in range(bins):
        in_bin = idx == b
        n_b = int(in_bin.sum())
        if n_b == 0:
            continue
        total += (n_b / scores.size) * abs(float(np.mean(correct[in_bin])) - float(np.mean(scores[in_bin])))
    return total


@pytest.mark.parametrize("bins", [1, 2, 7, 15, 100])
def test_ece_bincount_matches_per_bin_loop(bins):
    rng = np.random.default_rng(bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    cases = [
        rng.random(5000),
        rng.random(5000) ** 8,  # most bins near 1 stay empty
        np.round(rng.random(300), 2),
        np.repeat(edges, 3),  # a score exactly on every edge
        np.array([0.5]),
    ]
    for scores in cases:
        res = (rng.random(scores.size) < 0.3).astype(np.int64)
        assert ece(scores, res, bins=bins) == pytest.approx(per_bin_ece(scores, res, bins), abs=1e-12)


def test_ece_guards():
    with pytest.raises(InvalidParameter):
        ece(np.array([1.5]), np.array([0]))
    with pytest.raises(InvalidParameter):
        ece(np.array([-0.1]), np.array([0]))
    with pytest.raises(InvalidParameter):
        ece(np.array([0.5]), np.array([0]), bins=0)
    with pytest.raises(EmptyEvaluationSet):
        ece(np.zeros(0), np.zeros(0, dtype=int))


def test_sgr_and_platt_honour_the_eval_mask():
    rng = np.random.default_rng(8)
    n, c = 400, 3
    tags = np.where(rng.random(n) < 0.2, "NEWCLASS_SEMANTIC", "IID")
    labels = np.where(tags == "IID", rng.integers(0, c, n), c)
    b = simple_bundle(rng.normal(0.0, 2.0, (n, c)), labels, tags=tags)
    fl = failure_labels(b, NEWCLASS)
    mask = fl.eval_mask
    assert 0 < (~mask).sum() < n   # the new-class protocol dismissed some inlier failures
    s, res = compute_csf(b, "msr").scores, fl.residuals
    assert platt_fit(s, fl) == platt_fit(s[mask], res[mask])
    assert sgr_select(s, fl, r_star=0.6, delta=0.1) == sgr_select(s[mask], res[mask], r_star=0.6, delta=0.1)
    for fn in (platt_fit, lambda x, y: sgr_select(x, y, r_star=0.6, delta=0.1)):
        with pytest.raises(ShapeMismatch, match="do not align"):
            fn(s[:-1], fl)


@pytest.mark.parametrize("fn", [rc_curve, auroc_f, ap_f, lambda s, r: sgr_select(s, r, r_star=0.5, delta=0.1),
                                platt_fit, ece], ids=["rc_curve", "auroc_f", "ap_f", "sgr_select", "platt_fit", "ece"])
def test_scored_inputs_share_one_check(fn):
    # every function that takes (scores, failure labels) checks them the same way
    scores = np.linspace(0.05, 0.95, 20)
    res = np.arange(20, dtype=np.int8) % 2
    with pytest.raises(ShapeMismatch, match="do not align"):
        fn(scores[:-1], res)
    with pytest.raises(EmptyEvaluationSet):
        fn(scores, FailureLabels(residuals=res, eval_mask=np.zeros(20, bool)))
