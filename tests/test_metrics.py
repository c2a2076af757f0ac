import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import both_outcomes_instance, random_instance
from fdeval import (
    FailureLabels,
    accuracy,
    ap_f,
    aurc,
    aurc_oracle,
    auroc_f,
    auroc_oracle,
    auroc_out,
    brier,
    e_aurc,
    nll,
    rc_curve,
)
import fdeval.metrics
from fdeval.errors import DegenerateLabels, EmptyEvaluationSet, LabelOutOfRange, ShapeMismatch
from fdeval.metrics import _Sweep
from fdeval.oracle import optimal_confidence

FIX_CONF = np.array([0.9, 0.8, 0.7, 0.6])
FIX_RES = np.array([0, 0, 1, 0])


def rankdata_auroc(conf, positive):
    """The midrank AUROC as computed before the single sweep: scipy's rankdata."""
    n_pos = int(positive.sum())
    n_neg = positive.shape[0] - n_pos
    u = rankdata(conf, method="average")[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def argsort_ap(conf, res, positive):
    """Average precision as computed before the single sweep: its own descending sort."""
    s, y = (conf, res == 0) if positive == "success" else (-conf, res == 1)
    order = np.argsort(-s, kind="stable")
    ss, ys = s[order], y[order]
    group_end = np.append(ss[:-1] != ss[1:], True)
    tp = np.cumsum(ys)[group_end]
    precision = tp / (np.flatnonzero(group_end) + 1.0)
    return float(np.sum(np.diff(tp, prepend=0.0) * precision) / int(y.sum()))


def test_aurc_worked_fixture():
    curve = rc_curve(FIX_CONF, FIX_RES)
    assert np.allclose(curve.coverages, [1.0, 0.75, 0.5, 0.25], atol=1e-15)
    assert np.allclose(curve.risks, [0.25, 1 / 3, 0.0, 0.0], atol=1e-15)
    assert np.allclose(curve.weights, [0.25, 0.25, 0.25], atol=1e-15)
    assert aurc(curve) == pytest.approx(11 / 96, abs=1e-12)


def test_aurc_all_wrong_distinct():
    for n in (1, 2, 7, 100):
        conf = np.arange(n) / max(n, 1)
        value = aurc(rc_curve(conf, np.ones(n, dtype=int)))
        assert value == pytest.approx((n - 1) / n, abs=1e-12)


def test_single_sample_curve():
    curve = rc_curve(np.array([0.3]), np.array([1]))
    assert curve.coverages.tolist() == [1.0]
    assert curve.risks.tolist() == [1.0]
    assert curve.weights.size == 0
    assert aurc(curve) == 0.0


def test_fully_tied_curve_keeps_terminal_point():
    conf = np.full(4, 0.5)
    res = np.array([1, 0, 0, 1])
    curve = rc_curve(conf, res)
    # one recorded drop, then the leftover tie mass lands on coverage zero
    assert curve.coverages[-1] == 0.0
    assert curve.risks[-1] == curve.risks[-2]
    assert curve.weights.sum() == pytest.approx(3 / 4, abs=1e-15)
    assert aurc(curve) == pytest.approx(aurc_oracle(conf, res), abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9]))
def test_aurc_matches_oracle(seed, tie_density):
    rng = np.random.default_rng(seed)
    conf, res = random_instance(rng, n=int(rng.integers(1, 120)), tie_density=tie_density)
    curve = rc_curve(conf, res)
    assert abs(aurc(curve) - aurc_oracle(conf, res)) <= 1e-12
    assert 0.0 <= aurc(curve) <= 1.0
    assert np.all(np.diff(curve.coverages) < 0)
    assert np.all((curve.risks >= 0) & (curve.risks <= 1))
    assert curve.weights.sum() <= 1.0 + 1e-15


def test_aurc_invariant_under_monotone_transform_and_permutation():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        conf = rng.permutation(n) / n  # distinct values
        res = (rng.random(n) < 0.4).astype(int)
        base = aurc(rc_curve(conf, res))
        assert aurc(rc_curve(3.0 * conf + 1.0, res)) == base
        perm = rng.permutation(n)
        assert aurc(rc_curve(conf[perm], res[perm])) == pytest.approx(base, abs=1e-12)


def test_e_aurc_zero_for_perfect_ranking():
    res = np.array([1, 1, 0, 0, 0])
    conf = optimal_confidence(res)
    curve = rc_curve(conf, res)
    assert e_aurc(curve, res) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9]))
def test_e_aurc_nonnegative_and_optimum_minimal(seed, tie_density):
    rng = np.random.default_rng(seed)
    conf, res = random_instance(rng, n=int(rng.integers(1, 120)), tie_density=tie_density)
    curve = rc_curve(conf, res)
    assert e_aurc(curve, res) >= -1e-12
    opt = aurc(rc_curve(optimal_confidence(res), res))
    assert opt <= aurc(curve) + 1e-12


def test_auroc_fixture_and_ties():
    assert auroc_f(FIX_CONF, FIX_RES) == pytest.approx(2 / 3, abs=1e-12)
    assert auroc_f(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1])) == 0.5


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5]))
def test_auroc_matches_pairwise_oracle(seed, tie_density):
    rng = np.random.default_rng(seed)
    conf, res = both_outcomes_instance(rng, n=int(rng.integers(2, 80)), tie_density=tie_density)
    fast = auroc_f(conf, res)
    assert abs(fast - auroc_oracle(conf, res == 0)) <= 1e-12
    # strictly monotone rescaling cannot change a rank statistic
    assert auroc_f(10.0 * conf - 3.0, res) == fast


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9]))
def test_sweep_matches_previous_formulations_exactly(seed, tie_density):
    rng = np.random.default_rng(seed)
    conf, res = both_outcomes_instance(rng, n=int(rng.integers(2, 120)), tie_density=tie_density)
    assert auroc_f(conf, res) == rankdata_auroc(conf, res == 0)
    assert auroc_out(conf, res) == rankdata_auroc(conf, res == 0)
    for positive in ("success", "failure"):
        assert ap_f(conf, res, positive=positive) == argsort_ap(conf, res, positive)
    curve = rc_curve(conf, res)
    assert e_aurc(curve, res) == aurc(curve) - aurc(rc_curve(optimal_confidence(res), res))


class StableSweep(_Sweep):
    """The sweep as built before the fast sort: one np.argsort(kind="stable")."""

    def __init__(self, conf, res):
        self.order = np.argsort(conf, kind="stable")
        c = conf[self.order]
        self.starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        self.sizes = np.diff(self.starts, append=c.shape[0])
        self.res = res[self.order]


# ties of every kind: +0.0 equals -0.0, inf equals inf, and NaNs (of either sign) sort last
SPECIAL = [np.nan, -np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, -1.0, 0.5]


def assert_stable_sweep(conf, res):
    got, want = _Sweep(conf, res), StableSweep(conf, res)
    assert got.order.tolist() == want.order.tolist()
    assert got.starts.tolist() == want.starts.tolist() and got.sizes.tolist() == want.sizes.tolist()


# 16 is the insertion-sort cutoff of numpy's introsort; the SIMD sorts switch at other sizes
@pytest.mark.parametrize("n", [0, 1, 2, 3, 15, 16, 17, 64, 257, 1000, 5000, 70_000])
@pytest.mark.parametrize("pool", [SPECIAL, SPECIAL[:2], SPECIAL[2:4], SPECIAL[4:6], [0.25, 0.75], None])
def test_sweep_order_is_the_stable_argsort(n, pool):
    rng = np.random.default_rng(n)
    conf = rng.random(n) if pool is None else rng.choice(np.array(pool), n)
    if pool is None:  # distinct values with a few heavy tie groups and a NaN tail
        conf[rng.random(n) < 0.3] = np.round(rng.random(), 2)
        conf[rng.random(n) < 0.1] = np.nan
    assert_stable_sweep(conf, (rng.random(n) < 0.3).astype(np.int8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True), max_size=300))
def test_sweep_order_is_the_stable_argsort_for_any_floats(values):
    assert_stable_sweep(np.array(values, dtype=np.float64), np.arange(len(values)) % 2)


def test_metrics_with_a_nan_tail_match_the_stable_sweep(monkeypatch):
    rng = np.random.default_rng(31)
    conf = np.round(rng.random(5000), 2)
    conf[rng.random(5000) < 0.3] = np.nan
    res = (rng.random(5000) < 0.3).astype(np.int8)
    got_curve = rc_curve(conf, res)
    got = [auroc_f(conf, res), ap_f(conf, res, "success"), ap_f(conf, res, "failure")]
    monkeypatch.setattr(fdeval.metrics, "_Sweep", StableSweep)
    want_curve = rc_curve(conf, res)
    for field in ("coverages", "risks", "weights"):
        assert getattr(got_curve, field).tobytes() == getattr(want_curve, field).tobytes(), field
    assert got == [auroc_f(conf, res), ap_f(conf, res, "success"), ap_f(conf, res, "failure")]


def test_auroc_needs_both_outcomes():
    with pytest.raises(DegenerateLabels):
        auroc_f(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auroc_out_matches_auroc_f_on_identical_labels():
    rng = np.random.default_rng(9)
    conf, res = both_outcomes_instance(rng, n=50)
    assert auroc_out(conf, res) == auroc_f(conf, res)
    mask = np.zeros(50, dtype=bool)
    with pytest.raises(EmptyEvaluationSet):
        auroc_out(conf, res, mask=mask)


def test_ap_hand_cases():
    conf = np.array([0.9, 0.8, 0.7])
    res = np.array([0, 1, 0])
    assert ap_f(conf, res, positive="success") == pytest.approx(5 / 6, abs=1e-12)
    assert ap_f(conf, res, positive="failure") == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ap_f(conf, res, positive="both")
    with pytest.raises(DegenerateLabels):
        ap_f(conf, np.zeros(3, dtype=int), positive="failure")


def test_ap_treats_tie_group_as_one_threshold():
    assert ap_f(np.array([0.5, 0.5]), np.array([0, 1]), positive="success") == 0.5
    # separating the tie recovers full precision for the leading success
    assert ap_f(np.array([0.6, 0.5]), np.array([0, 1]), positive="success") == 1.0


def test_accuracy_ignores_eval_mask():
    fl = FailureLabels(
        residuals=np.array([0, 1, 0, 1], dtype=np.int8),
        eval_mask=np.array([True, False, True, False]),
    )
    assert accuracy(fl) == 0.5


def test_rc_curve_respects_eval_mask():
    conf = np.array([0.9, 0.1, 0.8, 0.7])
    res = np.array([0, 1, 1, 0], dtype=np.int8)
    mask = np.array([True, False, True, True])
    fl = FailureLabels(residuals=res, eval_mask=mask)
    masked = rc_curve(conf, fl)
    direct = rc_curve(conf[mask], res[mask])
    assert np.array_equal(masked.risks, direct.risks)
    assert np.array_equal(masked.weights, direct.weights)
    assert aurc(masked) == pytest.approx(aurc_oracle(conf, res, mask), abs=1e-12)
    with pytest.raises(EmptyEvaluationSet):
        rc_curve(conf, FailureLabels(residuals=res, eval_mask=np.zeros(4, bool)))


def test_score_residual_alignment_checked():
    with pytest.raises(ShapeMismatch):
        rc_curve(np.array([0.1, 0.2]), np.array([0]))


def test_nll_and_brier_fixtures():
    probs = np.full((8, 2), 0.5)
    labels = np.array([0, 1] * 4)
    assert nll(probs, labels) == pytest.approx(np.log(2), abs=1e-12)
    assert brier(probs, labels) == pytest.approx(0.5, abs=1e-12)
    onehot = np.eye(3)[np.array([0, 1, 2])]
    assert nll(onehot, np.array([0, 1, 2])) == 0.0
    assert brier(onehot, np.array([0, 1, 2])) == 0.0
    # zero mass on the true class hits the floor instead of overflowing
    assert nll(np.array([[1.0, 0.0]]), np.array([1])) == pytest.approx(-np.log(1e-300), abs=1e-9)


def onehot_brier(probs, labels):
    """Brier score as first written: an explicit one-hot array subtracted from the probabilities."""
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), labels] = 1.0
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


@pytest.mark.parametrize("n, c", [(1, 2), (7, 3), (1000, 10), (100_000, 10), (300, 400)])
def test_brier_matches_onehot_form_exactly(n, c):
    rng = np.random.default_rng(n + c)
    logits = rng.normal(0, 3, (n, c))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    probs[0] = np.eye(c)[0]   # a row holding exact zeros and an exact one
    labels = rng.integers(0, c, n)
    before = probs.copy()
    assert brier(probs, labels) == onehot_brier(probs, labels)
    assert np.array_equal(probs, before)   # the squared difference is taken in a copy


def test_nll_brier_guards():
    probs = np.full((2, 2), 0.5)
    with pytest.raises(LabelOutOfRange):
        nll(probs, np.array([0, 2]))
    with pytest.raises(ShapeMismatch):
        brier(probs, np.array([0]))
    with pytest.raises(EmptyEvaluationSet):
        nll(np.zeros((0, 2)), np.zeros(0, dtype=int))
