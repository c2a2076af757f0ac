import json
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import fdeval
import fdeval.scores
from conftest import MAPPED_KB, PEAK_KB, child_env, simple_bundle, three_row_blocks
from fdeval import (
    ConfidenceVector,
    PredictionBundle,
    SoftmaxConfig,
    compute_csf,
    compute_csfs,
    fit_mahalanobis,
    quantize,
    score_mahalanobis,
    softmax,
)
from fdeval.errors import (
    ClassUnderpopulated,
    InvalidParameter,
    LabelOutOfRange,
    MissingFeatures,
    MissingMcdStack,
    NonFiniteValue,
    SingularCovariance,
    UnknownExternal,
)
from fdeval.scores import CSF_IDS, F16, F32, F64, PRECISIONS, _entropy, _pass_scores

ROW_SUM_TOL = {F64: 1e-12, F32: 1e-5, F16: 1e-2}


@st.composite
def logit_matrices(draw, max_n=8, max_c=6, lo=-50.0, hi=50.0):
    n = draw(st.integers(1, max_n))
    c = draw(st.integers(2, max_c))
    vals = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=n * c,
            max_size=n * c,
        )
    )
    return np.array(vals, dtype=np.float64).reshape(n, c)


def mp_softmax_max(row, dps=50):
    with mpmath.workdps(dps):
        exps = [mpmath.e ** mpmath.mpf(v) for v in row]
        total = mpmath.fsum(exps)
        return float(max(exps) / total)


def test_softmax_against_high_precision_reference():
    rows = [[2.0, 1.0, 0.0], [0.3, -0.2, 5.5, 1.1], [-3.0, -3.0], [30.0, 0.0, 0.0]]
    for row in rows:
        got = float(np.max(softmax(np.array([row]))))
        assert got == pytest.approx(mp_softmax_max(row), abs=1e-15)


def test_large_gap_rounds_to_one_only_below_f64():
    row = np.array([[30.0, 0.0, 0.0]])
    assert float(np.max(softmax(row, SoftmaxConfig(precision=F16)))) == 1.0
    assert float(np.max(softmax(row, SoftmaxConfig(precision=F32)))) == 1.0
    top64 = float(np.max(softmax(row, SoftmaxConfig(precision=F64))))
    assert top64 < 1.0
    assert top64 == pytest.approx(mp_softmax_max(row[0]), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(logit_matrices())
def test_softmax_rows_sum_to_one(logits):
    for precision in PRECISIONS:
        p = softmax(logits, SoftmaxConfig(precision=precision))
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= ROW_SUM_TOL[precision]


@settings(max_examples=60, deadline=None)
@given(logit_matrices(lo=-20.0, hi=20.0))
def test_reduced_precision_outputs_live_on_their_grid(logits):
    for precision in (F16, F32):
        p = softmax(logits, SoftmaxConfig(precision=precision))
        assert np.array_equal(p, quantize(p, precision))


@settings(max_examples=60, deadline=None)
@given(logit_matrices(lo=-30.0, hi=30.0), st.floats(-15.0, 15.0, allow_nan=False))
def test_softmax_shift_invariance(logits, shift):
    base = softmax(logits)
    shifted = softmax(logits + shift)
    assert np.max(np.abs(base - shifted)) <= 1e-12


def test_softmax_broadcasts_over_stacks():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 4, 3))
    p = softmax(stack)
    assert p.shape == (5, 4, 3)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    single = np.stack([softmax(stack[i]) for i in range(5)])
    assert np.array_equal(p, single)


def test_temperature_flattens_toward_uniform():
    row = np.array([[3.0, 1.0, 0.0, -2.0, 0.5]])
    tops = [float(np.max(softmax(row, SoftmaxConfig(temperature=t)))) for t in (0.5, 1, 2, 8, 32, 1e6)]
    for a, b in zip(tops, tops[1:]):
        assert b <= a + 1e-15
    assert tops[-1] == pytest.approx(1 / 5, abs=1e-3)


def test_softmax_config_validation():
    with pytest.raises(InvalidParameter):
        SoftmaxConfig(precision="f8")
    with pytest.raises(InvalidParameter):
        SoftmaxConfig(temperature=0.0)
    with pytest.raises(InvalidParameter):
        quantize(np.ones(3), "f8")


def test_quantize_idempotent():
    rng = np.random.default_rng(5)
    x = rng.normal(size=64) * 100
    for precision in PRECISIONS:
        q = quantize(x, precision)
        assert np.array_equal(q, quantize(q, precision))
    assert np.array_equal(quantize(x, F64), x)


def test_entropy_convention():
    assert _entropy(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
    c = 7
    uniform = np.full((1, c), 1.0 / c)
    assert _entropy(uniform)[0] == pytest.approx(np.log(c), abs=1e-12)


def two_where_entropy(p):
    """_entropy as it was: the product masked to 0.0 a second time where p == 0."""
    safe = np.where(p > 0, p, 1.0)
    return -np.sum(np.where(p > 0, p * np.log(safe), 0.0), axis=-1)


def one_line_entropy(p):
    """_entropy as it was: one expression, holding the np.where and the product at once."""
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1)


def peak_bytes(fn, *args):
    """Peak traced allocation while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_entropy_is_bitwise_the_one_line_form(dtype):
    rng = np.random.default_rng(17)
    with np.errstate(under="ignore"):
        p = softmax(rng.normal(0.0, 300.0, size=(300, 5, 40))).astype(dtype)   # many exact zeros
        wide = softmax(rng.normal(0.0, 300.0, size=(7001, 40))).astype(dtype)   # more rows than a _map_rows block
    assert (p == 0).any() and (wide == 0).any()
    # _entropy sums p ln p first and sums again only the rows that gave NaN: rows holding an exact
    # 0.0, a -0.0 or a NaN, alone or together, among rows that hold none
    special = wide[:60].copy()
    special[0:20:2, 3] = 0.0
    special[1:20:2, 5] = -0.0
    special[20:40:3, 7] = np.nan
    special[40:43] = [[0.0], [-0.0], [np.nan]]
    special[43, :3] = [0.0, -0.0, np.nan]
    stacked = p.copy()
    stacked[::7, ::2, 11] = -0.0
    stacked[::5, 1, 13] = np.nan
    for q in (p, p[:, 0], p[:1, :1], wide, special, special[:, None], stacked):
        got, want = _entropy(q), one_line_entropy(q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), q.shape


def test_entropy_holds_one_temporary():
    # the logits pass takes pe's entropy one row block at a time, from per-thread scratch: no array
    # of the logits' shape is made. Two full temporaries (2.0x) when the product was a new array
    logits = np.random.default_rng(19).normal(0.0, 3.0, (2000, 500))
    b = simple_bundle(logits, np.arange(2000) % 500)
    assert peak_bytes(compute_csfs, b, ["pe"]) < 0.25 * logits.nbytes


@pytest.mark.parametrize("precision", PRECISIONS)
def test_entropy_matches_two_where_form(precision):
    rng = np.random.default_rng(13)
    # logit gaps this wide underflow most probabilities to exact zeros at every precision
    p = softmax(rng.normal(0.0, 1000.0, size=(2000, 10, 100)), SoftmaxConfig(precision=precision))
    assert (p == 0).sum() > 1_000_000
    for q in (p, p.mean(axis=1)):
        new, old = _entropy(q), two_where_entropy(q)
        assert np.array_equal(new, old)
        assert new.tobytes() == old.tobytes()  # the signs of zeros too


def test_pe_and_msr_fixtures():
    b = simple_bundle([[50.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0, 0])
    msr = compute_csf(b, "msr").scores
    pe = compute_csf(b, "pe").scores
    assert msr[0] == pytest.approx(1.0, abs=1e-12)
    assert msr[1] == pytest.approx(1 / 3, abs=1e-12)
    # entropy is stored negated: confident row near 0, uniform row at -ln 3
    assert pe[0] == pytest.approx(0.0, abs=1e-12)
    assert pe[1] == pytest.approx(-np.log(3), abs=1e-12)


def test_mls_ignores_temperature():
    b = simple_bundle([[4.0, -1.0], [0.5, 2.5]], [0, 1])
    hot = compute_csf(b, "mls", SoftmaxConfig(temperature=9.0)).scores
    assert np.array_equal(hot, np.array([4.0, 2.5]))


def test_mcd_with_identical_passes_matches_single_pass():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(12, 5))
    stack = np.repeat(logits[:, None, :], 4, axis=1)  # power-of-two pass count
    b = simple_bundle(logits, rng.integers(0, 5, 12), mcd_logits=stack)
    assert np.array_equal(compute_csf(b, "mcd-msr").scores, compute_csf(b, "msr").scores)
    assert np.array_equal(compute_csf(b, "mcd-pe").scores, compute_csf(b, "pe").scores)
    assert np.array_equal(compute_csf(b, "mcd-ee").scores, compute_csf(b, "pe").scores)
    assert np.array_equal(compute_csf(b, "mcd-mls").scores, compute_csf(b, "mls").scores)
    mi = compute_csf(b, "mcd-mi").scores
    assert np.max(np.abs(mi)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mcd_mutual_information_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n, t, c = 9, 5, 4
    stack = rng.normal(size=(n, t, c)) * 3
    b = simple_bundle(stack.mean(axis=1), rng.integers(0, c, n), mcd_logits=stack)
    scores = compute_csf(b, "mcd-mi").scores
    # scores are the negated information; raw MI must not go below -1e-12
    assert np.all(scores <= 1e-12)


def test_mcd_requires_stack():
    b = simple_bundle([[1.0, 0.0]], [0])
    for csf in ("mcd-msr", "mcd-pe", "mcd-ee", "mcd-mi", "mcd-mls"):
        with pytest.raises(MissingMcdStack):
            compute_csf(b, csf)


def test_external_scores():
    b = simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 1], externals={"demo": np.array([0.4, 0.6])})
    vec = compute_csf(b, "ext:demo")
    assert vec.scores.tolist() == [0.4, 0.6]
    vec.scores[0] = 99.0
    assert b.externals["demo"][0] == 0.4
    with pytest.raises(UnknownExternal):
        compute_csf(b, "ext:missing")
    with pytest.raises(InvalidParameter):
        compute_csf(b, "not-a-csf")


def test_mahalanobis_hand_case():
    feats = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    model = fit_mahalanobis(feats, labels)
    assert np.array_equal(model.class_ids, [0, 1])
    assert np.allclose(model.means, [[0.0, 0.0], [4.0, 0.0]])
    scores = score_mahalanobis(model, np.array([[0.0, 0.0], [2.0, 0.0]])).scores
    # at a class mean the distance vanishes; the midpoint sits 2 units from
    # both means with unit x-variance
    assert scores[0] == 0.0 and not np.signbit(scores[0])
    assert scores[1] == pytest.approx(-4.0, abs=1e-5)


def test_mahalanobis_ridge_handles_degenerate_features():
    feats = np.ones((6, 3))
    labels = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(SingularCovariance):
        fit_mahalanobis(feats, labels)  # default ridge scales with trace = 0
    model = fit_mahalanobis(feats, labels, ridge=1e-6)
    scores = score_mahalanobis(model, feats).scores
    assert np.all(np.isfinite(scores))
    assert np.allclose(scores, 0.0, atol=1e-9)


def test_mahalanobis_class_underpopulated():
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ClassUnderpopulated, match="class 1"):
        fit_mahalanobis(feats, np.array([0, 0, 1]))


@pytest.mark.parametrize("labels, row", [
    ([0.5, 0.2, 1.7, 1.2, 0.9, 1.0], 0),   # a cast read these as classes 0 and 1
    ([0, 0, 1, 1, 2, 2.5], 5),
    ([0, 0, 1, np.nan, 2, 2], 3),           # the cast warned, a traceback under -W error
    ([0, 0, 1, 1, -np.inf, 2], 4),
    ([0, 0, 1, 1, 1e300, 2], 4),
])
def test_mahalanobis_refuses_labels_that_are_not_integers(labels, row):
    feats = np.random.default_rng(4).normal(size=(6, 2))
    with pytest.raises(LabelOutOfRange, match=rf"maha: .* at row {row}$"):
        with np.errstate(all="raise"):
            fit_mahalanobis(feats, np.array(labels))


def test_mahalanobis_reads_bool_and_integral_float_labels_as_classes():
    feats = np.random.default_rng(5).normal(size=(6, 2))
    want = fit_mahalanobis(feats, np.array([1, 1, 0, 0, 1, 0]))
    for labels in (np.array([True, True, False, False, True, False]), np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])):
        got = fit_mahalanobis(feats, labels)
        assert got.class_ids.tolist() == [0, 1]
        assert got.means.tobytes() == want.means.tobytes()
        assert got.chol_lower.tobytes() == want.chol_lower.tobytes()


def mask_loop_fit(feats, labels):
    """fit_mahalanobis's class means and covariance as they were first written: one boolean mask per class."""
    labels = labels.astype(np.int64)
    class_ids = np.unique(labels)
    means = np.empty((class_ids.size, feats.shape[1]))
    centered = np.empty_like(feats)
    for k, cls in enumerate(class_ids):
        rows = labels == cls
        if rows.sum() < 2:
            raise ClassUnderpopulated(f"maha: class {cls} has {int(rows.sum())} rows, need at least 2")
        means[k] = feats[rows].mean(axis=0)
        centered[rows] = feats[rows] - means[k]
    cov = centered.T @ centered / feats.shape[0]
    lam = 1e-6 * np.trace(cov) / feats.shape[1]
    return class_ids, means, np.linalg.cholesky(cov + lam * np.eye(feats.shape[1])), lam


@pytest.mark.parametrize("seed", range(12))
def test_mahalanobis_fit_is_bitwise_the_mask_loop(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    n = int(rng.integers(2 * k + 3, 400))
    ids = rng.choice(np.arange(-50, 1000), size=k, replace=False)   # shuffled, with gaps and a negative
    labels = ids[rng.permutation(np.arange(n) % k)]
    feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, d) + rng.normal(0, 5, d)
    feats = np.asfortranarray(feats) if seed % 2 else feats                # column-major too
    want_ids, want_means, want_chol, want_ridge = mask_loop_fit(np.ascontiguousarray(feats), labels)
    got = fit_mahalanobis(feats, labels)
    assert got.class_ids.tobytes() == want_ids.tobytes()
    assert got.means.tobytes() == want_means.tobytes()
    assert got.chol_lower.tobytes() == want_chol.tobytes()
    assert got.ridge == want_ridge
    # a class left with one row: the first such class by id, and its count, as the loop named them
    labels[labels == ids[-1]] = ids[0]
    labels[np.flatnonzero(labels == ids[0])[0]] = 1000 + seed
    labels[np.flatnonzero(labels == ids[0])[0]] = -60
    with pytest.raises(ClassUnderpopulated) as want:
        mask_loop_fit(feats, labels)
    with pytest.raises(ClassUnderpopulated) as got:
        fit_mahalanobis(feats, labels)
    assert str(got.value) == str(want.value) == "maha: class -60 has 1 rows, need at least 2"


def test_scoring_maha_leaves_numpy_ma_unimported():
    # np.unique without return_inverse imports numpy.ma on numpy 2.x, about 17 ms of every fresh evaluate
    code = (
        "import sys, numpy as np\n"
        "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
        "import fdeval\n"
        "rng = np.random.default_rng(0)\n"
        "labels = np.arange(40) % 4\n"
        "feats = rng.normal(size=(4, 3))[labels] + rng.normal(size=(40, 3))\n"
        "b = fdeval.validate_bundle(fdeval.PredictionBundle(logits=rng.normal(size=(40, 4)), labels=labels,\n"
        "                                                   shift_tags=['IID'] * 40, features=feats))\n"
        "fdeval.compute_csfs(b, ['maha'])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(fdeval.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("import numpy loads numpy.ma on this numpy")
    assert proc.returncode == 0, proc.stderr


def test_mahalanobis_dimension_guards():
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    model = fit_mahalanobis(feats, np.array([0, 0, 1, 1]))
    with pytest.raises(InvalidParameter):
        score_mahalanobis(model, np.ones((2, 3)))
    with pytest.raises(InvalidParameter):
        fit_mahalanobis(feats, np.array([0, 0, 1]))
    with pytest.raises(InvalidParameter, match="zero width"):
        fit_mahalanobis(np.ones((4, 0)), np.array([0, 0, 1, 1]))


def test_mahalanobis_non_finite_features_raise_non_finite_value():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(8, 3))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = fit_mahalanobis(feats, labels)
    bad = feats.copy()
    bad[5, 1] = np.nan
    with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore"):
        fit_mahalanobis(bad, labels)
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore", invalid="ignore"):
        fit_mahalanobis(feats * 1e200, labels)  # finite features, overflowing covariance
    # numpy's cholesky returns a NaN factor for a NaN covariance instead of raising
    with pytest.raises(NonFiniteValue, match="covariance"):
        fit_mahalanobis(feats, labels, ridge=float("nan"))
    with pytest.raises(NonFiniteValue, match="row 5"):
        score_mahalanobis(model, bad)


def per_class_mahalanobis(model, feats):
    """The scoring loop before the candidate pick, one scipy triangular solve over all rows per class."""
    best = np.full(feats.shape[0], np.inf)
    for k in range(model.means.shape[0]):
        diff = feats - model.means[k]
        z = solve_triangular(model.chol_lower, diff.T, lower=True)
        best = np.minimum(best, np.sum(z * z, axis=0))
    return -best + 0.0


def recording_whiten(monkeypatch) -> list[int]:
    """Rows of every whitening GEMM score_mahalanobis makes: the means, then for each row block of the
    features its rows and then each refine chunk of its candidate pairs."""
    whitened = []
    real = fdeval.scores._whiten

    def recording(rows, inv_chol):
        whitened.append(rows.shape[0])
        return real(rows, inv_chol)

    monkeypatch.setattr(fdeval.scores, "_whiten", recording)
    return whitened


def maha_case(name, rng):
    """(model, rows to score) for one of the equivalence cases."""
    n, k, d = 300, 12, 32
    centers = rng.normal(size=(k, d))
    labels = np.arange(n) % k
    if name == "random":
        feats = centers[labels] + rng.normal(size=(n, d))
        return fit_mahalanobis(feats, labels), np.concatenate([feats, rng.normal(0, 3, (50, d))])
    if name == "rank-one-default-ridge":
        # all spread along one direction: the default ridge sets cond(cov) near 1e6 * d
        feats = centers[labels] * 1e-3 + np.outer(rng.normal(0, 1e2, n), rng.normal(size=d))
        return fit_mahalanobis(feats, labels), feats
    if name == "low-rank-tiny-ridge":
        feats = centers[labels] * 0.1 + rng.normal(size=(n, 3)) @ rng.normal(size=(3, d))
        model = fit_mahalanobis(feats, labels, ridge=1e-9)
        assert np.linalg.cond(model.chol_lower @ model.chol_lower.T) > 1e9
        return model, feats + rng.normal(0, 1e-3, (n, d))
    if name == "overflowing-expansion":
        # |z|^2 and z.m overflow (inf - inf), so these rows refine every class
        feats = centers[labels] + rng.normal(size=(n, d))
        feats[:, 0] = np.where(labels % 2, 2.0**515, -(2.0**515))  # a power of two: exact class means
        return fit_mahalanobis(feats, labels), feats
    assert name == "equidistant"
    feats = centers[labels] + rng.normal(size=(n, d))
    model = fit_mahalanobis(feats, labels)
    a = rng.integers(0, k, 100)
    return model, 0.5 * (model.means[a] + model.means[(a + 1) % k])


@pytest.mark.parametrize(
    "name", ["random", "rank-one-default-ridge", "low-rank-tiny-ridge", "overflowing-expansion", "equidistant"]
)
def test_mahalanobis_matches_per_class_loop(name, monkeypatch):
    model, rows = maha_case(name, np.random.default_rng(17))
    whitened = recording_whiten(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        got = score_mahalanobis(model, rows).scores
        want = per_class_mahalanobis(model, rows)
    assert np.array_equal(np.argsort(got, kind="stable"), np.argsort(want, kind="stable"))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
    # the means once, then the features, whose 350 or 300 rows of 32 are one row block
    assert whitened[:2] == [model.means.shape[0], rows.shape[0]]
    if name in ("overflowing-expansion", "equidistant"):
        # midpoints keep both of their classes and overflowed rows every class,
        # so the refine blocks see more pairs than rows
        assert sum(whitened[2:]) > rows.shape[0]


def test_mahalanobis_solve_count_does_not_grow_with_classes(monkeypatch):
    whitened = recording_whiten(monkeypatch)
    rng = np.random.default_rng(6)
    counts = []
    for k in (2, 8, 32):
        labels = np.arange(128) % k
        feats = rng.normal(size=(k, 16))[labels] + rng.normal(size=(128, 16))
        model = fit_mahalanobis(feats, labels)
        whitened.clear()
        score_mahalanobis(model, feats)
        counts.append(len(whitened))
    # the means, then the one row block of 128 rows and its one refine chunk
    assert counts == [3, 3, 3]


@pytest.mark.parametrize("dim", [32, 201])
def test_maha_scores_do_not_depend_on_the_row_block(dim, monkeypatch):
    # 301 rows in blocks of 1, 3, 7 and 100 rows, the last block of one row for 1, 3 and 100; the
    # refine GEMMs then range from 1 to about 100 rows. Unpadded, OpenBLAS gives a row other bits in
    # a GEMM of one row (gemv), in one of at most 1200 values and, at d = 201, in the last d mod 8
    # columns, so each block size gave other scores. A single block is the whole-array formulation.
    n, k = 301, 12
    rng = np.random.default_rng(43)
    centers = rng.normal(0.0, 2.0, (k, dim))
    labels = np.arange(4 * k) % k
    model = fit_mahalanobis(centers[labels] + rng.normal(size=(labels.size, dim)), labels)
    feats = centers[rng.integers(0, k, n)] + rng.normal(size=(n, dim))
    whole = score_mahalanobis(model, feats).scores   # _ROW_BLOCK // dim rows: one block
    assert n * dim <= fdeval.scores._ROW_BLOCK
    for rows in (1, 3, 7, 100):
        monkeypatch.setattr(fdeval.scores, "_ROW_BLOCK", rows * dim)
        whitened = recording_whiten(monkeypatch)
        assert score_mahalanobis(model, feats).scores.tobytes() == whole.tobytes(), rows
        # the means once, then each block's rows and the one refine chunk of its one candidate a row
        assert whitened[0] == k and whitened[1::2] == whitened[2::2], rows
        assert whitened[1::2] == [rows] * (n // rows) + [n % rows] * (n % rows > 0), rows


def maha_peak(n: int, dim: int = 64, k: int = 10) -> int:
    """Traced peak of score_mahalanobis on n rows, less its three n-long arrays (best, -best and the scores)."""
    rng = np.random.default_rng(47)
    centers = rng.normal(0.0, 2.0, (k, dim))
    labels = np.arange(4 * k) % k
    model = fit_mahalanobis(centers[labels] + rng.normal(size=(labels.size, dim)), labels)
    feats = centers[rng.integers(0, k, n)] + rng.normal(size=(n, dim))
    return peak_bytes(score_mahalanobis, model, feats) - 3 * 8 * n


def test_maha_peak_does_not_grow_with_the_rows():
    # one row block of _ROW_BLOCK values at a time: the whitened rows and feats - center of the
    # whole array grew the peak by 16 bytes a feature, 12.6 MB more at 4x these rows
    small, large = maha_peak(4000), maha_peak(16000)
    assert large <= small + 64 * 1024, (small, large)
    assert small < 8 * fdeval.scores._ROW_BLOCK * 8, small


# the Rss of the features.f64 mapping once maha is fitted and scored on a mapped bundle, and the
# scores, with those of a writeable in-memory copy of the bundle
SCORE_MAPPED_FEATURES = MAPPED_KB + """\
import json, sys
import numpy as np
from fdeval import PredictionBundle, load_bundle
from fdeval.scores import compute_csfs
mapped = load_bundle(sys.argv[1])
scores = compute_csfs(mapped, ["maha"])["maha"].scores
kb = mapped_kb("features.f64")
held = PredictionBundle(mapped.logits, mapped.labels, mapped.shift_codes, features=np.array(mapped.features))
print(json.dumps({"kb": kb, "same": compute_csfs(held, ["maha"])["maha"].scores.tobytes() == scores.tobytes()}))
"""


@pytest.mark.skipif(not (Path("/proc/self/smaps").exists() and hasattr(mmap, "MADV_DONTNEED")),
                    reason="reads the Rss of a mapping from /proc/self/smaps and releases pages with madvise")
def test_scoring_maha_gives_back_the_mapped_features(tmp_path):
    # 10 MB of features: the load's finite check and the fit's gather of the inlier rows map them
    # all, and each row block of the score gives its 2 MiB windows back once scored
    n, k, dim = 20_000, 10, 64
    rng = np.random.default_rng(53)
    labels = rng.integers(0, k, n)
    feats = rng.normal(0.0, 2.0, (k, dim))[labels] + rng.normal(size=(n, dim))
    bundle = simple_bundle(rng.normal(size=(n, k)), labels, features=feats)
    directory = fdeval.write_bundle(bundle, tmp_path / "b", binary=True)
    proc = subprocess.run([sys.executable, "-c", SCORE_MAPPED_FEATURES, str(directory)],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["kb"] <= 2048 < feats.nbytes // 1024, got
    assert got["same"]


def test_maha_csf_fits_on_inlier_rows_only():
    rng = np.random.default_rng(21)
    inlier_feats = np.concatenate([rng.normal(0, 1, (20, 2)), rng.normal(6, 1, (20, 2))])
    ood_feats = rng.normal(40, 1, (5, 2))
    feats = np.concatenate([inlier_feats, ood_feats])
    labels = np.array([0] * 20 + [1] * 20 + [2] * 5)
    logits = rng.normal(size=(45, 2))
    tags = ["IID"] * 40 + ["NEWCLASS_SEMANTIC"] * 5
    b = simple_bundle(logits, labels, tags=tags, features=feats)
    got = compute_csf(b, "maha").scores
    want = score_mahalanobis(
        fit_mahalanobis(inlier_feats, labels[:40]), feats
    ).scores
    assert np.array_equal(got, want)
    # outliers sit far from every inlier mean
    assert got[40:].max() < got[:40].min()


def test_maha_requires_features():
    b = simple_bundle([[1.0, 0.0]], [0])
    with pytest.raises(MissingFeatures):
        compute_csf(b, "maha")


def test_confidence_vector_carries_mode():
    b = simple_bundle([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    vec = compute_csf(b, "msr", SoftmaxConfig(precision=F16))
    assert isinstance(vec, ConfidenceVector)
    assert vec.precision_mode == F16
    assert vec.csf_id == "msr"
    # mls is the max of the f64 logits, whatever the softmax precision
    assert compute_csf(b, "mls", SoftmaxConfig(precision=F16)).precision_mode == F64
    assert set(CSF_IDS) >= {"msr", "pe", "mls", "maha"}


# The scoring code as it was before compute_csfs, kept as the exact reference:
# softmax with separate f32 and f64 branches and an f16 emulation that carries
# half values in f64 and sums the classes in a Python loop, quantize with one
# branch per precision, and one compute_csf body that softmaxes afresh for
# every CSF.
def _round_f16(x):
    # round-to-nearest-even via the IEEE half type, kept on f64 carriers
    return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)


def _softmax_f16(x, temperature):
    x = _round_f16(x)
    x = _round_f16(x / _round_f16(temperature))
    m = np.max(x, axis=-1, keepdims=True)          # selection, exact
    d = _round_f16(x - m)
    e = _round_f16(np.exp(d))
    s = e[..., 0]
    for j in range(1, e.shape[-1]):                # fixed left-to-right order
        s = _round_f16(s + e[..., j])
    return _round_f16(e / s[..., None])


def old_softmax(logits, cfg=None):
    cfg = cfg or SoftmaxConfig()
    x = np.asarray(logits, dtype=np.float64)
    if cfg.precision == F16:
        return _softmax_f16(x, cfg.temperature)
    if cfg.precision == F32:
        x32 = x.astype(np.float32) / np.float32(cfg.temperature)
        m = np.max(x32, axis=-1, keepdims=True)
        e = np.exp(x32 - m)
        return (e / np.sum(e, axis=-1, keepdims=True)).astype(np.float64)
    x = x / cfg.temperature
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def one_body_softmax(logits, cfg=None):
    """softmax as it was before it worked in place: one body for all three precisions."""
    cfg = cfg or SoftmaxConfig()
    dtype = {F16: np.float16, F32: np.float32, F64: np.float64}[cfg.precision]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(logits, dtype=np.float64).astype(dtype, copy=False) / dtype(cfg.temperature)
        if dtype is np.float16:
            e = np.exp((x - np.max(x, axis=-1, keepdims=True)).astype(np.float64)).astype(np.float16)
            total = np.add.accumulate(e, axis=-1)[..., -1:]
        else:
            e = np.exp(x - np.max(x, axis=-1, keepdims=True))
            total = np.sum(e, axis=-1, keepdims=True)
        return (e / total).astype(np.float64, copy=False)


def old_quantize(arr, precision):
    arr = np.asarray(arr, dtype=np.float64)
    if precision == F64:
        return arr
    if precision == F32:
        return arr.astype(np.float32).astype(np.float64)
    return _round_f16(arr)


def old_compute_csf(bundle, csf_id, cfg=None):
    cfg = cfg or SoftmaxConfig()
    if csf_id.startswith("ext:"):
        return bundle.externals[csf_id[4:]].copy(), F64
    if csf_id == "maha":
        inlier = bundle.labels < bundle.n_classes
        model = fit_mahalanobis(bundle.features[inlier], bundle.labels[inlier])
        return score_mahalanobis(model, bundle.features).scores, F64
    if csf_id in ("msr", "pe"):
        p = old_softmax(bundle.logits, cfg)
        scores = np.max(p, axis=-1) if csf_id == "msr" else -one_line_entropy(p)
    elif csf_id == "mls":
        return np.max(bundle.logits, axis=-1), F64
    elif csf_id == "mcd-mls":
        return np.max(np.mean(bundle.mcd_logits, axis=1), axis=-1), F64
    else:
        p = old_softmax(bundle.mcd_logits, cfg)
        mean_p = np.mean(p, axis=1)
        if csf_id == "mcd-msr":
            scores = np.max(mean_p, axis=-1)
        elif csf_id == "mcd-pe":
            scores = -one_line_entropy(mean_p)
        elif csf_id == "mcd-ee":
            scores = -np.mean(one_line_entropy(p), axis=-1)
        else:
            scores = -(one_line_entropy(mean_p) - np.mean(one_line_entropy(p), axis=-1))
    return np.asarray(scores, dtype=np.float64), cfg.precision


def scored_bundle(seed=41, n=90, c=4, t=3, d=5):
    """Inlier, covariate and new-class rows with wide logits (so f16 collapses some), an MC stack and features."""
    rng = np.random.default_rng(seed)
    tags = np.array(["IID"] * 50 + ["COVARIATE"] * 25 + ["NEWCLASS_SEMANTIC"] * (n - 75))
    labels = np.where(tags == "NEWCLASS_SEMANTIC", c, np.arange(n) % c)
    logits = rng.normal(0.0, 6.0, (n, c))
    mcd = logits[:, None, :] + rng.normal(0.0, 2.0, (n, t, c))
    features = rng.normal(0.0, 1.0, (c + 1, d))[labels] + rng.normal(0.0, 1.0, (n, d))
    return simple_bundle(logits, labels, tags=tags, mcd_logits=mcd, features=features,
                         externals={"demo": rng.random(n)})


def adversarial_logits(seed=43):
    """Inputs that stress the f16 path: wide scales, ties, subnormal halves, stacks, many classes, overflow."""
    rng = np.random.default_rng(seed)
    b = scored_bundle()
    arrays = [b.logits, b.mcd_logits]
    arrays += [rng.normal(0.0, 1.0, (40, 7)) * scale for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5)]
    arrays.append(rng.integers(-3, 4, (40, 7)).astype(np.float64))        # integer ties
    arrays.append(np.vstack([np.zeros((3, 5)), np.full((3, 5), 2.5), np.full((3, 5), -7e4)]))  # all-equal rows
    arrays.append(rng.uniform(-12.0, 0.0, (40, 9)))                        # e^-12 is a subnormal half
    arrays.append(rng.normal(0.0, 6.0, (10, 4, 6)))                        # 3-D stack
    arrays += [rng.normal(0.0, 6.0, (6, c)) for c in (2, 400, 1000)]
    arrays.append(np.array([[1e308, 0.0, -1e308], [1e39, 1.0, 2.0], [7e4, 7e4, 1.0]]))  # inf after the cast
    return arrays


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("temperature", [1e-4, 1e-2, 0.3, 1.0, 2.5, 1e2])
def test_softmax_and_quantize_match_the_per_precision_branches(precision, temperature):
    cfg = SoftmaxConfig(precision=precision, temperature=temperature)
    overflowed = False
    with np.errstate(all="ignore"):
        for x in adversarial_logits():
            got = softmax(x, cfg)
            assert got.shape == x.shape and got.dtype == np.float64
            assert got.tobytes() == old_softmax(x, cfg).tobytes(), x.shape
            assert got.tobytes() == one_body_softmax(x, cfg).tobytes(), x.shape
            assert quantize(x, precision).tobytes() == old_quantize(x, precision).tobytes()
            overflowed |= bool(np.isnan(got).any())
    # the inf and NaN paths ran too, wherever a finite logit can overflow
    assert overflowed or (precision == F64 and temperature >= 1.0)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_softmax_works_in_place(precision):
    logits = np.random.default_rng(23).normal(0.0, 5.0, (2000, 500))
    cfg = SoftmaxConfig(precision=precision, temperature=1.7)
    result = logits.nbytes   # an f64 array of the logits' shape
    # f64 holds the result alone (1.0x); f32 adds its f32 array (1.5x) and f16 its half
    # array (1.25x; 1.5x while a view kept the half prefix sums alive through the divide);
    # 2.25x to 3.0x when the subtract, exp and divide each made a new array
    assert peak_bytes(softmax, logits, cfg) < (1.3 if precision == F16 else 1.6) * result
    assert softmax(logits, cfg).tobytes() == one_body_softmax(logits, cfg).tobytes()


ORDERS = [
    ["mcd-mi"],
    ["mcd-ee"],
    ["mcd-ee", "mcd-mi"],
    ["mcd-mi", "mcd-msr", "pe"],
    ["pe", "msr"],
    ["maha", "ext:demo", "mls", "mcd-mls"],
    list(CSF_IDS) + ["ext:demo"],
    list(reversed(CSF_IDS)),
]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "+".join(o))
def test_compute_csfs_is_bitwise_the_old_per_csf_path(precision, order):
    b = scored_bundle()
    cfg = SoftmaxConfig(precision=precision, temperature=1.5)
    got = compute_csfs(b, order, cfg)
    assert list(got) == order
    for csf in order:
        want, mode = old_compute_csf(b, csf, cfg)
        assert got[csf].csf_id == csf and got[csf].precision_mode == mode
        assert got[csf].scores.dtype == np.float64
        assert got[csf].scores.tobytes() == want.tobytes(), csf
        assert compute_csf(b, csf, cfg).scores.tobytes() == want.tobytes(), csf


MC_SOFTMAX_CSFS = ["mcd-msr", "mcd-pe", "mcd-ee", "mcd-mi"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("temperature", [1.0, 1.5])
@pytest.mark.parametrize("precision", PRECISIONS)
def test_logits_pass_is_bitwise_the_softmax_of_the_logits(precision, temperature, workers, monkeypatch):
    # the logits go through the pass as a stack of one pass: msr, pe and mls are bitwise max(softmax(x)),
    # the negated entropy of softmax(x) and max(x); row 5 holds a logit beyond f16's range, whose f16
    # softmax is NaN, and row 17 one below it, which stores as -inf and softmaxes to 0
    rng = np.random.default_rng(71)
    x = rng.normal(0.0, 8.0, (20, 9))
    x[5, 2], x[17, 4] = 1e5, -1e5
    cfg = SoftmaxConfig(precision=precision, temperature=temperature)
    rows = three_row_blocks(monkeypatch, workers)
    got = _pass_scores(x[:, None], cfg, {"max", "entropy", "mls"})
    assert sorted(rows) == [2] + [3] * 6
    with np.errstate(invalid="ignore"):
        p = softmax(x, cfg)
        want = {"max": np.max(p, axis=-1), "entropy": one_line_entropy(p), "mls": np.max(x, axis=-1)}
    for name, vec in want.items():
        assert got[name].tobytes() == vec.tobytes(), name
    finite = ~np.isnan(want["max"])
    assert finite.sum() == (19 if precision == F16 else 20)
    scores = compute_csfs(simple_bundle(x[finite], np.arange(finite.sum()) % 9), ["msr", "pe", "mls"], cfg)
    assert scores["msr"].scores.tobytes() == want["max"][finite].tobytes()
    assert scores["pe"].scores.tobytes() == (-want["entropy"][finite]).tobytes()
    assert scores["mls"].scores.tobytes() == want["mls"][finite].tobytes()


def per_pass_mc_scores(stack, cfg):
    """The mcd- scores of an (n, t, c) stack from the softmax of each pass, summed pass by pass."""
    t = stack.shape[1]
    passes = [softmax(stack[:, k], cfg) for k in range(t)]
    mean_p = sum(passes) / t
    predictive, expected = one_line_entropy(mean_p), sum(one_line_entropy(p) for p in passes) / t
    return {"mcd-msr": np.max(mean_p, axis=-1), "mcd-pe": -predictive, "mcd-ee": -expected,
            "mcd-mi": -(predictive - expected), "mcd-mls": np.max(sum(stack[:, k] for k in range(t)) / t, axis=-1)}


def ten_row_mc_bundle(seed=47, c=6, t=4):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 6.0, (10, c))
    mcd = logits[:, None, :] + rng.normal(0.0, 2.0, (10, t, c))
    return simple_bundle(logits, np.arange(10) % c, mcd_logits=mcd)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_blocked_mc_pass_is_bitwise_the_whole_stack(precision, monkeypatch):
    b = ten_row_mc_bundle()   # 4 passes, so numpy's mean over them adds them in order
    rows = three_row_blocks(monkeypatch)
    for temperature in (1.0, 1.5):
        cfg = SoftmaxConfig(precision=precision, temperature=temperature)
        got = compute_csfs(b, MC_SOFTMAX_CSFS + ["mcd-mls"], cfg)
        assert rows == [3, 3, 3, 1]
        per_pass = per_pass_mc_scores(b.mcd_logits, cfg)
        for csf in MC_SOFTMAX_CSFS + ["mcd-mls"]:
            want, _ = old_compute_csf(b, csf, cfg)   # one softmax over the whole stack
            assert got[csf].scores.tobytes() == want.tobytes() == per_pass[csf].tobytes(), (csf, temperature)
        rows.clear()


@pytest.mark.parametrize("precision, temperature, logit, error, message", [
    (F16, 1.0, 1e5, NonFiniteValue, "mcd-msr: NaN score at row 7"),    # inf after the cast to half
    (F64, 1e-300, 1e9, InvalidParameter, "overflows the f64 logits of row 7"),
])
def test_blocked_mc_pass_names_the_global_row(precision, temperature, logit, error, message, monkeypatch):
    b = ten_row_mc_bundle()
    b.mcd_logits[7, 2, 1] = logit   # row 1 of the third block
    rows = three_row_blocks(monkeypatch)
    with pytest.raises(error, match=message):
        compute_csfs(b, MC_SOFTMAX_CSFS, SoftmaxConfig(precision=precision, temperature=temperature))
    assert rows == [3, 3, 3, 1]


@pytest.mark.parametrize("precision, temperature, logit, error, message", [
    (F16, 1.0, 1e5, NonFiniteValue, "mcd-msr: NaN score at row 4"),
    (F64, 1e-300, 1e9, InvalidParameter, "overflows the f64 logits of row 4"),
])
def test_threaded_mc_pass_names_the_global_row(precision, temperature, logit, error, message, monkeypatch):
    b = ten_row_mc_bundle()
    b.mcd_logits[4, 2, 1] = logit   # row 1 of the second block, which the second thread takes
    rows = three_row_blocks(monkeypatch, workers=2)
    worker_blocks, counted = [], fdeval.scores._softmax

    def noting_the_worker(x, cfg, out=None):
        if threading.current_thread() is not threading.main_thread():
            worker_blocks.append((x.shape[0], bool((x == logit).any())))
        return counted(x, cfg, out=out)

    monkeypatch.setattr(fdeval.scores, "_softmax", noting_the_worker)
    with pytest.raises(error, match=message):
        compute_csfs(b, MC_SOFTMAX_CSFS, SoftmaxConfig(precision=precision, temperature=temperature))
    assert sorted(rows) == [1, 3, 3, 3]
    assert worker_blocks == [(3, True), (1, False)]   # blocks 1 and 3: rows 3-5, then row 9


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("precision", PRECISIONS)
def test_blocked_logits_pass_is_bitwise_one_whole_softmax(precision, workers, monkeypatch):
    # 90 rows in 30 blocks of 3: msr, pe and both likelihood terms of each block's softmax are those
    # of one softmax of the whole logits array; new-class rows' terms are NaN
    b = scored_bundle()
    cfg = SoftmaxConfig(precision=precision, temperature=1.5)
    p = old_softmax(b.logits, cfg)
    inlier = b.labels != b.ood_label
    labels = np.where(inlier, b.labels, 0)
    rows = three_row_blocks(monkeypatch, workers)
    got = compute_csfs(b, ["pe", "msr"], cfg, keep_terms=True)
    assert sorted(rows) == [3] * 30
    want = {
        "msr": np.max(p, axis=-1),
        "pe": -one_line_entropy(p),
        "nll": np.where(inlier, p[np.arange(b.n_samples), labels], np.nan),
        "brier": np.where(inlier, np.sum(np.square(p - np.eye(b.n_classes)[labels]), axis=1), np.nan),
    }
    for csf in ("msr", "pe"):
        assert got[csf].scores.tobytes() == want[csf].tobytes(), csf
    assert sorted(got.terms) == ["brier", "nll"]
    for name, terms in got.terms.items():
        assert terms.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("precision, temperature, logit, error, message", [
    (F16, 1.0, 1e5, NonFiniteValue, "msr: NaN score at row 4"),    # inf after the cast to half
    (F64, 1e-300, 1e9, InvalidParameter, "overflows the f64 logits of row 4"),
])
def test_blocked_logits_pass_names_the_global_row(precision, temperature, logit, error, message, workers,
                                                  monkeypatch):
    b = ten_row_mc_bundle()
    b.logits[4, 1] = logit   # row 1 of the second block, which the second thread takes on two workers
    rows = three_row_blocks(monkeypatch, workers)
    with pytest.raises(error, match=message):
        compute_csfs(b, ["msr", "pe"], SoftmaxConfig(precision=precision, temperature=temperature), keep_terms=True)
    assert sorted(rows) == [1, 3, 3, 3]


def test_blocked_logits_pass_names_the_global_row_of_a_bad_label(monkeypatch):
    b = ten_row_mc_bundle()
    b.labels[4] = -1   # row 1 of the second block: the labels are checked whole, not block by block
    three_row_blocks(monkeypatch, workers=2)
    with pytest.raises(LabelOutOfRange, match=r"got -1 at row 4$"):
        compute_csfs(b, ["msr"], keep_terms=True)


# the MC pass's minor page faults on scores-wide's shape, in a fresh process, after freeing a 4 MB
# array or not; glibc raises its mmap threshold to the size of a freed mapped chunk, after which a
# block's fresh 1 MB temporaries came from the heap instead of new, page-by-page faulted mappings
MC_FAULTS = """\
import resource, sys
import numpy as np
from fdeval.scores import SoftmaxConfig, _pass_scores
stack = np.empty((2000, 4, 400))
np.random.default_rng(67).standard_normal(out=stack)   # made in place, so no large array is freed
if sys.argv[1] == "free":
    big = np.ones(1 << 19)
    del big
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_pass_scores(stack, SoftmaxConfig(), {"max", "entropy", "expected_entropy"})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's malloc")
def test_mc_pass_faults_do_not_depend_on_an_earlier_large_free():
    # with per-thread scratch each worker maps its block-sized arrays once per pass: about 1400
    # faults either way on a 2-core VM, where fresh temporaries in every block took about 12000
    # without the free and about 1000 with it
    path = os.pathsep.join(filter(None, [str(Path(fdeval.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    faults = {}
    for mode in ("free", "keep"):
        proc = subprocess.run([sys.executable, "-c", MC_FAULTS, mode], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults[mode] = int(proc.stdout)
    assert max(faults.values()) < 2 * min(faults.values()) + 500, faults


@pytest.mark.parametrize("precision", PRECISIONS)
def test_worker_count_does_not_change_the_bytes(precision, monkeypatch):
    # 97 rows of 5 passes x 7 classes in blocks of 3 rows: 33 blocks, the last of one row
    b = scored_bundle(seed=53, n=97, c=7, t=5, d=6)
    cfg = SoftmaxConfig(precision=precision, temperature=1.3)
    monkeypatch.setattr(fdeval.scores, "_ROW_BLOCK", 3 * 5 * 7)
    got = {}
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)   # threads swap often; 8 of them is more than the cores
        for workers in (1, 2, 8):
            monkeypatch.setattr(fdeval.scores, "_workers", lambda workers=workers: workers)
            got[workers] = compute_csfs(b, list(CSF_IDS), cfg)
    finally:
        sys.setswitchinterval(switch)
    for csf in CSF_IDS:
        assert got[2][csf].scores.tobytes() == got[8][csf].scores.tobytes() == got[1][csf].scores.tobytes(), csf
        assert got[1][csf].scores.tobytes() == old_compute_csf(b, csf, cfg)[0].tobytes(), csf


# the peak is read as VmHWM (PEAK_KB); the logits' resident pages are the Rss of their file's mapping
LOAD_AND_SCORE = PEAK_KB + MAPPED_KB + """\
import json, sys
from fdeval import load_bundle
from fdeval.scores import SoftmaxConfig, compute_csfs
def logits_kb():
    return mapped_kb("logits.f64")
before = peak_kb()
bundle = load_bundle(sys.argv[1])
read_kb = logits_kb()
got = {p: compute_csfs(bundle, sys.argv[2:], SoftmaxConfig(p)) for p in ("f16", "f32", "f64")}
rise_kb, scored_kb = peak_kb() - before, logits_kb()
print(json.dumps({"rise_kb": rise_kb, "logits_kb": [read_kb, scored_kb], "predicted": bundle.predicted.tolist(),
                  "hex": {p: {csf: [float.hex(x) for x in vec.scores] for csf, vec in scores.items()}
                          for p, scores in got.items()}}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_mapped_mc_stack_is_not_held_and_scores_as_its_csv(tmp_path):
    # a 64 MB stack: loading it from .f64 copied it, and the copy stayed for the whole run; mapped,
    # each row block's pages go back once the finite check and then the MC pass have read it, and so
    # do the logits' blocks
    n, t, c = 1000, 32, 250
    rng = np.random.default_rng(61)
    logits = np.round(rng.normal(0.0, 3.0, (n, c)) * 16) / 16   # sixteenths, so the CSV stays short
    mcd = np.round((logits[:, None, :] + rng.normal(0.0, 1.0, (n, t, c))) * 16) / 16
    bundle = simple_bundle(logits, rng.integers(0, c, n), mcd_logits=mcd)
    binary = fdeval.write_bundle(bundle, tmp_path / "f64", binary=True)
    text = fdeval.write_bundle(bundle, tmp_path / "csv")
    del bundle, logits, mcd
    csfs = ["msr", "pe", "mls", *MC_SOFTMAX_CSFS, "mcd-mls"]
    path = os.pathsep.join(filter(None, [str(Path(fdeval.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOAD_AND_SCORE, str(binary), *csfs],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    mapped = json.loads(proc.stdout)
    stack_kb = n * t * c * 8 // 1024
    assert mapped["rise_kb"] < stack_kb // 2, (mapped["rise_kb"], stack_kb)
    # given back once the finite check has read them, and again once scored
    logits_kb = n * c * 8 // 1024
    assert max(mapped["logits_kb"]) < logits_kb // 16, mapped["logits_kb"]
    held = fdeval.load_bundle(text)
    assert mapped["predicted"] == held.predicted.tolist()
    for precision in PRECISIONS:
        scores = compute_csfs(held, csfs, SoftmaxConfig(precision))
        for csf in csfs:
            assert mapped["hex"][precision][csf] == [float.hex(x) for x in scores[csf].scores], (precision, csf)


def test_workers_take_the_callers_error_state_and_raise_in_it(monkeypatch):
    # numpy's error state is per thread, so an overflow on the second thread raises only if that
    # thread took the caller's state; its error then ends compute_csfs in the caller
    b = ten_row_mc_bundle()
    three_row_blocks(monkeypatch, workers=2)   # blocks 0 and 2 here, 1 and 3 on the second thread
    real = fdeval.scores._entropy

    def overflowing_off_the_caller(p, out=None):
        if threading.current_thread() is not threading.main_thread():
            np.array([1e308]) * 10.0
        return real(p, out=out)

    monkeypatch.setattr(fdeval.scores, "_entropy", overflowing_off_the_caller)
    with pytest.raises(FloatingPointError, match="overflow"), np.errstate(over="raise"):
        compute_csfs(b, ["mcd-ee"])


def test_map_rows_starts_no_thread_for_one_block_or_no_rows(monkeypatch):
    monkeypatch.setattr(fdeval.scores, "_workers", lambda: 2)
    monkeypatch.setattr(fdeval.scores.threading, "Thread", lambda *a, **k: pytest.fail("started a thread"))
    blocks = []
    fdeval.scores._map_rows(lambda lo, hi: blocks.append((lo, hi)), 5, 10)
    fdeval.scores._map_rows(lambda lo, hi: blocks.append((lo, hi)), 0, 10)
    assert blocks == [(0, 5)]
    # an empty bundle, which validate_bundle would refuse
    b = PredictionBundle(logits=np.empty((0, 3)), labels=np.empty(0, dtype=np.int64), shift_tags=[],
                         mcd_logits=np.empty((0, 2, 3)))
    assert all(v.scores.shape == (0,) for v in compute_csfs(b, MC_SOFTMAX_CSFS + ["mcd-mls"]).values())



@pytest.mark.parametrize("csfs, per_block", [
    (["mcd-msr"], []),
    (["mcd-ee"], ["passes"]),
    (["mcd-pe"], ["mean"]),
    (["mcd-mi"], ["passes", "mean"]),
    (MC_SOFTMAX_CSFS, ["passes", "mean"]),
])
def test_mc_entropies_are_taken_once_per_block(csfs, per_block, monkeypatch):
    b = ten_row_mc_bundle()   # 4 passes, 6 classes
    three_row_blocks(monkeypatch)
    shapes, real = [], fdeval.scores._entropy
    monkeypatch.setattr(fdeval.scores, "_entropy", lambda p, out=None: shapes.append(p.shape) or real(p, out=out))
    compute_csfs(b, csfs)
    # one entropy of each block's passes and one of its mean, however many CSFs read them
    form = {"passes": lambda rows: (rows, 4, 6), "mean": lambda rows: (rows, 6)}
    assert shapes == [form[kind](rows) for rows in (3, 3, 3, 1) for kind in per_block]
