import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import PEAK_KB, child_env, simple_bundle, three_row_blocks
from fdeval import (
    PredictionBundle,
    SoftmaxConfig,
    audit,
    aurc,
    auroc_f,
    failure_labels,
    load_bundle,
    quantize,
    rc_curve,
    round_to_one_count,
    softmax,
    synthesize_highconf_bundle,
    write_bundle,
)
from fdeval.errors import EmptyEvaluationSet, InvalidParameter
from fdeval.scores import F16, F32, F64, PRECISIONS, _softmax


def test_round_to_one_mechanism_per_precision():
    row = np.array([[30.0, 0.0, 0.0]])
    assert round_to_one_count(row, F16) == 1
    assert round_to_one_count(row, F32) == 1
    assert round_to_one_count(row, F64) == 0
    # a row along the last axis of any array, as softmax takes them
    assert round_to_one_count(row[0], F16) == 1
    assert round_to_one_count(np.stack([row, row, np.zeros((1, 3))]), F32) == 2


def test_round_to_one_f64_threshold_sits_near_36():
    # the tail e^-gap must stay above the half-ulp at 1.0 (2^-53) to survive
    # the f64 summation; with a single runner-up that flips between 36 and 38
    assert round_to_one_count(np.array([[36.0, 0.0]]), F64) == 0
    assert round_to_one_count(np.array([[38.0, 0.0]]), F64) == 1
    assert round_to_one_count(np.array([[700.0, 0.0]]), F64) == 1


def test_uninformative_rows_never_count():
    tied = np.zeros((5, 4))
    for p in (F16, F32, F64):
        assert round_to_one_count(tied, p) == 0


def test_synthesize_is_deterministic_and_consistent():
    b1 = synthesize_highconf_bundle(n=500, c=6, failure_rate=0.3, gap_low=20, gap_high=40, seed=3)
    b2 = synthesize_highconf_bundle(n=500, c=6, failure_rate=0.3, gap_low=20, gap_high=40, seed=3)
    assert np.array_equal(b1.logits, b2.logits)
    assert np.array_equal(b1.labels, b2.labels)
    b3 = synthesize_highconf_bundle(n=500, c=6, failure_rate=0.3, gap_low=20, gap_high=40, seed=4)
    assert not np.array_equal(b1.logits, b3.logits)
    # the top logit is the unique maximum, and a failure carries the runner-up's label
    top = np.argmax(b1.logits, axis=1)
    assert (np.sum(b1.logits == b1.logits[np.arange(500), top][:, None], axis=1) == 1).all()
    fl = failure_labels(b1)
    assert np.array_equal(fl.residuals == 1, b1.labels == (top + 1) % 6)


def test_synthesize_failure_count_tracks_rate():
    n, rate = 20000, 0.3
    res = failure_labels(synthesize_highconf_bundle(n=n, c=10, failure_rate=rate, gap_low=20, gap_high=40,
                                                    seed=9)).residuals
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(int(res.sum()) - n * rate) < 4 * sigma


def test_synthesize_zero_gap_rows_stay_consistent():
    b = synthesize_highconf_bundle(n=200, c=4, failure_rate=0.4, gap_low=0, gap_high=0, seed=1)
    # tied rows predict class 0: a success is labelled 0 and a failure 1
    res = failure_labels(b).residuals
    assert np.array_equal(res, b.labels) and 0 < res.sum() < 200
    report = audit(b)
    for p in (F16, F32, F64):
        assert report.round_to_one_rate[p] == 0.0  # fully tied rows are uninformative


def test_synthesize_parameter_guards():
    with pytest.raises(InvalidParameter):
        synthesize_highconf_bundle(n=0, c=3, failure_rate=0.3, gap_low=1, gap_high=2, seed=0)
    with pytest.raises(InvalidParameter):
        synthesize_highconf_bundle(n=5, c=1, failure_rate=0.3, gap_low=1, gap_high=2, seed=0)
    with pytest.raises(InvalidParameter):
        synthesize_highconf_bundle(n=5, c=3, failure_rate=0.0, gap_low=1, gap_high=2, seed=0)
    with pytest.raises(InvalidParameter):
        synthesize_highconf_bundle(n=5, c=3, failure_rate=0.3, gap_low=3, gap_high=2, seed=0)
    with pytest.raises(InvalidParameter, match="largest array numpy can index"):   # before any allocation
        synthesize_highconf_bundle(n=100, c=10**18, failure_rate=0.3, gap_low=1, gap_high=2, seed=0)
    with pytest.raises(InvalidParameter, match="^seed must be >= 0, got -1$"):   # numpy's generator refuses it
        synthesize_highconf_bundle(n=5, c=3, failure_rate=0.3, gap_low=1, gap_high=2, seed=-1)


def test_audit_rate_ordering_and_ranking_damage():
    b = synthesize_highconf_bundle(n=2000, c=10, failure_rate=0.3, gap_low=20, gap_high=40, seed=7)
    report = audit(b)
    r16, r32, r64 = (report.round_to_one_rate[p] for p in (F16, F32, F64))
    assert r16 >= r32 >= r64
    assert r64 == 0.0
    assert r32 == 1.0  # every gap in [20, 40] collapses a single-precision softmax
    # collapsed scores are all tied, so the ranking carries no signal
    assert report.auroc_f[F32] == 0.5
    assert report.auroc_f[F64] > 0.7
    # the failure pattern itself is precision-independent here
    assert report.accuracy[F16] == report.accuracy[F64]


def test_audit_temperature_mitigation():
    b = synthesize_highconf_bundle(n=2000, c=10, failure_rate=0.3, gap_low=20, gap_high=40, seed=7)
    hot = audit(b, temperature=4.0)
    assert hot.round_to_one_rate[F32] == 0.0
    assert hot.auroc_f[F32] > 0.7


def test_audit_f64_immune_even_for_huge_stored_gaps():
    # the generator caps the runner-up 35 nats below the top logit, so the
    # f64 softmax keeps tail mass no matter how large the top gap gets
    b = synthesize_highconf_bundle(n=500, c=5, failure_rate=0.3, gap_low=500, gap_high=600, seed=2)
    report = audit(b)
    assert report.round_to_one_rate[F64] == 0.0
    assert report.round_to_one_rate[F32] == 1.0


def test_audit_quantize_storage_affects_argmax():
    logits = np.array([[5.0, 5.0 + 1e-9, 0.0]] * 2 + [[0.0, 1.0, 2.0]] * 2)
    labels = np.array([1, 1, 0, 0])
    b = simple_bundle(logits, labels)
    assert failure_labels(b).residuals.tolist() == [0, 0, 1, 1]
    stored = audit(b, quantize_storage=True)
    kept = audit(b, quantize_storage=False)
    # half rounding merges the near-tie, flipping argmax to the lower index
    assert stored.accuracy[F16] == 0.0
    assert kept.accuracy[F16] == 0.5


def test_audit_input_guards():
    empty = PredictionBundle(logits=np.zeros((0, 3)), labels=np.zeros(0, dtype=np.int64),
                             shift_tags=np.zeros(0, dtype="U24"))
    with pytest.raises(EmptyEvaluationSet):
        audit(empty)


def test_audit_sorts_once_per_precision(monkeypatch):
    b = synthesize_highconf_bundle(n=300, c=5, failure_rate=0.3, gap_low=1, gap_high=40, seed=3)
    res = failure_labels(b).residuals
    sorts = []
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or real_argsort(*args, **kwargs))
    report = audit(b)
    monkeypatch.undo()
    assert len(sorts) == len(PRECISIONS)
    # the one sweep gives what the public metrics give
    for p in PRECISIONS:
        logits = quantize(b.logits, p)
        msr = np.max(softmax(logits, SoftmaxConfig(precision=p)), axis=-1)
        assert report.aurc[p] == aurc(rc_curve(msr, res))
        assert report.auroc_f[p] == auroc_f(msr, res)
        assert report.round_to_one_rate[p] == round_to_one_count(logits, p) / b.n_samples


@pytest.mark.parametrize("quantize_storage", [True, False])
def test_audit_makes_no_array_of_the_logits_shape(quantize_storage, tmp_path):
    # msr comes from the row-blocked logits pass, the distinct-logit test from each row's max and min,
    # and the stored argmax one row block at a time, so the audit's temporaries are n-long. Measured:
    # 0.05x of the logits' bytes; 2.5x (stored) and 1.5x (compute only) when each precision took a
    # whole softmax after a quantized copy of the logits
    b = synthesize_highconf_bundle(n=2000, c=400, failure_rate=0.3, gap_low=1, gap_high=40, seed=11)
    b = load_bundle(write_bundle(b, tmp_path / "wide", binary=True))
    assert not b.logits.flags.writeable   # a mapped .f64 file
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        audit(b, quantize_storage=quantize_storage)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * b.logits.nbytes


# the rise of this process's peak resident kB while it audits a mapped bundle, and the report
AUDIT_MAPPED = PEAK_KB + """\
import dataclasses, json, sys
from fdeval import audit, load_bundle
bundle = load_bundle(sys.argv[1])
before = peak_kb()
report = dataclasses.asdict(audit(bundle))
print(json.dumps({"rise_kb": peak_kb() - before, "report": report}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_audit_of_a_mapped_bundle_holds_little_of_its_logits(tmp_path):
    # 64 MB of logits, read in row blocks that give their pages back (core._row_blocks). The rise,
    # 6-8 MB, is the scoring pass's per-thread scratch and pages in flight. Taking each row's max and
    # min over the whole array made every page of logits.f64 resident at once: a 62.5 MB rise
    n, c = 20_000, 400
    rng = np.random.default_rng(31)
    b = PredictionBundle(rng.normal(0.0, 4.0, (n, c)), rng.integers(0, c, n), np.full(n, "IID"))
    directory = write_bundle(b, tmp_path / "b", binary=True)
    proc = subprocess.run([sys.executable, "-c", AUDIT_MAPPED, str(directory)],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    logits_kb = b.logits.nbytes // 1024
    assert got["rise_kb"] < logits_kb // 4, (got["rise_kb"], logits_kb)
    assert got["report"] == json.loads(json.dumps(dataclasses.asdict(audit(b))))


@pytest.mark.parametrize("temperature", [1.0, 1.5])
@pytest.mark.parametrize("precision", PRECISIONS)
def test_softmax_of_stored_logits_is_that_of_the_f64_logits(precision, temperature):
    # _softmax casts the logits to its precision first, so rounding them to that precision's storage
    # grid beforehand changes no bit, in the rows beyond f16's range too, whose f16 softmax is NaN
    x = np.random.default_rng(29).normal(0.0, 30.0, (64, 9))
    x[::7, 3] = 7e4
    x[::11, 5] = -1e5
    cfg = SoftmaxConfig(precision=precision, temperature=temperature)
    want = _softmax(x, cfg)
    assert np.isnan(want).any() == (precision == F16)
    assert _softmax(quantize(x, precision), cfg).tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("quantize_storage", [True, False])
def test_audit_in_row_blocks_is_the_one_block_audit(quantize_storage, workers, monkeypatch):
    # ten rows in blocks of 3 on one or two threads; near-ties that f16 storage merges and gaps that
    # collapse f16 and f32 make every field depend on each row
    rng = np.random.default_rng(31)
    logits = rng.normal(0.0, 3.0, (10, 5))
    logits[::3, 0] += 30.0
    logits[1, :2] = [5.0, 5.0 + 1e-9]
    b = simple_bundle(logits, np.arange(10) % 5)
    want = audit(b, temperature=1.5, quantize_storage=quantize_storage)
    rows = three_row_blocks(monkeypatch, workers)
    got = audit(b, temperature=1.5, quantize_storage=quantize_storage)
    assert sorted(rows) == [1] * 3 + [3] * 9   # the logits pass at each precision
    assert got == want
