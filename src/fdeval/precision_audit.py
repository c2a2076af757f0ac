"""Audit of softmax-confidence ranking under reduced floating-point precision.

Low-precision softmax collapses large logit gaps onto max-probability exactly
1.0, destroying the ranking that failure detection depends on even while
accuracy is untouched. The audit quantifies this per precision: the fraction
of informative rows whose top softmax rounds to exactly 1.0, plus AURC /
failure-AUROC of the resulting confidence vector. Mitigations mirrored here:
wider storage (f64) or temperature scaling before the softmax.

msr comes from compute_csfs's row-blocked logits pass, which casts the logits
to the precision first, so no (n, c) softmax is made and storage quantization
changes only which rows hold distinct logits, and the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PredictionBundle, ShiftTag, _argmax_rows, _row_blocks, failure_labels, validate_bundle
from .errors import EmptyEvaluationSet, InvalidParameter
# aurc, rc_curve, auroc_f and softmax are not called here (audit reads SWEEP_METRICS off one _Sweep,
# and msr off the logits pass); fdbench/tracing.py binds them in fdeval.precision_audit by name
from .metrics import SWEEP_METRICS, _Sweep, aurc, auroc_f, rc_curve  # noqa: F401
from .scores import _DTYPES, F64, PRECISIONS, SoftmaxConfig, _nan_free, _pass_scores, quantize
from .scores import softmax  # noqa: F401

# A runner-up class is kept within this many nats of the top logit so that an
# f64 softmax always sees tail mass above the half-ulp at 1.0 (e^-35 ~ 6.3e-16
# > 2^-53): the f64 rate stays exactly 0 for any requested gap range while
# f16/f32 still collapse.
_RUNNER_UP_CAP = 35.0


@dataclass
class PrecisionAuditReport:
    precisions: list[str]
    round_to_one_rate: dict[str, float] = field(default_factory=dict)
    aurc: dict[str, float] = field(default_factory=dict)
    auroc_f: dict[str, float] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)


def _row_extremes(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max and min, one row block at a time, so a mapped .f64 file gives its pages back as
    they are read (core._row_blocks)."""
    top, bottom = np.empty(logits.shape[0]), np.empty(logits.shape[0])
    for lo, block in _row_blocks(logits):
        np.max(block, axis=-1, out=top[lo:lo + len(block)])
        np.min(block, axis=-1, out=bottom[lo:lo + len(block)])
    return top, bottom


def round_to_one_count(logits: np.ndarray, precision: str, temperature: float = 1.0) -> int:
    """Rows whose max softmax is exactly 1.0 despite carrying >= 2 distinct logits."""
    logits = np.asarray(logits, dtype=np.float64)
    logits = logits.reshape(-1, logits.shape[-1])   # a row along the last axis, as softmax takes them
    msr = _pass_scores(logits[:, None], SoftmaxConfig(precision=precision, temperature=temperature), ("max",))["max"]
    top, bottom = _row_extremes(logits)
    return int(np.count_nonzero((msr == 1.0) & (top != bottom)))


def audit(bundle: PredictionBundle, temperature: float = 1.0, quantize_storage: bool = True) -> PrecisionAuditReport:
    """Evaluate max-softmax ranking at each precision in PRECISIONS.

    The failures are fixed across precisions: the residuals of the bundle's
    f64 predictions, as failure_labels gives them. quantize_storage=True
    reproduces the stored-at-low-precision scenario (logits rounded before any
    arithmetic); False keeps f64 storage and only reduces the softmax
    arithmetic.
    """
    if bundle.n_samples == 0:
        raise EmptyEvaluationSet("no samples to audit")
    res = failure_labels(bundle).residuals
    # rounding is monotone, so a row's stored logits are distinct where its rounded max and min differ
    top, bottom = _row_extremes(bundle.logits)
    report = PrecisionAuditReport(precisions=list(PRECISIONS))
    for p in PRECISIONS:
        storage = p if quantize_storage else F64
        cfg = SoftmaxConfig(precision=p, temperature=temperature)
        # a logit beyond f16's range stores as inf, and its row's msr is NaN
        msr = _pass_scores(bundle.logits[:, None], cfg, ("max",))["max"]
        msr = _nan_free(msr, f"{p} msr", bundle.logits, cfg)
        distinct = quantize(top, storage) != quantize(bottom, storage)
        report.round_to_one_rate[p] = float(np.mean((msr == 1.0) & distinct))
        sweep = _Sweep(msr, res)
        report.aurc[p] = SWEEP_METRICS["aurc"](sweep)
        report.auroc_f[p] = SWEEP_METRICS["auroc-f"](sweep)
        # the f64 logits were argmaxed once, for the bundle
        predicted = bundle.predicted if storage == F64 else _argmax_rows(bundle.logits, _DTYPES[storage])
        report.accuracy[p] = float(np.mean(predicted == bundle.labels))
    return report


def synthesize_highconf_bundle(
    n: int,
    c: int,
    failure_rate: float,
    gap_low: float,
    gap_high: float,
    seed: int,
) -> PredictionBundle:
    """Seeded bundle of high-gap logit rows for precision experiments.

    Each row puts its top class gap nats above the rest; correct samples draw
    larger gaps than failures on average, so full-precision max-softmax ranks
    failures well and collapsed low-precision ranking does not. A failure is
    labelled with the runner-up class, so failure_labels gives back the drawn
    failures.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if c < 2:
        raise InvalidParameter(f"c must be >= 2, got {c}")
    if n * c > np.iinfo(np.intp).max // 8:   # the f64 logits would need more bytes than numpy can index
        raise InvalidParameter(f"n x c = {n} x {c} logits exceed the largest array numpy can index")
    if not (0.0 < failure_rate < 1.0):
        raise InvalidParameter(f"failure_rate must lie in (0, 1), got {failure_rate}")
    if not 0 <= gap_low <= gap_high < np.inf:    # a NaN fails every comparison
        raise InvalidParameter(f"need 0 <= gap_low <= gap_high < inf, got [{gap_low}, {gap_high}]")
    if seed < 0:   # numpy's generator takes no negative seed
        raise InvalidParameter(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    residuals = (rng.random(n) < failure_rate).astype(np.int8)
    # overlapping gap ranges, failures biased low
    u = np.where(residuals == 1, rng.uniform(0.0, 0.7, n), rng.uniform(0.3, 1.0, n))
    gaps = gap_low + (gap_high - gap_low) * u

    top = rng.integers(0, c, n)
    second = (top + 1) % c
    logits = np.zeros((n, c))
    rows = np.arange(n)
    logits[rows, top] = gaps
    logits[rows, second] = np.maximum(0.0, gaps - _RUNNER_UP_CAP)

    labels = np.where(residuals == 1, second, top).astype(np.int64)
    # zero-gap rows are fully tied; argmax falls to class 0, keep labels consistent
    tied = gaps == 0.0
    if tied.any():
        labels[tied] = np.where(residuals[tied] == 1, 1, 0)

    bundle = PredictionBundle(
        logits=logits,
        labels=labels,
        shift_tags=np.full(n, ShiftTag.IID.value, dtype="U24"),
    )
    return validate_bundle(bundle)
