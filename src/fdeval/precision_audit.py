"""Audit of softmax-confidence ranking under reduced floating-point precision.

Low-precision softmax collapses large logit gaps onto max-probability exactly
1.0, destroying the ranking that failure detection depends on even while
accuracy is untouched. The audit quantifies this per precision: the fraction
of informative rows whose top softmax rounds to exactly 1.0, plus AURC /
failure-AUROC of the resulting confidence vector. Mitigations mirrored here:
wider storage (f64) or temperature scaling before the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PredictionBundle, ShiftTag, failure_labels, validate_bundle
from .errors import EmptyEvaluationSet, InvalidParameter
# aurc, rc_curve and auroc_f are not called here (audit reads SWEEP_METRICS off one _Sweep);
# fdbench/tracing.py binds fdeval.precision_audit.aurc, .rc_curve and .auroc_f by name
from .metrics import SWEEP_METRICS, _Sweep, aurc, auroc_f, rc_curve  # noqa: F401
from .scores import PRECISIONS, SoftmaxConfig, _nan_free, quantize, softmax

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


def _rounds_to_one(msr: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Rows whose max softmax is exactly 1.0 despite carrying >= 2 distinct logits."""
    return (msr == 1.0) & (np.max(logits, axis=-1) != np.min(logits, axis=-1))


def round_to_one_count(logits: np.ndarray, precision: str, temperature: float = 1.0) -> int:
    """Rows whose max softmax is exactly 1.0 despite carrying >= 2 distinct logits."""
    p = softmax(logits, SoftmaxConfig(precision=precision, temperature=temperature))
    return int(np.sum(_rounds_to_one(np.max(p, axis=-1), logits)))


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
    report = PrecisionAuditReport(precisions=list(PRECISIONS))
    for p in PRECISIONS:
        logits = quantize(bundle.logits, p) if quantize_storage else bundle.logits
        cfg = SoftmaxConfig(precision=p, temperature=temperature)
        # a logit beyond f16's range stores as inf, and its row's msr is NaN
        msr = _nan_free(np.max(softmax(logits, cfg), axis=-1), f"{p} msr", logits, cfg)
        report.round_to_one_rate[p] = float(np.mean(_rounds_to_one(msr, logits)))
        sweep = _Sweep(msr, res)
        report.aurc[p] = SWEEP_METRICS["aurc"](sweep)
        report.auroc_f[p] = SWEEP_METRICS["auroc-f"](sweep)
        report.accuracy[p] = float(np.mean(np.argmax(logits, axis=1) == bundle.labels))
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
