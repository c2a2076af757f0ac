"""Failure-detection evaluation: confidence scores, selective-classification
metrics, risk-guaranteed thresholds, and a softmax precision audit, all over
stored classifier outputs."""

from .core import (
    NEWCLASS,
    STANDARD,
    FailureLabels,
    PredictionBundle,
    ShiftTag,
    failure_labels,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from .metrics import (
    RiskCoverageCurve,
    accuracy,
    ap_f,
    aurc,
    auroc_f,
    auroc_out,
    brier,
    e_aurc,
    nll,
    rc_curve,
)
from .oracle import aurc_oracle, auroc_oracle
from .precision_audit import (
    PrecisionAuditReport,
    audit,
    round_to_one_count,
    synthesize_highconf_bundle,
)
from .protocol import MetricReport, StudySpec, rank_table, run_study
from .risk_control import (
    PlattModel,
    SgrResult,
    ece,
    platt_apply,
    platt_fit,
    sgr_select,
)
from .scores import (
    CSF_IDS,
    ConfidenceVector,
    MahaModel,
    SoftmaxConfig,
    compute_csf,
    compute_csfs,
    fit_mahalanobis,
    quantize,
    score_mahalanobis,
    softmax,
)

__version__ = "0.1.0"
