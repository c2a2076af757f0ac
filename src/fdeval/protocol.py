"""Study orchestration: which samples, which scores, which metrics, ranked how.

A study is a named slice of a bundle (by shift tag) evaluated under either
the standard protocol (every misclassification is a failure) or the new-class
protocol (misclassified IID-tagged rows are dismissed from the ranking mask;
accuracy still covers all samples). Results land in a MetricReport keyed by
(study, csf, metric), with competition ranks per (study, metric) column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    NEWCLASS,
    NEWCLASS_TAGS,
    STANDARD,
    STUDY_KINDS,
    ALL_TAGS,
    PredictionBundle,
    ShiftTag,
    failure_labels,
)
from .errors import EmptyEvaluationSet, FdevalError, InvalidParameter
from . import metrics as M
from .risk_control import ece, platt_apply, platt_fit
# compute_csf is not called here; fdbench/tracing.py binds fdeval.protocol.compute_csf by name
from .scores import CsfScores, compute_csf, softmax  # noqa: F401

LOWER_BETTER = frozenset({"aurc", "e-aurc", "ece", "nll", "brier"})
KNOWN_METRICS = (
    "aurc",
    "e-aurc",
    "auroc-f",
    "ap-f",
    "ap-f-err",
    "auroc-out",
    "accuracy",
    "nll",
    "brier",
    "ece",
)
DEFAULT_METRICS = ("aurc", "e-aurc", "auroc-f", "accuracy")
RANKING_METRICS = frozenset({"aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "auroc-out"})
# the classifier metrics that read the logits softmax, so a run holds it only when a study asks for one
SOFTMAX_METRICS = frozenset({"nll", "brier"})


@dataclass(frozen=True)
class StudySpec:
    name: str
    kind: str = STANDARD
    shift_filter: tuple[str, ...] = tuple(ALL_TAGS)
    metrics: tuple[str, ...] = DEFAULT_METRICS

    def __post_init__(self):
        if not self.name:
            raise InvalidParameter("study name must be non-empty")
        if self.kind not in STUDY_KINDS:
            raise InvalidParameter(f"study kind must be one of {STUDY_KINDS}, got {self.kind!r}")
        if not self.shift_filter or not self.metrics:
            raise InvalidParameter(f"study {self.name!r} must list at least one shift tag and one metric")
        for tag in self.shift_filter:
            if tag not in ALL_TAGS:
                raise InvalidParameter(f"unknown shift tag {tag!r}")
        for m in self.metrics:
            if m not in KNOWN_METRICS:
                raise InvalidParameter(f"unknown metric {m!r}")
        if self.kind == NEWCLASS:
            if not any(t in NEWCLASS_TAGS for t in self.shift_filter):
                raise InvalidParameter(f"new-class study {self.name!r} must include a new-class tag")
            if ShiftTag.IID.value not in self.shift_filter:
                raise InvalidParameter(f"new-class study {self.name!r} must include the IID tag")


@dataclass
class MetricReport:
    values: dict[tuple[str, str, str], float] = field(default_factory=dict)
    ranks: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)
    study_info: dict[str, dict] = field(default_factory=dict)

    def merge(self, other: "MetricReport") -> "MetricReport":
        self.values.update(other.values)
        self.ranks.update(other.ranks)
        self.study_info.update(other.study_info)
        return self


def _ece_of(conf, res, bins: int) -> float:
    """ECE of the evaluated confidences against their residuals, of a Platt fit unless they lie in [0, 1]."""
    raw = conf.min() >= 0.0 and conf.max() <= 1.0
    return ece(conf if raw else platt_apply(platt_fit(conf, res), conf), res, bins=bins)


def run_study(
    bundle: PredictionBundle,
    spec: StudySpec,
    scores: CsfScores,
    ece_bins: int = 15,
    on_curve=None,
) -> MetricReport:
    """Evaluate every scored CSF under one study; returns a report fragment.

    scores maps each CSF to its confidences over all bundle rows, as
    compute_csfs returns them; the study keeps the rows its shift filter
    selects, also of the logits softmax that scores.probs holds; when it holds
    none, nll and brier softmax the study's rows at scores.cfg, the
    configuration the scores were computed at. What depends on the study
    alone (its evaluated rows, their residuals, the optimal AURC behind
    E-AURC) is computed once; each CSF then gathers its evaluated confidences
    once, for ece and one sweep. on_curve(study name, csf, curve), when given,
    receives each CSF's curve.
    """
    keep = bundle.tagged(spec.shift_filter)
    if not keep.any():
        raise EmptyEvaluationSet(f"study {spec.name!r}: no samples match {spec.shift_filter}")
    # the study's rows are read through masks, so no study copies the bundle's logits, labels and tags
    flabels = failure_labels(bundle, spec.kind, keep)

    report = MetricReport()
    report.study_info[spec.name] = {
        "kind": spec.kind,
        "n": flabels.residuals.shape[0],
        "n_evaluated": int(flabels.eval_mask.sum()),
    }

    # accuracy, NLL and Brier rate the classifier, not a CSF: one value per study
    classifier = {}
    try:
        if "accuracy" in spec.metrics:
            classifier["accuracy"] = M.accuracy(flabels)
        if not SOFTMAX_METRICS.isdisjoint(spec.metrics):
            # softmax is rowwise, so the run's softmax of the study's inlier rows is their own softmax
            rows = keep & (bundle.labels != bundle.ood_label)
            probs = softmax(bundle.logits[rows], scores.cfg) if scores.probs is None else scores.probs[rows]
            for metric, fn in (("nll", M.nll), ("brier", M.brier)):
                if metric in spec.metrics:
                    classifier[metric] = fn(probs, bundle.labels[rows])
    except FdevalError as exc:
        raise type(exc)(f"[study {spec.name}] {exc}") from exc

    evaluated = keep.copy()
    evaluated[keep] = flabels.eval_mask
    res = flabels.residuals[flabels.eval_mask]
    inlier = bundle.labels[evaluated] != bundle.ood_label
    # the AURC of the study's optimal ranking, the same for every CSF
    optimum = M._optimal_aurc(res) if "e-aurc" in spec.metrics else None
    needs_sweep = on_curve is not None or not RANKING_METRICS.isdisjoint(spec.metrics)
    for csf, vec in scores.items():
        try:
            conf = vec.scores[evaluated]
            sweep = M._Sweep(conf, res) if needs_sweep else None
            for metric in spec.metrics:  # StudySpec admits only the names below and the classifier's
                if metric in classifier:
                    value = classifier[metric]
                elif metric in M.SWEEP_METRICS:
                    value = M.SWEEP_METRICS[metric](sweep)
                elif metric == "e-aurc":
                    value = M.SWEEP_METRICS["aurc"](sweep) - optimum  # the expression of M.e_aurc
                elif metric == "auroc-out":
                    value = sweep.auroc(sweep.counts(inlier))
                else:
                    value = _ece_of(conf, res, ece_bins)
                report.values[(spec.name, csf, metric)] = float(value)
            if on_curve is not None:
                on_curve(spec.name, csf, sweep.curve)
        except FdevalError as exc:
            raise type(exc)(f"[study {spec.name} / {csf}] {exc}") from exc
    return report


def rank_table(report: MetricReport) -> MetricReport:
    """Fill competition ranks (ties share the smallest rank) per study+metric."""
    columns: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for (study, csf, metric), value in report.values.items():
        columns.setdefault((study, metric), []).append((csf, value))
    for (study, metric), entries in columns.items():
        lower = metric in LOWER_BETTER    # a CSF's rank is 1 + the number of strictly better values
        report.ranks[(study, metric)] = {csf: 1 + sum(v < value if lower else v > value for _, v in entries)
                                         for csf, value in entries}
    return report
