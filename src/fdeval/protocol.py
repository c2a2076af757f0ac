"""Study orchestration: which samples, which scores, which metrics, ranked how.

A study is a named slice of a bundle (by shift tag) evaluated under either
the standard protocol (every misclassification is a failure) or the new-class
protocol (misclassified IID-tagged rows are dismissed from the ranking mask;
accuracy still covers all samples). Results land in a MetricReport keyed by
(study, csf, metric), with competition ranks per (study, metric) column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# compute_csf and softmax are not called here; fdbench/tracing.py binds them in fdeval.protocol by name
from .scores import CsfScores, _held_scratch, compute_csf, compute_csfs, softmax  # noqa: F401

LOWER_BETTER = frozenset({"aurc", "e-aurc", "ece", "nll", "brier"})
DEFAULT_METRICS = ("aurc", "e-aurc", "auroc-f", "accuracy")
# the metrics read off a (study, CSF) sweep: the table metrics.SWEEP_METRICS, and two that also read the
# study's optimal AURC or its inlier flags
RANKING_METRICS = frozenset({*M.SWEEP_METRICS, "e-aurc", "auroc-out"})
# the classifier metrics that read the logits softmax, so a run keeps their per-row terms only when a
# study asks for one
SOFTMAX_METRICS = frozenset(M.LIKELIHOOD_METRICS)
KNOWN_METRICS = (*M.SWEEP_METRICS, "e-aurc", "auroc-out", "accuracy", *M.LIKELIHOOD_METRICS, "ece")


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
    selects. nll and brier reduce the per-row terms that scores.terms holds,
    at the study's inlier rows; when it holds none, compute_csfs takes them
    at scores.cfg, the configuration the scores were computed at. What
    depends on the study alone (its evaluated rows, their residuals, the
    optimal AURC behind E-AURC) is computed once; each CSF then gathers its
    evaluated confidences once, for ece and one sweep. on_curve(study name,
    csf, curve), when given, receives each CSF's curve.
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
        wanted = [metric for metric in spec.metrics if metric in SOFTMAX_METRICS]
        if wanted:
            rows = keep & (bundle.labels != bundle.ood_label)
            if not rows.any():
                raise EmptyEvaluationSet("no samples")
            # without kept terms, those of the logits pass of compute_csfs at the scores' cfg
            terms = scores.terms or compute_csfs(bundle, [], scores.cfg, keep_terms=True).terms
            for metric in wanted:
                classifier[metric] = M.LIKELIHOOD_METRICS[metric](terms[metric][rows])
    except FdevalError as exc:
        raise type(exc)(f"[study {spec.name}] {exc}") from exc

    evaluated = keep.copy()
    evaluated[keep] = flabels.eval_mask
    res = flabels.residuals[flabels.eval_mask]
    inlier = bundle.labels[evaluated] != bundle.ood_label
    needs_curve = on_curve is not None or not {"aurc", "e-aurc"}.isdisjoint(spec.metrics)
    needs_sweep = needs_curve or not RANKING_METRICS.isdisjoint(spec.metrics)
    n = res.shape[0]
    with _held_scratch():   # the study's scratch words and flags (metrics._words), unmapped when it ends
        # the AURC of the study's optimal ranking, the same for every CSF
        optimum = M._optimal_aurc(res) if "e-aurc" in spec.metrics else None
        for csf, vec in scores.items():
            try:
                values = dict(classifier)
                conf = M._compress(evaluated, vec.scores, M._words("w3", n, np.float64))
                # the sweep's per-group counts overwrite conf in w3 (metrics._words)
                sweep = M._Sweep(conf, res) if needs_sweep else None
                for metric in spec.metrics:   # values holds the classifier's; aurc and e-aurc are read below
                    if metric == "ece":
                        if sweep is not None:
                            M._compress(evaluated, vec.scores, conf)
                        values[metric] = _ece_of(conf, res, ece_bins)
                    elif metric == "auroc-out":
                        values[metric] = sweep.auroc(sweep.counts(inlier))
                    elif metric in M.SWEEP_METRICS and metric != "aurc":
                        values[metric] = M.SWEEP_METRICS[metric](sweep)
                curve = None
                if needs_curve:
                    # last, from the residuals in sweep order and the group starts alone, once the sweep's
                    # order and sizes are freed
                    sorted_res, starts = sweep.res, sweep.starts
                    sweep = None
                    curve = M._curve(sorted_res, starts)
                    del sorted_res, starts
                    if "aurc" in spec.metrics or optimum is not None:
                        values["aurc"] = M.aurc(curve)
                    if optimum is not None:
                        values["e-aurc"] = values["aurc"] - optimum   # the expression of M.e_aurc
                for metric in spec.metrics:
                    report.values[(spec.name, csf, metric)] = float(values[metric])
                if on_curve is not None:
                    on_curve(spec.name, csf, curve)
                del sweep, curve   # before the next CSF's
            except FdevalError as exc:
                raise type(exc)(f"[study {spec.name} / {csf}] {exc}") from exc
    return report


def rank_table(report: MetricReport) -> MetricReport:
    """Fill competition ranks per study+metric: a CSF's rank is 1 + the number of better values.

    A value v is better than w only when it wins by more than
    1e-12 * max(|v|, |w|) (math.isclose's relative test), so two values that
    are equal up to rounding share a rank. The test is pairwise: in a chain of
    near-equal values such as 1, 1 + 0.9e-12 and 1 + 1.8e-12 (higher better),
    the ends differ by more than the tolerance, so the first two are equal
    under the rule yet rank 2 and 1.
    """
    columns: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for (study, csf, metric), value in report.values.items():
        columns.setdefault((study, metric), []).append((csf, value))
    for (study, metric), entries in columns.items():
        lower = metric in LOWER_BETTER
        report.ranks[(study, metric)] = {
            csf: 1 + sum((v < value if lower else v > value) and not math.isclose(v, value, rel_tol=1e-12)
                         for _, v in entries)
            for csf, value in entries
        }
    return report
