import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdeval.metrics
import fdeval.protocol
import fdeval.scores
from conftest import load_fdbench_module, newclass_bundle, simple_bundle
from test_metrics import argsort_ap
from fdeval import (
    MetricReport,
    PredictionBundle,
    SoftmaxConfig,
    StudySpec,
    accuracy,
    ap_f,
    aurc,
    aurc_oracle,
    auroc_f,
    auroc_oracle,
    auroc_out,
    brier,
    compute_csf,
    compute_csfs,
    e_aurc,
    ece,
    failure_labels,
    nll,
    rank_table,
    rc_curve,
    run_study,
    softmax,
)
from fdeval.core import ALL_TAGS, NEWCLASS, STANDARD
from fdeval.errors import (
    ClassUnderpopulated,
    DegenerateLabels,
    EmptyEvaluationSet,
    EmptyNewClassStudy,
    InvalidParameter,
    LabelOutOfRange,
    MissingMcdStack,
)
from fdeval.oracle import optimal_confidence
from fdeval.protocol import DEFAULT_METRICS, KNOWN_METRICS, LOWER_BETTER, RANKING_METRICS
from fdeval.reporting import render_rc_svg


def standard_bundle(seed=13, n=40, c=4):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, c)) * 2
    labels = rng.integers(0, c, n)
    return simple_bundle(logits, labels, externals={"demo": rng.random(n)})


def test_run_study_matches_direct_calls():
    b = standard_bundle()
    spec = StudySpec(name="std", metrics=tuple(m for m in KNOWN_METRICS if m != "auroc-out"))
    report = run_study(b, spec, compute_csfs(b, ["msr", "ext:demo"]))
    fl = failure_labels(b, STANDARD)
    probs = softmax(b.logits)
    for csf in ("msr", "ext:demo"):
        vec = compute_csf(b, csf)
        curve = rc_curve(vec, fl)
        want = {
            "aurc": aurc(curve),
            "e-aurc": e_aurc(curve, fl),
            "auroc-f": auroc_f(vec, fl),
            "ap-f": ap_f(vec, fl, positive="success"),
            "ap-f-err": ap_f(vec, fl, positive="failure"),
            "accuracy": accuracy(fl),
            "nll": nll(probs, b.labels),
            "brier": brier(probs, b.labels),
        }
        for metric, value in want.items():
            assert report.values[("std", csf, metric)] == value
    info = report.study_info["std"]
    assert info["kind"] == STANDARD
    assert info["n"] == 40 and info["n_evaluated"] == 40


def test_run_study_ece_uses_raw_scores_when_already_probabilities():
    b = standard_bundle()
    spec = StudySpec(name="std", metrics=("ece",))
    report = run_study(b, spec, compute_csfs(b, ["msr"]), ece_bins=10)
    fl = failure_labels(b, STANDARD)
    msr = compute_csf(b, "msr").scores
    assert report.values[("std", "msr", "ece")] == ece(msr, fl.residuals, bins=10)


def test_ece_path_is_chosen_on_the_evaluated_rows(monkeypatch):
    # a score outside [0, 1] on a row the new-class study dismisses once sent every score of the study through Platt
    b = newclass_bundle()
    fl = failure_labels(b, NEWCLASS)
    ext = np.linspace(0.1, 0.9, b.n_samples)
    ext[np.flatnonzero(~fl.eval_mask)[0]] = 5.0
    b = simple_bundle(b.logits, b.labels, b.shift_tags, externals={"x": ext})
    monkeypatch.setattr(fdeval.protocol, "platt_fit", lambda *args: pytest.fail("platt_fit ran"))
    spec = StudySpec(name="ood", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC", "NEWCLASS_NONSEMANTIC"),
                     metrics=("ece",))
    report = run_study(b, spec, compute_csfs(b, ["ext:x"]))
    assert report.values[("ood", "ext:x", "ece")] == ece(ext[fl.eval_mask], fl.residuals[fl.eval_mask])


def test_run_study_ece_calibrates_unbounded_scores():
    b = standard_bundle()
    spec = StudySpec(name="std", metrics=("ece",))
    report = run_study(b, spec, compute_csfs(b, ["mls"]))
    value = report.values[("std", "mls", "ece")]
    assert 0.0 <= value <= 1.0


def test_newclass_study_masks_and_counts():
    b = newclass_bundle()
    spec = StudySpec(
        name="ood",
        kind=NEWCLASS,
        shift_filter=("IID", "NEWCLASS_SEMANTIC", "NEWCLASS_NONSEMANTIC"),
        metrics=("aurc", "auroc-f", "auroc-out", "accuracy"),
    )
    report = run_study(b, spec, compute_csfs(b, ["msr"]))
    info = report.study_info["ood"]
    assert info["n"] == 10
    assert info["n_evaluated"] == 8  # two misclassified inliers dismissed
    assert report.values[("ood", "msr", "accuracy")] == pytest.approx(0.4, abs=1e-15)

    fl = failure_labels(b, NEWCLASS)
    vec = compute_csf(b, "msr")
    assert report.values[("ood", "msr", "aurc")] == pytest.approx(
        aurc_oracle(vec.scores, fl.residuals, fl.eval_mask), abs=1e-12
    )
    assert report.values[("ood", "msr", "auroc-out")] == auroc_out(
        vec, b.labels == b.ood_label, mask=fl.eval_mask
    )


def test_newclass_study_keeping_no_newclass_row_raises():
    b = newclass_bundle()
    b = simple_bundle(b.logits, b.labels, np.where(b.shift_tags == "NEWCLASS_NONSEMANTIC", "NEWCLASS_SEMANTIC", b.shift_tags))
    spec = StudySpec(name="ood", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_NONSEMANTIC"))
    # the filter keeps the six IID rows, so the study has no new-class row to rank
    with pytest.raises(EmptyNewClassStudy, match="^new-class study on a bundle with no new-class samples$"):
        run_study(b, spec, compute_csfs(b, ["msr"]))


def test_newclass_study_of_some_rows_counts_as_its_selected_bundle():
    b = newclass_bundle()
    spec = StudySpec(name="sem", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"),
                     metrics=("aurc", "e-aurc", "auroc-out", "accuracy"))
    keep = np.isin(b.shift_tags, spec.shift_filter)
    report = run_study(b, spec, compute_csfs(b, ["msr"]))
    fl = failure_labels(b.select(keep), NEWCLASS)
    assert report.study_info["sem"] == {"kind": NEWCLASS, "n": 8, "n_evaluated": 6}
    assert int(fl.eval_mask.sum()) == 6
    msr = compute_csf(b, "msr").scores[keep]
    assert report.values[("sem", "msr", "accuracy")] == accuracy(fl)
    curve = rc_curve(msr, fl)
    assert report.values[("sem", "msr", "aurc")] == aurc(curve)
    assert report.values[("sem", "msr", "e-aurc")] == e_aurc(curve, fl)


def test_run_study_sorts_once_per_csf(monkeypatch):
    sorts = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        sorts.append(1)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    # the evaluated rows and the E-AURC optimum depend on the study alone
    monkeypatch.setattr(fdeval.metrics, "_masked", lambda *args: pytest.fail("run_study masked per CSF"))
    optima = []
    real_optimal_aurc = fdeval.metrics._optimal_aurc
    monkeypatch.setattr(fdeval.metrics, "_optimal_aurc", lambda res: optima.append(1) or real_optimal_aurc(res))
    spec = StudySpec(
        name="ood",
        kind=NEWCLASS,
        shift_filter=("IID", "NEWCLASS_SEMANTIC", "NEWCLASS_NONSEMANTIC"),
        metrics=("aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "auroc-out"),
    )
    curves = []
    b = newclass_bundle()
    report = run_study(b, spec, compute_csfs(b, ["msr", "pe", "mls"]), on_curve=lambda *args: curves.append(args))
    assert len(sorts) == 3
    assert len(optima) == 1
    assert [(study, csf) for study, csf, _ in curves] == [("ood", "msr"), ("ood", "pe"), ("ood", "mls")]
    for _, csf, curve in curves:
        assert aurc(curve) == report.values[("ood", csf, "aurc")]


def test_studies_of_a_run_share_one_argmax(monkeypatch):
    b = newclass_bundle()
    scores = compute_csfs(b, ["msr"])
    calls = []
    real_argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda *args, **kwargs: calls.append(1) or real_argmax(*args, **kwargs))
    for spec in (StudySpec(name="all"), StudySpec(name="new", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"))):
        run_study(b, spec, scores)
    assert len(calls) == 1


def test_shift_filter_slices_rows():
    b = newclass_bundle()
    spec = StudySpec(name="iid-only", shift_filter=("IID",), metrics=("accuracy",))
    report = run_study(b, spec, compute_csfs(b, ["msr"]))
    assert report.study_info["iid-only"]["n"] == 6
    assert report.values[("iid-only", "msr", "accuracy")] == pytest.approx(4 / 6, abs=1e-15)


def test_empty_filter_raises():
    b = standard_bundle()
    spec = StudySpec(name="cov", shift_filter=("COVARIATE",), metrics=("accuracy",))
    with pytest.raises(EmptyEvaluationSet, match="cov"):
        run_study(b, spec, compute_csfs(b, ["msr"]))


def test_study_errors_are_annotated_with_study_and_csf():
    b = standard_bundle()
    # a metric error names the study and the CSF it came from
    spec = StudySpec(name="std", metrics=("auroc-out",))
    with pytest.raises(DegenerateLabels, match=r"^\[study std / pe\] "):
        run_study(b, spec, compute_csfs(b, ["pe"]))
    # scores belong to the run, not to a study: a scoring error names its CSF only
    with pytest.raises(MissingMcdStack, match=r"^mcd-msr requires"):
        compute_csfs(b, ["msr", "mcd-msr"])
    one_row_per_class = simple_bundle(b.logits[:4], [0, 1, 2, 3], features=np.eye(4))
    with pytest.raises(ClassUnderpopulated, match=r"^maha: class 0 has 1 rows"):
        compute_csfs(one_row_per_class, ["maha"])
    # a classifier metric belongs to the study: an all-new-class study has no inlier row for nll
    b = newclass_bundle()
    spec = StudySpec(name="new", shift_filter=("NEWCLASS_SEMANTIC",), metrics=("aurc", "nll"))
    with pytest.raises(EmptyEvaluationSet, match=r"^\[study new\] no samples"):
        run_study(b, spec, compute_csfs(b, ["msr"]))


def test_classifier_metrics_run_once_per_study(monkeypatch):
    # accuracy, nll and brier rate the classifier, not a CSF: three CSFs share one value of each,
    # reduced once from the per-row terms, whether the scores keep them or the study takes them
    b = standard_bundle()
    csfs = ["msr", "pe", "ext:demo"]
    spec = StudySpec(name="s", metrics=("aurc", "accuracy", "nll", "brier"))
    p = softmax(b.logits)
    for keep_terms in (False, True):
        calls = []
        for name, real in list(fdeval.metrics.LIKELIHOOD_METRICS.items()):
            monkeypatch.setitem(fdeval.metrics.LIKELIHOOD_METRICS, name,
                                lambda terms, _name=name, _real=real: calls.append(_name) or _real(terms))
        report = run_study(b, spec, compute_csfs(b, csfs, keep_terms=keep_terms))
        monkeypatch.undo()
        assert sorted(calls) == ["brier", "nll"], keep_terms
        assert [report.values[("s", csf, "nll")] for csf in csfs] == [nll(p, b.labels)] * 3
        assert [report.values[("s", csf, "brier")] for csf in csfs] == [brier(p, b.labels)] * 3
        assert [report.values[("s", csf, "accuracy")] for csf in csfs] == [accuracy(failure_labels(b))] * 3


def test_study_spec_validation():
    with pytest.raises(InvalidParameter):
        StudySpec(name="")
    with pytest.raises(InvalidParameter):
        StudySpec(name="x", kind="other")
    with pytest.raises(InvalidParameter):
        StudySpec(name="x", shift_filter=("NOPE",))
    with pytest.raises(InvalidParameter):
        StudySpec(name="x", metrics=("magic",))
    # the new-class protocol needs both inliers and new-class rows in scope
    with pytest.raises(InvalidParameter):
        StudySpec(name="x", kind=NEWCLASS, shift_filter=("IID",))
    with pytest.raises(InvalidParameter):
        StudySpec(name="x", kind=NEWCLASS, shift_filter=("NEWCLASS_SEMANTIC",))
    spec = StudySpec(name="x", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"))
    assert spec.metrics == DEFAULT_METRICS


def test_rank_table_competition_ranks():
    report = MetricReport()
    report.values[("s", "a", "aurc")] = 0.10
    report.values[("s", "b", "aurc")] = 0.10
    report.values[("s", "c", "aurc")] = 0.20
    report.values[("s", "a", "auroc-f")] = 0.70
    report.values[("s", "b", "auroc-f")] = 0.90
    report.values[("s", "c", "auroc-f")] = 0.90
    rank_table(report)
    # aurc is lower-better: the tie shares rank 1 and the loser drops to 3
    assert report.ranks[("s", "aurc")] == {"a": 1, "b": 1, "c": 3}
    assert report.ranks[("s", "auroc-f")] == {"a": 3, "b": 1, "c": 1}
    assert "aurc" in LOWER_BETTER and "auroc-f" not in LOWER_BETTER


def test_rank_table_shares_ranks_of_values_equal_up_to_rounding():
    # the exact AURC of msr, pe and mls is 283/360 for all three, but mls's sums can read 1 ulp lower
    logits = [[0.6, -0.4], [-0.3, 1.1], [0.4, 0.7], [-1.3, -0.3], [1.6, 3.0], [-2.5, 3.0]]
    b = simple_bundle(logits, [0, 2, 2, 2, 2, 2], ["IID"] + ["NEWCLASS_SEMANTIC"] * 5)
    report = run_study(b, StudySpec(name="std", metrics=("aurc",)), compute_csfs(b, ["msr", "pe", "mls"]))
    values = {csf: report.values[("std", csf, "aurc")] for csf in ("msr", "pe", "mls")}
    assert all(abs(v - 283 / 360) <= 2e-16 for v in values.values())
    assert rank_table(report).ranks[("std", "aurc")] == {"msr": 1, "pe": 1, "mls": 1}

    # a value wins only by more than 1e-12 of the larger magnitude, in either direction of better;
    # the test is pairwise, so a ties b and b ties c, yet c beats a
    report = MetricReport()
    for csf, value in (("a", 0.5), ("b", 0.5 * (1 + 0.9e-12)), ("c", 0.5 * (1 + 1.1e-12)), ("d", -0.0), ("e", 0.0)):
        report.values[("s", csf, "aurc")] = value
        report.values[("s", csf, "auroc-f")] = value
    rank_table(report)
    assert report.ranks[("s", "aurc")] == {"a": 3, "b": 3, "c": 4, "d": 1, "e": 1}
    assert report.ranks[("s", "auroc-f")] == {"a": 2, "b": 1, "c": 1, "d": 4, "e": 4}


def test_report_merge():
    b = standard_bundle()
    r1 = run_study(b, StudySpec(name="one", metrics=("aurc",)), compute_csfs(b, ["msr"]))
    r2 = run_study(b, StudySpec(name="two", metrics=("aurc",)), compute_csfs(b, ["msr"]))
    merged = r1.merge(r2)
    assert ("one", "msr", "aurc") in merged.values
    assert ("two", "msr", "aurc") in merged.values
    assert set(merged.study_info) == {"one", "two"}


def test_precision_config_threads_through():
    # two high-gap rows an f16 softmax collapses onto 1.0, two moderate rows
    b = simple_bundle([[20.0, 0.0], [18.0, 0.0], [0.5, 0.0], [0.3, 0.0]], [0, 1, 0, 1])
    spec = StudySpec(name="std", metrics=("aurc",))
    f64, f16 = SoftmaxConfig(precision="f64"), SoftmaxConfig(precision="f16")
    r64 = run_study(b, spec, compute_csfs(b, ["msr"], f64))
    r16 = run_study(b, spec, compute_csfs(b, ["msr"], f16))
    v64 = r64.values[("std", "msr", "aurc")]
    v16 = r16.values[("std", "msr", "aurc")]
    fl = failure_labels(b, STANDARD)
    vec16 = compute_csf(b, "msr", SoftmaxConfig(precision="f16"))
    assert v16 == aurc(rc_curve(vec16, fl))
    assert v64 == aurc(rc_curve(compute_csf(b, "msr"), fl))
    # f64 separates the top two rows, f16 ties them: the curves disagree
    assert v64 == pytest.approx(13 / 48, abs=1e-12)
    assert v16 == pytest.approx(19 / 48, abs=1e-12)


def test_a_row_has_one_maha_score_in_every_study():
    workloads = load_fdbench_module("workloads")
    b = workloads.generate(workloads.Shape(n=300, c=4, d=6), 11)   # IID, COVARIATE and new-class rows
    scores = compute_csfs(b, ["maha", "msr"])
    maha = compute_csf(b, "maha").scores
    assert scores["maha"].scores.tobytes() == maha.tobytes()
    studies = [
        StudySpec(name="all", metrics=("aurc",)),
        StudySpec(name="iid", shift_filter=("IID",), metrics=("aurc",)),
        StudySpec(name="new", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"), metrics=("aurc",)),
    ]
    for spec in studies:
        curves = {}
        run_study(b, spec, scores, on_curve=lambda study, csf, curve: curves.setdefault(csf, curve))
        keep = np.isin(b.shift_tags, spec.shift_filter)
        # the study ranks its rows by the run's maha scores, not by a fit on its own rows
        want = rc_curve(maha[keep], failure_labels(b.select(keep), spec.kind))
        assert curves["maha"].coverages.tobytes() == want.coverages.tobytes(), spec.name
        assert curves["maha"].risks.tobytes() == want.risks.tobytes(), spec.name


@pytest.mark.parametrize("precision", ["f16", "f32", "f64"])
def test_nll_and_brier_read_the_run_softmax_bit_for_bit(precision):
    # the terms kept of the run's logits softmax, at a study's inlier rows, are the terms of those
    # rows' own softmax; without kept terms, run_study takes them from the logits pass at the
    # configuration the scores were computed at, here no default in either field. Either way nll
    # and brier are metrics.nll and metrics.brier of that softmax, bit for bit. c = 300 sums each
    # Brier row in more than one of numpy's 128-element pairwise blocks
    workloads = load_fdbench_module("workloads")
    cfg = SoftmaxConfig(precision=precision, temperature=1.7)
    metrics = ("nll", "brier")
    studies = [
        StudySpec(name="all", metrics=metrics),
        StudySpec(name="iid", shift_filter=("IID",), metrics=metrics),
        StudySpec(name="new", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"), metrics=metrics),
    ]
    for c in (7, 300):
        b = workloads.generate(workloads.Shape(n=700, c=c), 13)   # IID, COVARIATE and new-class rows
        kept = compute_csfs(b, ["mls"], cfg, keep_terms=True)
        assert kept.cfg == cfg
        new_class = b.labels == b.ood_label
        assert sorted(kept.terms) == ["brier", "nll"]
        for terms in kept.terms.values():
            assert terms.shape == (b.n_samples,)
            assert np.array_equal(np.isnan(terms), new_class)
        assert compute_csfs(b, ["msr"], cfg).terms is None   # held for the run only when asked for
        for spec in studies:
            rows = np.isin(b.shift_tags, spec.shift_filter) & ~new_class
            assert 0 < rows.sum() < b.n_samples
            own = softmax(b.logits[rows], cfg)
            want = {"nll": nll(own, b.labels[rows]).hex(), "brier": brier(own, b.labels[rows]).hex()}
            for scores in (kept, compute_csfs(b, ["mls"], cfg)):
                values = run_study(b, spec, scores).values
                assert {m: values[(spec.name, "mls", m)].hex() for m in metrics} == want, (c, spec.name)


def test_likelihood_terms_refuse_a_label_outside_the_classes():
    # a bundle built without validate_bundle: a -1 label would index the last class; the kept terms
    # refuse it, naming its row, whether compute_csfs or run_study asks for them
    logits = np.random.default_rng(5).normal(size=(6, 3))
    b = PredictionBundle(logits=logits, labels=np.array([0, 1, 2, -1, 0, 1]), shift_tags=np.full(6, "IID"))
    with pytest.raises(LabelOutOfRange, match=r"got -1 at row 3$"):
        compute_csfs(b, ["msr"], keep_terms=True)
    with pytest.raises(LabelOutOfRange, match=r"^\[study s\] .*got -1 at row 3$"):
        run_study(b, StudySpec(name="s", metrics=("brier",)), compute_csfs(b, ["msr"]))


def test_nll_and_brier_terms_hold_one_softmax(monkeypatch):
    # the run keeps two n-vectors of the logits softmax, not the softmax, and makes no (n, c) softmax:
    # each worker of the row-blocked logits pass holds one block's softmax and entropy temporaries.
    # Measured: 0.68x of n * c * 8 here on two workers, against 1.19x when the whole softmax was made
    # and 3.05x when the run held it and each study copied its rows, then the Brier score copied them again
    monkeypatch.setattr(fdeval.scores, "_workers", lambda: 2)   # each worker adds its scratch
    workloads = load_fdbench_module("workloads")
    b = workloads.generate(workloads.Shape(n=20000, c=50), 3)
    spec = StudySpec(name="s", metrics=("nll", "brier"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scores = compute_csfs(b, ["msr", "pe"], keep_terms=True)
        values = run_study(b, spec, scores).values
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * b.n_samples * b.n_classes * 8
    assert {metric for (_, _, metric) in values} == {"nll", "brier"}
    held = [v for v in vars(scores).values() if isinstance(v, np.ndarray)]
    held += list(scores.terms.values()) + [vec.scores for vec in scores.values()]
    assert held and all(a.ndim == 1 for a in held)


def test_run_study_works_in_study_held_words(monkeypatch):
    # a CSF's gather, sweep, curve, SVG path and Platt fit write into the study's scratch words
    # (metrics._words), anonymous mappings that tracemalloc does not see, so their bytes are counted
    # as they are mapped. Measured here: 7.3 traced plus 5.3 mapped, 12.6 x n * 8 in all, against
    # 19.2 x n * 8 at the parent, whose _curve, render_rc_svg and each Newton step of platt_fit held
    # about eight n-long temporaries
    workloads = load_fdbench_module("workloads")
    b = workloads.generate(workloads.Shape(n=100_000, c=10, tied_external=True), 3)
    # msr and the tied score lie in [0, 1] and take the raw ECE path, pe takes the Platt one
    scores = compute_csfs(b, ["msr", "pe", "ext:tied"])
    b.predicted   # the bundle's argmax, taken once per bundle
    mapped = []
    real = fdeval.scores.mmap.mmap
    counting = types.SimpleNamespace(mmap=lambda fd, size: mapped.append(size) or real(fd, size))
    monkeypatch.setattr(fdeval.scores, "mmap", counting)
    spec = StudySpec(name="s", metrics=("aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "ece"))
    svgs = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        on_curve = lambda study, csf, curve: svgs.append(render_rc_svg(curve, study, csf))  # noqa: E731
        values = run_study(b, spec, scores, on_curve=on_curve)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(values.values) == 18 and len(svgs) == 3
    assert peak + sum(mapped) < 15 * b.n_samples * 8, (peak, sum(mapped))


@pytest.mark.parametrize("tied", [False, True])
def test_outcome_counts_give_the_wrapper_values(tied):
    # run_study counts each tie group's failures once, off the residuals in sweep order; the
    # wrappers count flags per group; both are exact integers, so the values are equal
    workloads = load_fdbench_module("workloads")
    b = workloads.generate(workloads.Shape(n=3000, c=5, tied_external=True), 17)
    csfs = ["msr", "ext:tied"] if tied else ["msr", "pe"]
    scores = compute_csfs(b, csfs)
    if tied:
        assert np.unique(scores["ext:tied"].scores).size < 200
    metrics = ("auroc-f", "ap-f", "ap-f-err")
    studies = [
        StudySpec(name="all", metrics=metrics),
        StudySpec(name="new", kind=NEWCLASS, shift_filter=("IID", "NEWCLASS_SEMANTIC"), metrics=metrics),
    ]
    for spec in studies:
        keep = np.isin(b.shift_tags, spec.shift_filter)
        fl = failure_labels(b.select(keep), spec.kind)
        values = run_study(b, spec, scores).values
        for csf in csfs:
            conf = scores[csf].scores[keep]
            assert values[(spec.name, csf, "auroc-f")] == auroc_f(conf, fl), (spec.name, csf)
            assert values[(spec.name, csf, "ap-f")] == ap_f(conf, fl, positive="success"), (spec.name, csf)
            assert values[(spec.name, csf, "ap-f-err")] == ap_f(conf, fl, positive="failure"), (spec.name, csf)


@st.composite
def tied_bundles(draw):
    """A small bundle with integer logits (ties in every score and in the argmax), every shift tag and a tied ext: score.

    Row 0 is a correct IID row and row 1 a new-class one, so every study below has a success, a failure, an inlier
    and an outlier among its evaluated rows.
    """
    c = draw(st.integers(2, 4))
    n = draw(st.integers(2, 24))
    tags = ["IID", "NEWCLASS_SEMANTIC"] + draw(st.lists(st.sampled_from(ALL_TAGS), min_size=n - 2, max_size=n - 2))
    logits = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=c, max_size=c), min_size=n, max_size=n)))
    labels = np.array([c if tag.startswith("NEWCLASS") else draw(st.integers(0, c - 1)) for tag in tags])
    labels[0] = np.argmax(logits[0])
    tied = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)))
    return simple_bundle(logits, labels, tags, externals={"tied": tied})


def oracle_cells(b, spec, scores):
    """Every ranking cell of one study, from the oracles over rows sliced with numpy."""
    keep = np.isin(b.shift_tags, spec.shift_filter)
    res = (np.argmax(b.logits, axis=1) != b.labels)[keep].astype(np.int64)
    mask = np.ones(res.shape[0], dtype=bool)
    if spec.kind == NEWCLASS:
        mask = ~((b.shift_tags[keep] == "IID") & (res == 1))
    r, inlier = res[mask], (b.labels[keep] != b.ood_label)[mask]
    cells = {}
    for csf, vec in scores.items():
        conf = vec.scores[keep]
        value = aurc_oracle(conf, res, mask)
        cells[(spec.name, csf, "aurc")] = value
        cells[(spec.name, csf, "e-aurc")] = value - aurc_oracle(optimal_confidence(r), r)
        cells[(spec.name, csf, "auroc-f")] = auroc_oracle(conf[mask], r == 0)
        cells[(spec.name, csf, "auroc-out")] = auroc_oracle(conf[mask], inlier)
        cells[(spec.name, csf, "ap-f")] = argsort_ap(conf[mask], r, "success")
        cells[(spec.name, csf, "ap-f-err")] = argsort_ap(conf[mask], r, "failure")
    return cells


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tied_bundles(), st.sampled_from(["f16", "f32", "f64"]),
       st.lists(st.sampled_from(["COVARIATE", "SUBCLASS", "NEWCLASS_NONSEMANTIC"]), unique=True))
def test_run_study_cells_match_the_oracles(b, precision, extra_tags):
    metrics = tuple(sorted(RANKING_METRICS))
    scores = compute_csfs(b, ["msr", "pe", "mls", "ext:tied"], SoftmaxConfig(precision=precision))
    shift_filter = ("IID", "NEWCLASS_SEMANTIC", *extra_tags)
    studies = [StudySpec(name="std", shift_filter=shift_filter, metrics=metrics),
               StudySpec(name="new", kind=NEWCLASS, shift_filter=shift_filter, metrics=metrics)]
    report, want = MetricReport(), {}
    for spec in studies:
        report.merge(run_study(b, spec, scores))
        want.update(oracle_cells(b, spec, scores))
    assert report.values.keys() == want.keys()
    for cell, value in want.items():
        assert abs(report.values[cell] - value) <= 1e-12, cell
    rank_table(report)
    for spec in studies:
        for metric in metrics:
            sign = -1.0 if metric in ("aurc", "e-aurc") else 1.0   # sign * value is higher for the better CSF
            got = {csf: sign * report.values[(spec.name, csf, metric)] for csf in scores}
            oracle = {csf: sign * want[(spec.name, csf, metric)] for csf in scores}
            # competition ranks of the oracle's values: 1 + the number of CSFs whose value wins by more than
            # 1e-12 of the larger magnitude, so the rounding that splits equal values changes no rank
            want_ranks = {csf: 1 + sum(v > w and not math.isclose(v, w, rel_tol=1e-12) for v in oracle.values())
                          for csf, w in oracle.items()}
            assert report.ranks[(spec.name, metric)] == want_ranks, (spec.name, metric)
