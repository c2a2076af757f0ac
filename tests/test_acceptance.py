"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the real stdout so the gate can
be read off a captured pytest run directly. Tolerances are pinned here and
nowhere else; loosening them is a release decision, not a test fix.
"""

import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import both_outcomes_instance, newclass_bundle, random_instance
from fdeval import (
    NEWCLASS,
    StudySpec,
    aurc,
    aurc_oracle,
    auroc_f,
    auroc_oracle,
    audit,
    compute_csf,
    compute_csfs,
    e_aurc,
    ece,
    failure_labels,
    platt_apply,
    platt_fit,
    rc_curve,
    run_study,
    sgr_select,
    synthesize_highconf_bundle,
)
from fdeval.cli import main as cli_main
from fdeval.errors import NoFeasibleThreshold
from fdeval.oracle import optimal_confidence

ACCEPTANCE_LINES: list[str] = []

ORACLE_TOL = 1e-12
FIXTURE_TOL = 1e-12
EXCESS_TOL = -1e-12
SGR_SLACK = 0.03
ECE_SIM_TOL = 0.01
AUROC_GAP_MIN = 0.02

TIE_DENSITIES = (0.0, 0.3, 0.9)
FAILURE_RATES = (0.01, 0.3, 0.9)


@contextmanager
def criterion(num, name):
    """Record one PASS/FAIL line; the conftest summary hook prints them."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {num} {name}: FAIL")
        print(ACCEPTANCE_LINES[-1], file=sys.__stdout__, flush=True)
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {num} {name}: PASS")
    print(ACCEPTANCE_LINES[-1], file=sys.__stdout__, flush=True)


def _instance_grid(count, max_n):
    """Seeded instances cycling through every tie/failure regime."""
    for i in range(count):
        rng = np.random.default_rng(i)
        tie = TIE_DENSITIES[i % len(TIE_DENSITIES)]
        rate = FAILURE_RATES[(i // len(TIE_DENSITIES)) % len(FAILURE_RATES)]
        n = int(rng.integers(1, max_n + 1))
        yield random_instance(rng, n=n, tie_density=tie, failure_rate=rate)


def test_c1_aurc_matches_sweep_oracle():
    with criterion(1, "aurc-matches-sweep-oracle"):
        start = time.perf_counter()
        worst = 0.0
        for conf, res in _instance_grid(1000, 500):
            fast = aurc(rc_curve(conf, res))
            worst = max(worst, abs(fast - aurc_oracle(conf, res)))
        elapsed = time.perf_counter() - start
        assert worst <= ORACLE_TOL, f"max |fast - oracle| = {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c2_auroc_matches_pairwise_oracle():
    with criterion(2, "auroc-matches-pairwise-oracle"):
        start = time.perf_counter()
        worst = 0.0
        for i in range(500):
            rng = np.random.default_rng(10_000 + i)
            tie = TIE_DENSITIES[i % len(TIE_DENSITIES)]
            conf, res = both_outcomes_instance(rng, n=int(rng.integers(2, 301)), tie_density=tie)
            fast = auroc_f(conf, res)
            worst = max(worst, abs(fast - auroc_oracle(conf, res == 0)))
        elapsed = time.perf_counter() - start
        assert worst <= ORACLE_TOL, f"max |fast - oracle| = {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c3_aurc_hand_fixtures():
    with criterion(3, "aurc-hand-fixtures"):
        conf = np.array([0.9, 0.8, 0.7, 0.6])
        res = np.array([0, 0, 1, 0])
        assert aurc(rc_curve(conf, res)) == pytest.approx(11 / 96, abs=FIXTURE_TOL)
        for n in (1, 2, 10, 137):
            conf = np.arange(n, dtype=np.float64)
            value = aurc(rc_curve(conf, np.ones(n, dtype=int)))
            assert value == pytest.approx((n - 1) / n, abs=FIXTURE_TOL)


def test_c4_excess_aurc_nonnegative():
    with criterion(4, "excess-aurc-nonnegative"):
        for conf, res in _instance_grid(1000, 300):
            curve = rc_curve(conf, res)
            excess = e_aurc(curve, res)
            assert excess >= EXCESS_TOL, f"e-AURC {excess:.3e} below tolerance"
            opt = aurc(rc_curve(optimal_confidence(res), res))
            assert opt <= aurc(curve) + ORACLE_TOL


def test_c5_sgr_risk_guarantee():
    with criterion(5, "sgr-risk-guarantee"):
        start = time.perf_counter()
        r_star, n_trials, n_samples = 0.15, 500, 1000
        for delta in (0.1, 0.01):
            violations = 0
            for t in range(n_trials):
                rng = np.random.default_rng(100_000 + t)
                val_conf = rng.random(n_samples)
                val_res = (rng.random(n_samples) < 0.1).astype(int)
                test_conf = rng.random(n_samples)
                test_res = (rng.random(n_samples) < 0.1).astype(int)
                try:
                    sel = sgr_select(val_conf, val_res, r_star=r_star, delta=delta)
                except NoFeasibleThreshold:
                    continue  # abstaining cannot violate the guarantee
                keep = test_conf >= sel.threshold
                if keep.sum() == 0:
                    continue
                if float(test_res[keep].mean()) > r_star:
                    violations += 1
            freq = violations / n_trials
            assert freq <= delta + SGR_SLACK, f"delta={delta}: violation rate {freq:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c6_precision_collapse_detected():
    with criterion(6, "precision-collapse-detected"):
        seed = int(os.environ.get("FDSHIFT_SEED", "7"))
        bundle = synthesize_highconf_bundle(
            n=10_000, c=10, failure_rate=0.3, gap_low=20.0, gap_high=40.0, seed=seed
        )
        report = audit(bundle)
        assert report.round_to_one_rate["f32"] >= 0.5
        assert report.round_to_one_rate["f64"] == 0.0
        gap = report.auroc_f["f64"] - report.auroc_f["f32"]
        assert gap >= AUROC_GAP_MIN, f"AUROC gap {gap:.4f}"
        cooled = audit(bundle, temperature=4.0)
        assert cooled.round_to_one_rate["f32"] == 0.0


def test_c7_calibration_preserves_ranking():
    with criterion(7, "calibration-preserves-ranking"):
        # Platt scaling must leave both ranking metrics bit-identical
        for i in range(100):
            rng = np.random.default_rng(200_000 + i)
            conf, res = both_outcomes_instance(rng, n=int(rng.integers(20, 401)))
            conf = conf + 0.3 * (1 - res)
            # pin one failure above one success so the fit stays well-posed
            conf[np.flatnonzero(res == 1)[0]] = conf[np.flatnonzero(res == 0)[0]] + 0.05
            model = platt_fit(conf, res)
            mapped = platt_apply(model, conf)
            assert aurc(rc_curve(mapped, res)) == aurc(rc_curve(conf, res))
            assert auroc_f(mapped, res) == auroc_f(conf, res)
        # a perfectly calibrated score stream shows near-zero ECE
        rng = np.random.default_rng(77)
        z = rng.normal(0.0, 1.5, 100_000)
        s = 1.0 / (1.0 + np.exp(-z))
        res = (rng.random(s.size) >= s).astype(int)
        assert ece(s, res, bins=15) <= ECE_SIM_TOL
        # hand fixture: confidence 0.9, accuracy 0.5
        scores = np.full(100, 0.9)
        res = np.array([0, 1] * 50)
        assert ece(scores, res, bins=15) == pytest.approx(0.4, abs=FIXTURE_TOL)


def test_c8_newclass_masking_protocol():
    with criterion(8, "newclass-masking-protocol"):
        b = newclass_bundle()
        spec = StudySpec(
            name="shift",
            kind=NEWCLASS,
            shift_filter=("IID", "NEWCLASS_SEMANTIC", "NEWCLASS_NONSEMANTIC"),
            metrics=("aurc", "accuracy"),
        )
        report = run_study(b, spec, compute_csfs(b, ["msr"]))
        info = report.study_info["shift"]
        fl = failure_labels(b, NEWCLASS)
        iid_failures = int(((b.shift_tags == "IID") & (fl.residuals == 1)).sum())
        assert iid_failures == 2
        assert info["n_evaluated"] == b.n_samples - iid_failures == 8
        assert report.values[("shift", "msr", "accuracy")] == pytest.approx(0.4, abs=FIXTURE_TOL)
        vec = compute_csf(b, "msr")
        want = aurc_oracle(vec.scores, fl.residuals, fl.eval_mask)
        assert abs(report.values[("shift", "msr", "aurc")] - want) <= ORACLE_TOL


def test_c9_cli_deterministic_artifacts(tmp_path, capsys):
    with criterion(9, "cli-deterministic-artifacts"):
        toy = os.path.join(os.path.dirname(__file__), "..", "data", "toy_bundle")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli_main(
                ["evaluate", "--bundle", toy, "--out", str(out), "--emit", "json,csv,svg"]
            )
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "report.json" in names and "report.csv" in names
        assert any(n.endswith(".svg") for n in names)
        for fname in names:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
        json.loads((outs[0] / "report.json").read_text())  # artifact is valid JSON

        capsys.readouterr()
        assert cli_main(["verify", "--bundle", toy]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "aurc_max_dev=0.0e0" in lines
        assert "auroc_max_dev=0.0e0" in lines
