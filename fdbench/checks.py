"""Output checks, run outside the timed region.

Report values are recomputed from the bundle the benchmark generated: AURC
with `fdeval.oracle.aurc_oracle`, failure AUROC with `auroc_oracle` where its
pair matrix is small and with an independent tie-aware count otherwise, and
accuracy, NLL, Brier score and the SGR coverage and risk directly. The
confidence vectors of `fdeval.compute_csf` are first compared with scores
computed here with numpy alone (`reference_scores`); the recomputed metrics
then use the program's vectors, so that near-ties order as they did in the
run. Each check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import math

import numpy as np

from fdeval import compute_csf
from fdeval.core import ALL_TAGS
from fdeval.oracle import aurc_oracle, auroc_oracle

PAIR_LIMIT = 4_000_000   # largest positive x negative matrix handed to auroc_oracle


def agrees(reported: float, exact: float) -> bool:
    """True when reported is exact up to the report's 12 significant digits.

    Allows one unit in the 12th digit: the value may sit on a rounding
    boundary, where a last-bit difference in the sum flips the digit.
    """
    if exact == 0.0:
        return abs(reported) <= 1e-300
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 11)
    return abs(reported - exact) <= unit


SCORE_RTOL = 1e-9    # program scores vs reference_scores
SCORE_ATOL = 1e-12   # times the largest reference magnitude, for scores near 0


def softmax(logits: np.ndarray) -> np.ndarray:
    """f64 softmax over the last axis, written out here so the checks do not go through fdeval.scores."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis, with 0 ln 0 = 0."""
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1)


def mahalanobis(features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Negated smallest squared Mahalanobis distance to a class mean.

    Class means and the shared covariance of class-centred features are fitted
    on the inlier rows, with the ridge 1e-6 trace(cov) / d of Lee et al. 2018
    as fdeval uses it. The distance is taken in the whitened space
    z = L^-1 x, where L L^T = cov + ridge I: |z - m_k|^2 = |z|^2 - 2 z.m_k + |m_k|^2.
    """
    inlier = labels < n_classes
    x, y = features[inlier], labels[inlier]
    classes, group = np.unique(y, return_inverse=True)
    counts = np.bincount(group, minlength=classes.size)
    means = np.zeros((classes.size, x.shape[1]))
    np.add.at(means, group, x)
    means /= counts[:, None]
    centred = x - means[group]
    cov = centred.T @ centred / x.shape[0]
    cov += 1e-6 * np.trace(cov) / x.shape[1] * np.eye(x.shape[1])
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, features.T).T
    m = np.linalg.solve(chol, means.T).T
    dist = (z * z).sum(axis=1)[:, None] - 2.0 * z @ m.T + (m * m).sum(axis=1)[None, :]
    return -dist.min(axis=1)


def reference_scores(bundle, csf: str) -> np.ndarray:
    """The confidence vector of csf (higher = more confident), computed with numpy alone."""
    if csf.startswith("ext:"):
        return bundle.externals[csf[len("ext:"):]]
    if csf == "mls":
        return bundle.logits.max(axis=1)
    if csf in ("msr", "pe"):
        p = softmax(bundle.logits)
        return p.max(axis=1) if csf == "msr" else -entropy(p)
    if csf == "maha":
        return mahalanobis(bundle.features, bundle.labels, bundle.n_classes)
    if csf == "mcd-mls":
        return bundle.mcd_logits.mean(axis=1).max(axis=1)
    p = softmax(bundle.mcd_logits)        # (n, t, c): per pass, then averaged
    mean_p = p.mean(axis=1)
    expected = entropy(p).mean(axis=1)
    return {"mcd-msr": mean_p.max(axis=1), "mcd-pe": -entropy(mean_p), "mcd-ee": -expected,
            "mcd-mi": expected - entropy(mean_p)}[csf]


def checked_scores(bundle, csf: str, problems: list[str], where: str) -> np.ndarray:
    """The program's confidence vector for csf; a problem is added when it differs from reference_scores."""
    scores = compute_csf(bundle, csf).scores
    ref = reference_scores(bundle, csf)
    atol = SCORE_ATOL * float(np.abs(ref).max(initial=0.0))
    if scores.shape != ref.shape:
        problems.append(f"{where}/{csf}: compute_csf gave shape {scores.shape}, the reference {ref.shape}")
        return scores
    bad = np.flatnonzero(~np.isclose(scores, ref, rtol=SCORE_RTOL, atol=atol))
    if bad.size:
        i = bad[0]
        problems.append(f"{where}/{csf}: compute_csf differs from the reference on {bad.size} rows, "
                        f"first row {i}: {scores[i]!r} vs {ref[i]!r}")
    return scores


def residuals(sub, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(1 = wrong prediction, evaluation mask) under the study protocol."""
    res = (np.argmax(sub.logits, axis=1) != sub.labels).astype(np.int64)
    mask = np.ones(res.shape[0], dtype=bool)
    if kind == "newclass":
        mask[(sub.shift_tags == "IID") & (res == 1)] = False
    return res, mask


def count_auroc(conf: np.ndarray, positive: np.ndarray) -> float:
    """(#pos > neg + 0.5 #pos == neg) / (#pos #neg), counted per tie group."""
    values, group = np.unique(conf, return_inverse=True)
    pos = np.bincount(group, weights=positive, minlength=values.size).astype(np.int64)
    neg = np.bincount(group, weights=~positive, minlength=values.size).astype(np.int64)
    neg_below = np.cumsum(neg) - neg
    twice = 2 * int(np.dot(pos, neg_below)) + int(np.dot(pos, neg))
    return twice / (2.0 * int(pos.sum()) * int(neg.sum()))


def auroc(conf: np.ndarray, positive: np.ndarray) -> float:
    n_pos = int(positive.sum())
    if n_pos * (positive.size - n_pos) <= PAIR_LIMIT:
        return auroc_oracle(conf, positive)
    return count_auroc(conf, positive)


def study_rows(bundle, study: dict) -> np.ndarray:
    return np.isin(bundle.shift_tags, list(study.get("shift_filter", ALL_TAGS)))


def ties(scores: np.ndarray) -> dict:
    _, counts = np.unique(scores, return_counts=True)
    return {"tie_mass": float(counts[counts > 1].sum() / scores.size), "distinct": int(counts.size)}


def check_report(report: dict, bundle, config: dict) -> tuple[list[str], dict]:
    """Problems in report.json, plus tie statistics per CSF over the first study."""
    problems, tie_stats = [], {}
    for si, study in enumerate(config["studies"]):
        sub = bundle.select(study_rows(bundle, study))
        res, mask = residuals(sub, study.get("kind", "standard"))
        inlier = sub.labels < sub.n_classes
        probs = softmax(sub.logits[inlier])
        truth = sub.labels[inlier]
        picked = np.maximum(probs[np.arange(truth.size), truth], 1e-300)
        onehot = np.zeros_like(probs)
        onehot[np.arange(truth.size), truth] = 1.0
        direct = {
            "accuracy": float(np.mean(1 - res)),
            "nll": float(-np.mean(np.log(picked))),
            "brier": float(np.mean(np.sum((probs - onehot) ** 2, axis=1))),
        }
        for csf in config["csfs"]:
            row = report.get("studies", {}).get(study["name"], {}).get("csfs", {}).get(csf)
            if row is None:
                problems.append(f"{study['name']}/{csf}: missing from report.json")
                continue
            scores = checked_scores(sub, csf, problems, study["name"])
            if si == 0:
                tie_stats[csf] = ties(scores)
            for metric in study["metrics"]:
                if metric == "aurc":
                    key, exact = "aurc_raw", aurc_oracle(scores, res, mask)
                elif metric == "auroc-f":
                    key, exact = metric, auroc(scores[mask], res[mask] == 0)
                elif metric in direct:
                    key, exact = metric, direct[metric]
                else:
                    continue
                if key not in row:
                    problems.append(f"{study['name']}/{csf}/{key}: missing from report.json")
                elif not agrees(row[key], exact):
                    problems.append(f"{study['name']}/{csf}/{key}: report {row[key]!r}, recomputed {exact!r}")
    return problems, tie_stats


def check_sgr(sgr: dict, bundle) -> list[str]:
    """The reported coverage and risk must be those of the reported threshold.

    The threshold is printed to 12 digits, so every score that prints the same
    is a candidate; one of them must reproduce both numbers.
    """
    problems = []
    scores = checked_scores(bundle, sgr["csf"], problems, "sgr")
    if problems:
        return problems
    res, _ = residuals(bundle, "standard")
    if not sgr["risk_bound"] <= sgr["r_star"]:
        return [f"sgr: risk bound {sgr['risk_bound']} above r_star {sgr['r_star']}"]
    for tau in np.unique(scores[np.isclose(scores, sgr["threshold"], rtol=1e-10, atol=0.0)]):
        if not agrees(sgr["threshold"], tau):
            continue
        kept = scores >= tau
        m = int(kept.sum())
        if agrees(sgr["empirical_coverage"], m / scores.size) and agrees(sgr["empirical_risk"], res[kept].sum() / m):
            return []
    return [f"sgr: no threshold printing as {sgr['threshold']!r} gives coverage "
            f"{sgr['empirical_coverage']!r} and risk {sgr['empirical_risk']!r}"]
