"""Reference implementations used to cross-check the metrics module.

Deliberately naive and structurally different from metrics.py: the AURC
oracle is a literal step-by-step sweep with Python lists, the AUROC oracle
counts every pair, the E-AURC optimum is an explicit confidence vector. No
code is shared with the fast paths; agreement between the two routes is part
of the test gate. Single-threaded by design.
"""

from __future__ import annotations

import numpy as np


def aurc_oracle(scores, residuals, mask=None) -> float:
    """Trace the risk-coverage sweep point by point and integrate it."""
    conf = [float(v) for v in np.asarray(scores).reshape(-1)]
    res = [int(v) for v in np.asarray(residuals).reshape(-1)]
    if mask is not None:
        keep = [bool(v) for v in np.asarray(mask).reshape(-1)]
        conf = [c for c, k in zip(conf, keep) if k]
        res = [r for r, k in zip(res, keep) if k]
    n = len(conf)
    if n == 0:
        raise ValueError("empty evaluation set")

    idx_sorted = sorted(range(n), key=lambda i: (conf[i], i))
    risks = []
    weights = []
    cov = n
    error_sum = sum(res[i] for i in idx_sorted)
    risks.append(error_sum / n)
    tmp_weight = 0
    for i in range(0, len(idx_sorted) - 1):
        cov = cov - 1
        error_sum = error_sum - res[idx_sorted[i]]
        selective_risk = error_sum / (n - 1 - i)
        tmp_weight += 1
        if i == 0 or conf[idx_sorted[i]] != conf[idx_sorted[i - 1]]:
            risks.append(selective_risk)
            weights.append(tmp_weight / n)
            tmp_weight = 0
    if tmp_weight > 0:
        risks.append(risks[-1])
        weights.append(tmp_weight / n)
    return sum((risks[i] + risks[i + 1]) * 0.5 * weights[i] for i in range(len(weights)))


def auroc_oracle(scores, positive) -> float:
    """Pairwise AUROC: (#(pos > neg) + 0.5 #(pos == neg)) / (#pos * #neg)."""
    conf = np.asarray(scores, dtype=np.float64).reshape(-1)
    pos_mask = np.asarray(positive, dtype=bool).reshape(-1)
    pos = conf[pos_mask]
    neg = conf[~pos_mask]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative")
    gt = np.sum(pos[:, None] > neg[None, :])
    eq = np.sum(pos[:, None] == neg[None, :])
    return float((gt + 0.5 * eq) / (pos.size * neg.size))


def optimal_confidence(res) -> np.ndarray:
    """Distinct confidences ranking every failure strictly below every success."""
    n = res.shape[0]
    order = np.lexsort((np.arange(n), 1 - res))
    conf = np.empty(n)
    conf[order] = np.arange(n, dtype=np.float64)
    return conf
