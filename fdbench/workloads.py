"""Seeded bundle generator and the fixed command sequence of every workload.

A workload is a bundle generated from the seed, a run config, and a list of
`fdeval` CLI commands run one after the other. Each command names the artifacts it must leave behind, so a missing
file counts as a failed command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fdeval import CSF_IDS, PredictionBundle, validate_bundle, write_bundle

NEWCLASS_TAG = "NEWCLASS_SEMANTIC"
NEWCLASS_SHARE = 0.05    # share of rows tagged NEWCLASS_SEMANTIC
COVARIATE_SHARE = 0.30   # share of rows tagged COVARIATE; the rest are IID
ALL_CSFS = list(CSF_IDS)


@dataclass(frozen=True)
class Shape:
    n: int
    c: int
    t: int = 0
    d: int = 0
    tied_external: bool = False


def generate(shape: Shape, seed: int) -> PredictionBundle:
    """Synthetic classifier outputs; the same (shape, seed) gives the same arrays.

    Inlier labels are spread evenly over the c classes (every class gets at
    least two inlier rows, which the Mahalanobis fit needs). The labelled
    class gets a logit boost that is smaller on COVARIATE rows, so those fail
    more often; new-class rows get no boost and always count as failures.
    """
    rng = np.random.default_rng(seed)
    n, c = shape.n, shape.c
    n_new = int(round(NEWCLASS_SHARE * n))
    n_cov = int(round(COVARIATE_SHARE * n))
    n_in = n - n_new
    if n_in < 2 * c:
        raise ValueError(f"n={n} leaves {n_in} inlier rows, need at least {2 * c} for c={c}")
    tags = np.array([NEWCLASS_TAG] * n_new + ["COVARIATE"] * n_cov + ["IID"] * (n - n_new - n_cov), dtype="U24")
    tags = tags[rng.permutation(n)]
    is_new = tags == NEWCLASS_TAG

    labels = np.full(n, c, dtype=np.int64)
    labels[~is_new] = rng.permutation(np.arange(n_in) % c)

    logits = rng.normal(0.0, 1.0, (n, c))
    boost = np.where(tags == "COVARIATE", rng.normal(1.0, 1.5, n), rng.normal(3.0, 1.5, n))
    inl = np.flatnonzero(~is_new)
    logits[inl, labels[inl]] += boost[inl]

    mcd = None
    if shape.t:
        mcd = logits[:, None, :] + rng.normal(0.0, 0.5, (n, shape.t, c))
    features = None
    if shape.d:
        means = rng.normal(0.0, 1.0, (c + 1, shape.d))
        features = means[labels] + rng.normal(0.0, 1.0, (n, shape.d))
    externals = {}
    if shape.tied_external:
        # two decimals: heavy tie groups everywhere, half-width groups at 0 and 1
        externals["tied"] = np.round(rng.random(n), 2)
    return validate_bundle(
        PredictionBundle(logits=logits, labels=labels, shift_tags=tags,
                         mcd_logits=mcd, features=features, externals=externals)
    )


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]          # after `python -m fdeval.cli`
    artifacts: tuple[str, ...]     # files it must write under --out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    config: dict
    commands: tuple[Command, ...]


def _svgs(studies, csfs):
    return tuple(f"rc_{s}_{c.replace(':', '-')}.svg" for s in studies for c in csfs)


# Sizes keep one pass of each workload to a few seconds, so that one run of
# the benchmark measures several passes and 70 runs of it fit in under an hour.
RANKING_CSFS = ["msr", "pe", "mls", "ext:tied"]
# msr takes the raw-score ECE path and pe the Platt path. mls is left out: at
# this size its Platt fit stalls at the 100-iteration cap on about a third of
# the seeds (700 to 1250 NLL evaluations instead of 8), so its cost would
# depend on the seed rather than on the code.
CALIBRATION_CSFS = ["msr", "pe"]
LARGE = Shape(n=100_000, c=10, tied_external=True)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="scores-wide",
            why="wide logits and features: the scores module (maha, MC-dropout) does most of the work",
            shape=Shape(n=2000, c=400, t=4, d=256),
            config={
                "csfs": ALL_CSFS,
                "studies": [{"name": "standard",
                             "metrics": ["aurc", "e-aurc", "auroc-f", "accuracy", "nll", "brier"]}],
            },
            commands=(
                Command(("evaluate", "--emit", "json,csv"), ("report.json", "report.csv")),
                Command(("precision-audit",), ("precision_audit.json", "precision_audit.csv")),
            ),
        ),
        Workload(
            name="ranking-100k",
            why="many rows, cheap scores and a tied score: metrics sorting, study slicing and SVG output",
            shape=LARGE,
            config={
                "csfs": RANKING_CSFS,
                "studies": [
                    {"name": "standard",
                     "metrics": ["aurc", "e-aurc", "auroc-f", "ap-f", "ap-f-err", "accuracy"]},
                    {"name": "newclass", "kind": "newclass", "shift_filter": ["IID", NEWCLASS_TAG],
                     "metrics": ["aurc", "e-aurc", "auroc-f", "auroc-out"]},
                ],
            },
            commands=(
                Command(("evaluate", "--emit", "json,csv,svg"),
                        ("report.json", "report.csv") + _svgs(["standard", "newclass"], RANKING_CSFS)),
            ),
        ),
        Workload(
            name="calibration-100k",
            why="same bundle as ranking-100k with ECE, NLL, Brier and SGR: risk_control's calibration path; two short commands, so start-up and import are most of the wall time",
            shape=LARGE,
            config={
                "csfs": CALIBRATION_CSFS,
                "studies": [{"name": "standard", "metrics": ["ece", "nll", "brier", "accuracy"]}],
            },
            commands=(
                Command(("evaluate", "--emit", "json,csv"), ("report.json", "report.csv")),
                Command(("sgr", "--csf", "msr"), ("sgr.json",)),
            ),
        ),
    ]
}


def write_inputs(workload: Workload, seed: int, work: Path) -> tuple[PredictionBundle, Path]:
    """Write the workload's bundle and run config.

    Returns the bundle as the benchmark knows it, for the output checks, and
    the directory the program reads it from.
    """
    work.mkdir(parents=True, exist_ok=True)
    bundle = generate(workload.shape, seed)
    bundle_dir = write_bundle(bundle, work / "bundle", binary=True)
    config = dict(workload.config, bundle=str(bundle_dir))
    (work / "config.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return bundle, bundle_dir
