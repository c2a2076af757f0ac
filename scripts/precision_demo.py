"""Show max-softmax ranking collapse at reduced precision, plus mitigations.

Generates the seeded high-gap bundle, audits it at several temperatures, and
prints one table per run. FDSHIFT_SEED picks the seed (default 7).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fdeval import audit, failure_labels, synthesize_highconf_bundle
from fdeval.reporting import AURC_SCALE


def show(report, temperature):
    print(f"temperature={temperature:g}")
    print(f"  {'precision':<10}{'rate@1.0':>10}{'aurc*1e3':>12}{'auroc_f':>10}{'accuracy':>10}")
    for p in report.precisions:
        print(
            f"  {p:<10}{report.round_to_one_rate[p]:>10.4f}"
            f"{report.aurc[p] * AURC_SCALE:>12.4f}"
            f"{report.auroc_f[p]:>10.4f}{report.accuracy[p]:>10.4f}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--c", type=int, default=10)
    ap.add_argument("--failure-rate", type=float, default=0.3)
    ap.add_argument("--gap-low", type=float, default=20.0)
    ap.add_argument("--gap-high", type=float, default=40.0)
    ap.add_argument("--temperatures", type=float, nargs="+", default=[1.0, 4.0])
    args = ap.parse_args()

    seed = int(os.environ.get("FDSHIFT_SEED", "7"))
    bundle = synthesize_highconf_bundle(
        n=args.n,
        c=args.c,
        failure_rate=args.failure_rate,
        gap_low=args.gap_low,
        gap_high=args.gap_high,
        seed=seed,
    )
    print(
        f"bundle: n={args.n} c={args.c} gaps=[{args.gap_low:g}, {args.gap_high:g}] "
        f"failures={int(failure_labels(bundle).residuals.sum())} seed={seed}"
    )
    for t in args.temperatures:
        show(audit(bundle, temperature=t), t)


if __name__ == "__main__":
    main()
