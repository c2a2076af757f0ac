"""Command-line entry point.

Subcommands: score, evaluate, rc-curve, sgr, calibrate, precision-audit,
verify. Exit codes: 0 success, 2 for InvalidParameter (a flag or config value
out of range) and for usage errors, 1 for every other FdevalError and for an
OSError (bad data, degenerate inputs, unwritable output); main is the only
place that maps an exception to an exit code. All artifacts are
byte-deterministic for identical inputs. FDSHIFT_SEED selects the seed for
synthetic fixtures. Under glibc, main pins malloc's thresholds for the process
(_pin_malloc).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import ALL_TAGS, STANDARD, failure_labels, load_bundle
from .errors import FdevalError, InvalidParameter
from .metrics import aurc, rc_curve
from .oracle import aurc_oracle, auroc_oracle
from .precision_audit import audit, synthesize_highconf_bundle
from .protocol import (
    DEFAULT_METRICS,
    SOFTMAX_METRICS,
    MetricReport,
    StudySpec,
    rank_table,
    run_study,
)
from .reporting import (
    AURC_SCALE,
    csv_text,
    render_rc_svg,
    report_csv_text,
    report_json_obj,
    safe_name,
    write_json,
)
from .risk_control import ece, platt_apply, platt_fit, sgr_select
from .scores import CSF_IDS, EXTERNAL_PREFIX, MLS, MSR, PE, PRECISIONS, SoftmaxConfig, compute_csf, compute_csfs

ENV_SEED = "FDSHIFT_SEED"
EMIT_KINDS = ("json", "csv", "svg")
# the keys a run config and each of its study entries may hold, with the JSON types each may take
CONFIG_TYPES = {"bundle": str, "out": str, "precision": str, "temperature": (int, float), "csfs": list,
                "studies": list, "emit": list, "ece_bins": int}
STUDY_TYPES = {"name": str, "kind": str, "shift_filter": list, "metrics": list}
# largest ECE bin count: np.linspace builds the bin edges, and 1e6 of them take 8 MB
MAX_BINS = 10**6
# Unicode category Cc; in a study or CSF name a lone \r would split a report.csv row
CONTROL_CHARS = re.compile("[\x00-\x1f\x7f-\x9f]")
# glibc mallopt parameters (malloc.h) and the values _pin_malloc gives them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 2 << 20, 16 << 20


@dataclass
class RunConfig:
    bundle: str | None
    out: Path
    softmax: SoftmaxConfig
    csfs: list[str]
    studies: list[StudySpec]
    emit: list[str]
    ece_bins: int


def _sci(v: float) -> str:
    mant, exp = f"{float(v):.1e}".split("e")
    return f"{mant}e{int(exp)}"


def _env_seed() -> int:
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"{ENV_SEED} must be an integer, got {raw!r}")


def _valid_csf(name: str) -> str:
    if name in CSF_IDS or (name.startswith(EXTERNAL_PREFIX) and len(name) > len(EXTERNAL_PREFIX)):
        return _no_control_chars(name, "CSF")
    raise InvalidParameter(f"unknown CSF {name!r}; expected one of {CSF_IDS} or '{EXTERNAL_PREFIX}<name>'")


def _valid_csfs(names) -> list[str]:
    csfs = [_valid_csf(str(c)) for c in names]
    for i, csf in enumerate(csfs):
        if csf in csfs[:i]:
            raise InvalidParameter(f"CSF {csf!r} is listed twice")
    return csfs


def _no_control_chars(name: str, what: str) -> str:
    if CONTROL_CHARS.search(name):
        raise InvalidParameter(f"{what} name {name!r} holds a control character")
    return name


def _valid_bins(bins, what: str) -> int:
    if not 1 <= bins <= MAX_BINS:
        raise InvalidParameter(f"{what} must be an integer in [1, {MAX_BINS}], got {bins!r}")
    return bins


def _check_json_object(value, types: dict, what: str) -> None:
    if not isinstance(value, dict):
        raise InvalidParameter(f"{what} must be a JSON object, got {value!r}")
    unknown = set(value) - set(types)
    if unknown:
        raise InvalidParameter(f"unknown {what} keys: {sorted(unknown)}")
    for key, item in value.items():
        # a JSON true or false is no number, though Python's bool is an int; no key takes a bool
        if isinstance(item, bool) or not isinstance(item, types[key]):
            raise InvalidParameter(f"{what} key {key!r} has the wrong JSON type: {item!r}")


def build_run_config(args) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise InvalidParameter(f"config file {path} not found")
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, invalid JSON, or bytes that are no UTF-8
            raise InvalidParameter(f"config file {path}: {exc}")
        _check_json_object(data, CONFIG_TYPES, "config")

    for key in ("bundle", "out", "precision"):    # an empty value is refused, not passed over to the next source
        if "" in (getattr(args, key, None), data.get(key)):
            raise InvalidParameter(f"{key} must not be empty")
    bundle = getattr(args, "bundle", None) or data.get("bundle")
    out = Path(getattr(args, "out", None) or data.get("out") or "out")
    precision = getattr(args, "precision", None) or data.get("precision") or "f64"
    temperature = getattr(args, "temperature", None)
    if temperature is None:
        temperature = data.get("temperature", 1.0)
    softmax_cfg = SoftmaxConfig(precision=precision, temperature=temperature)

    default_csfs = [MSR, PE, MLS] if getattr(args, "command", None) == "verify" else [MSR, PE]
    csfs = _valid_csfs(data.get("csfs", default_csfs))
    if not csfs:
        raise InvalidParameter("csfs must name at least one CSF")
    flag = getattr(args, "csf", None)    # one name, or verify's repeatable list
    _valid_csfs([flag] if isinstance(flag, str) else flag or [])

    studies = []
    for entry in data.get("studies", []):
        _check_json_object(entry, STUDY_TYPES, "study")
        spec = StudySpec(
            name=_no_control_chars(entry.get("name", ""), "study"),
            kind=entry.get("kind", STANDARD),
            shift_filter=tuple(entry.get("shift_filter", ALL_TAGS)),
            metrics=tuple(entry.get("metrics", DEFAULT_METRICS)),
        )
        for s in studies:
            if s.name == spec.name:
                raise InvalidParameter(f"duplicate study name {spec.name!r}")
            if safe_name(s.name) == safe_name(spec.name):
                raise InvalidParameter(
                    f"study names {s.name!r} and {spec.name!r} both map to file name part {safe_name(spec.name)!r}"
                )
        studies.append(spec)

    emit = data.get("emit", ["json", "csv"])
    if getattr(args, "emit", None) is not None:
        emit = [e for e in args.emit.split(",") if e]
    if not emit:
        raise InvalidParameter(f"emit must name at least one of {EMIT_KINDS}")
    for e in emit:
        if e not in EMIT_KINDS:
            raise InvalidParameter(f"unknown emit kind {e!r}; expected subset of {EMIT_KINDS}")

    ece_bins = _valid_bins(data.get("ece_bins", 15), "ece_bins")
    if getattr(args, "bins", None) is not None:    # calibrate's --bins beats the config's ece_bins
        ece_bins = _valid_bins(args.bins, "--bins")
    return RunConfig(
        bundle=bundle,
        out=out,
        softmax=softmax_cfg,
        csfs=csfs,
        studies=studies,
        emit=list(emit),
        ece_bins=ece_bins,
    )


def _require_bundle(rc: RunConfig):
    if not rc.bundle:
        raise InvalidParameter("--bundle is required for this command")
    return load_bundle(rc.bundle)


def _standard_csf(rc: RunConfig, csf: str):
    """One CSF's confidences over all bundle rows and the bundle's standard failure labels, the input of
    the single-CSF commands."""
    bundle = _require_bundle(rc)
    return compute_csf(bundle, csf, rc.softmax), failure_labels(bundle, STANDARD)


def _write(rc: RunConfig, name: str, content) -> Path:
    """Write one artifact into the output directory: a dict as deterministic JSON, bytes as they are, a str as UTF-8."""
    rc.out.mkdir(parents=True, exist_ok=True)
    path = rc.out / name
    if isinstance(content, dict):
        return write_json(path, content)
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return path


def cmd_score(rc: RunConfig, args) -> list[Path]:
    vec, _ = _standard_csf(rc, args.csf)
    return [_write(rc, f"scores_{safe_name(args.csf)}.json", {
        "csf": vec.csf_id,
        "precision": vec.precision_mode,
        "temperature": rc.softmax.temperature,
        "n": int(vec.scores.shape[0]),
        "scores": vec.scores,
    })]


def _svg_name(study: str, csf: str) -> str:
    return f"rc_{safe_name(study)}_{safe_name(csf)}.svg"


def cmd_evaluate(rc: RunConfig, args) -> list[Path]:
    bundle = _require_bundle(rc)
    studies = rc.studies or [StudySpec(name="standard")]
    if "svg" in rc.emit:
        owners = {}
        for spec in studies:
            for csf in rc.csfs:
                name = _svg_name(spec.name, csf)
                other = owners.setdefault(name, (spec.name, csf))
                if other != (spec.name, csf):
                    raise InvalidParameter(
                        f"study {spec.name!r} CSF {csf!r} and study {other[0]!r} CSF {other[1]!r} both write {name}"
                    )
    keep_terms = any(not SOFTMAX_METRICS.isdisjoint(spec.metrics) for spec in studies)
    scores = compute_csfs(bundle, rc.csfs, rc.softmax, keep_terms)
    svgs = []

    def write_svg(study: str, csf: str, curve) -> None:
        svgs.append(_write(rc, _svg_name(study, csf), render_rc_svg(curve, study, csf)))

    on_curve = write_svg if "svg" in rc.emit else None
    report = MetricReport()
    for spec in studies:
        report.merge(run_study(bundle, spec, scores, ece_bins=rc.ece_bins, on_curve=on_curve))
    rank_table(report)

    written = []
    if "json" in rc.emit:
        written.append(_write(rc, "report.json", report_json_obj(report)))
    if "csv" in rc.emit:
        written.append(_write(rc, "report.csv", report_csv_text(report)))
    return written + svgs


def cmd_rc_curve(rc: RunConfig, args) -> list[Path]:
    vec, fl = _standard_csf(rc, args.csf)
    curve = rc_curve(vec, fl)
    value = aurc(curve)
    return [
        _write(rc, "rc_curve.csv", csv_text(["coverage", "risk"], zip(curve.coverages, curve.risks))),
        _write(rc, "rc_curve.json", {
            "csf": args.csf,
            **asdict(curve),
            "aurc": value * AURC_SCALE,
            "aurc_raw": value,
        }),
    ]


def cmd_sgr(rc: RunConfig, args) -> list[Path]:
    vec, fl = _standard_csf(rc, args.csf)
    result = sgr_select(vec, fl.residuals, r_star=args.rstar, delta=args.delta)
    return [_write(rc, "sgr.json", {"csf": args.csf, **asdict(result)})]


def cmd_calibrate(rc: RunConfig, args) -> list[Path]:
    vec, fl = _standard_csf(rc, args.csf)
    model = platt_fit(vec, fl.residuals, prior_smoothing=args.smoothing)
    calibrated = platt_apply(model, vec)
    value = ece(calibrated, fl.residuals, bins=rc.ece_bins)
    return [_write(rc, "calibration.json", {
        "csf": args.csf,
        **asdict(model),
        "bins": rc.ece_bins,
        "smoothing": bool(args.smoothing),
        "ece": value,
    })]


def cmd_precision_audit(rc: RunConfig, args) -> list[Path]:
    if args.synthetic:
        params = {"n": args.n, "c": args.c, "failure_rate": args.failure_rate,
                  "gap_low": args.gap_low, "gap_high": args.gap_high, "seed": _env_seed()}
        bundle = synthesize_highconf_bundle(**params)
        source = {"source": "synthetic", **params}
    else:
        bundle = _require_bundle(rc)
        source = {"source": "bundle"}
    report = audit(bundle, temperature=rc.softmax.temperature, quantize_storage=not args.compute_only)
    obj = {
        **asdict(report),
        "aurc": {p: v * AURC_SCALE for p, v in report.aurc.items()},
        "aurc_raw": report.aurc,
        "temperature": rc.softmax.temperature,
        "quantize_storage": not args.compute_only,
        **source,
    }
    rows = [(p, report.round_to_one_rate[p], report.aurc[p] * AURC_SCALE, report.auroc_f[p], report.accuracy[p])
            for p in report.precisions]
    table = csv_text(["precision", "round_to_one_rate", "aurc", "auroc_f", "accuracy"], rows)
    return [_write(rc, "precision_audit.json", obj), _write(rc, "precision_audit.csv", table)]


def cmd_verify(rc: RunConfig, args) -> list[Path]:
    bundle = _require_bundle(rc)
    fl = failure_labels(bundle, STANDARD)
    csfs = args.csf or rc.csfs
    # the values evaluate writes for an all-rows standard study, checked against the oracles
    scores = compute_csfs(bundle, csfs, rc.softmax)
    spec = StudySpec(name="verify", kind=STANDARD, metrics=("aurc", "auroc-f"))
    values = run_study(bundle, spec, scores).values
    aurc_dev = auroc_dev = 0.0
    for csf, vec in scores.items():
        ref = aurc_oracle(vec.scores, fl.residuals, fl.eval_mask)
        aurc_dev = max(aurc_dev, abs(values[(spec.name, csf, "aurc")] - ref))
        ref_roc = auroc_oracle(vec.scores[fl.eval_mask], fl.residuals[fl.eval_mask] == 0)
        auroc_dev = max(auroc_dev, abs(values[(spec.name, csf, "auroc-f")] - ref_roc))
    print(f"csfs={','.join(csfs)}")
    print(f"aurc_max_dev={_sci(aurc_dev)}")
    print(f"auroc_max_dev={_sci(auroc_dev)}")
    return []


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bundle", help="bundle directory")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--precision", choices=PRECISIONS, help="softmax arithmetic precision (default: f64)")
    common.add_argument("--temperature", type=float, help="temperature dividing logits before softmax (default: 1)")
    common.add_argument("--config", help="JSON run configuration file")

    parser = argparse.ArgumentParser(prog="fdeval", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("score", parents=[common], help="compute one confidence score vector")
    p.add_argument("--csf", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", parents=[common], help="run the configured studies and emit reports")
    p.add_argument("--emit", help="comma list from json,csv,svg (default json,csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rc-curve", parents=[common], help="risk-coverage curve for one CSF")
    p.add_argument("--csf", default=MSR)
    p.set_defaults(func=cmd_rc_curve)

    p = sub.add_parser("sgr", parents=[common], help="risk-guaranteed threshold selection")
    p.add_argument("--csf", default=MSR)
    p.add_argument("--rstar", type=float, default=0.15)
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=cmd_sgr)

    p = sub.add_parser("calibrate", parents=[common], help="Platt-scale a CSF and report ECE")
    p.add_argument("--csf", default=MSR)
    p.add_argument("--bins", type=int, help="ECE bin count (default: the config's ece_bins, else 15)")
    p.add_argument("--smoothing", action="store_true", help="prior-count target smoothing")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("precision-audit", parents=[common], help="softmax ranking audit across precisions")
    p.add_argument("--synthetic", action="store_true", help="audit a seeded synthetic bundle instead of --bundle")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--c", type=int, default=10)
    p.add_argument("--failure-rate", type=float, default=0.3)
    p.add_argument("--gap-low", type=float, default=20.0)
    p.add_argument("--gap-high", type=float, default=40.0)
    p.add_argument("--compute-only", action="store_true", help="keep f64 storage, reduce arithmetic only")
    p.set_defaults(func=cmd_precision_audit)

    p = sub.add_parser("verify", parents=[common], help="cross-check fast metrics against the oracles")
    p.add_argument("--csf", action="append", help="CSF to verify (repeatable; default: the config's csfs, else msr, pe, mls)")
    p.set_defaults(func=cmd_verify)

    return parser


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):   # no confstr, no such name, or no value
        return False


def _pin_malloc() -> None:
    """Under glibc, fix malloc's thresholds: a block of MMAP_THRESHOLD bytes or more is mapped, and
    unmapped when freed, and the heap keeps up to TRIM_THRESHOLD bytes free before it gives pages back.

    glibc otherwise raises both whenever a larger mapped block is freed, so the cost of the sweeps'
    n-long temporaries hung on whether an earlier step freed a large array: ranking-100k's run_study
    took about 1600 minor faults after such a free, 16600 without it, and 3200 with these thresholds.
    """
    if not _glibc():
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _pin_malloc()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        rc = build_run_config(args)
        for path in args.func(rc, args):  # each command returns the artifacts it wrote, in order
            print(f"wrote {path}")
        return 0
    except InvalidParameter as exc:  # a flag or config value out of range: fix the input and rerun
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FdevalError, OSError) as exc:  # OSError: an output that cannot be created or written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's own subclass has a private name
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
