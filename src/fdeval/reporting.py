"""Deterministic report emission: JSON, long-format CSV, and SVG curves.

Byte-identical output for identical inputs is a contract: keys are sorted,
floats go through one shared 12-significant-digit formatter, newlines are
always "\\n", and nothing environment-dependent (timestamps, hostnames,
locale) is ever written. The SVG renderer is hand-rolled for the same reason.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from pathlib import Path

import numpy as np

from .metrics import RiskCoverageCurve
from .protocol import MetricReport

AURC_SCALE = 1000.0  # tables display AURC x 1000; JSON keeps the raw value too


def fmt_float(v: float) -> str:
    return format(float(v), ".12g")


def _round_tree(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, float):
        return float(fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return obj


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_round_tree(obj), sort_keys=True, indent=2) + "\n")
    return path


def report_json_obj(report: MetricReport) -> dict:
    studies: dict = {}
    for (study, csf, metric), value in report.values.items():
        entry = studies.setdefault(study, {"csfs": {}, "ranks": {}, "info": {}})
        row = entry["csfs"].setdefault(csf, {})
        if metric == "aurc":
            row["aurc"] = value * AURC_SCALE
            row["aurc_raw"] = value
        else:
            row[metric] = value
    for (study, metric), ranks in report.ranks.items():
        if study in studies:
            studies[study]["ranks"][metric] = dict(ranks)
    for study, info in report.study_info.items():
        if study in studies:
            studies[study]["info"] = dict(info)
    return {"studies": studies}


def csv_text(header, rows) -> str:
    """RFC 4180 table with "\\n" line ends, every float through fmt_float.

    A field holding a comma, a quote or a newline is quoted, so it stays one field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_float(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def report_csv_text(report: MetricReport) -> str:
    """Long-format table, one row per study, CSF and metric."""
    rows = []
    for (study, csf, metric) in sorted(report.values, key=lambda k: (k[0], k[2], k[1])):
        value = report.values[(study, csf, metric)]
        if metric == "aurc":
            value = value * AURC_SCALE
        rank = report.ranks.get((study, metric), {}).get(csf, "")
        rows.append([study, csf, metric, value, rank])
    return csv_text(["study", "csf", "metric", "value", "rank"], rows)


def safe_name(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "._-") else "-" for ch in name)


_PAD = 0  # fill byte of the fixed-width text records below; never part of the output
# Distance from a half-hundredth below which a coordinate is left to format():
# 100 * v carries a rounding error of about 1e-11 for v < 1000, so outside this
# gap np.rint(100 * v) is the integer format(v, ".2f") rounds the exact v to.
_TIE_GAP = 1e-6
_CENTS = 100_000  # _cents_table covers 0.00 to 999.99
_WIDTH = 6        # len("999.99")


@functools.cache
def _cents_table() -> np.ndarray:
    """Row k: format(k / 100, ".2f") right-aligned in _WIDTH bytes, padded with _PAD; built on first use."""
    zero = ord("0")
    w = np.arange(_CENTS // 100)  # the whole part, without leading zeros
    f = np.arange(100)
    table = np.empty((w.shape[0], 100, _WIDTH), dtype=np.uint8)  # row k = 100 * w + f
    table[:, :, :3] = np.stack([np.where(w >= 100, zero + w // 100, _PAD),
                                np.where(w >= 10, zero + w // 10 % 10, _PAD), zero + w % 10], axis=1)[:, None]
    table[:, :, 3:] = np.stack([np.full(100, ord(".")), zero + f // 10, zero + f % 10], axis=1)
    table.flags.writeable = False  # every caller shares the cached array
    return table.reshape(_CENTS, _WIDTH)


def _fixed2(v: np.ndarray) -> np.ndarray:
    """format(x, ".2f") of each element of v as a row of ASCII bytes, padded with _PAD.

    Nonnegative values clear of a half-hundredth are looked up in _cents_table
    by np.rint(100 * v) while it is below _CENTS; exact or near ties,
    non-finite values and all others go through format() one by one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = 100.0 * v
        cents = np.rint(scaled)
        fast = ~np.signbit(v) & (cents < _CENTS) & (np.abs(scaled - cents) < 0.5 - _TIE_GAP)
    slow = np.flatnonzero(~fast)
    texts = [format(float(v[i]), ".2f").encode("ascii") for i in slow]
    out = np.take(_cents_table(), np.where(fast, cents, 0.0).astype(np.int64), axis=0)
    width = max([_WIDTH] + [len(t) for t in texts])
    if width > _WIDTH:
        out = np.concatenate([np.full((v.shape[0], width - _WIDTH), _PAD, dtype=np.uint8), out], axis=1)
    if texts:  # a bytes array pads with NUL, which is _PAD
        out[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out


def _path_data(xs: np.ndarray, ys: np.ndarray) -> bytes:
    """The d attribute of the curve path from the _fixed2 rows of its coordinates, the padding dropped."""
    wx = xs.shape[1]
    # block i holds the two vertices of point i, " L x_i,y_(i-1)" across and " L x_i,y_i" down, so x_i is
    # written once for both; block 0 holds "M x0,y0" and, before it, a vertex of padding alone
    out = np.empty((xs.shape[0], 2, 4 + wx + ys.shape[1]), dtype=np.uint8)
    out[:, :, :3] = tuple(b" L ")
    out[:, :, 3:3 + wx] = xs[:, None]
    out[:, :, 3 + wx] = ord(",")
    out[:, 1, 4 + wx:] = ys
    out[1:, 0, 4 + wx:] = ys[:-1]
    out[0, 0] = _PAD
    out[0, 1, :3] = (_PAD, ord("M"), ord(" "))
    return out.tobytes().replace(bytes([_PAD]), b"")


def render_rc_svg(curve: RiskCoverageCurve, study: str, csf: str) -> bytes:
    """Static stepped risk-coverage plot on fixed [0,1] x [0,1] axes, as UTF-8 bytes."""
    left, right, top, bottom = 60.0, 440.0, 20.0, 320.0

    def x(cov: float) -> str:
        return format(left + (right - left) * cov, ".2f")

    def y(risk: float) -> str:
        return format(bottom - (bottom - top) * risk, ".2f")

    xs = _fixed2(left + (right - left) * np.asarray(curve.coverages, dtype=np.float64))
    ys = _fixed2(bottom - (bottom - top) * np.asarray(curve.risks, dtype=np.float64))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="360" viewBox="0 0 480 360">',
        '<rect x="0" y="0" width="480" height="360" fill="#ffffff"/>',
    ]
    for i in range(5):
        t = i / 4.0
        gx, gy = x(t), y(t)
        parts.append(f'<line x1="{gx}" y1="{y(0.0)}" x2="{gx}" y2="{y(1.0)}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<line x1="{x(0.0)}" y1="{gy}" x2="{x(1.0)}" y2="{gy}" stroke="#e0e0e0" stroke-width="1"/>')
        label = format(t, ".2f")
        parts.append(f'<text x="{gx}" y="338" font-family="monospace" font-size="10" text-anchor="middle">{label}</text>')
        parts.append(f'<text x="52" y="{gy}" font-family="monospace" font-size="10" text-anchor="end">{label}</text>')
    parts.append(f'<line x1="{x(0.0)}" y1="{y(0.0)}" x2="{x(1.0)}" y2="{y(0.0)}" stroke="#333333" stroke-width="1.5"/>')
    parts.append(f'<line x1="{x(0.0)}" y1="{y(0.0)}" x2="{x(0.0)}" y2="{y(1.0)}" stroke="#333333" stroke-width="1.5"/>')
    parts.append('<path d="{path}" fill="none" stroke="#2a6f97" stroke-width="1.5"/>')
    parts.append(f'<text x="250" y="14" font-family="monospace" font-size="12" text-anchor="middle">{safe_name(study)} / {safe_name(csf)}</text>')
    parts.append('<text x="250" y="354" font-family="monospace" font-size="11" text-anchor="middle">coverage</text>')
    parts.append('<text x="14" y="170" font-family="monospace" font-size="11" text-anchor="middle" transform="rotate(-90 14 170)">selective risk</text>')
    parts.append("</svg>")
    # the path's bytes go in once, between the encoded text before and after its {path} mark
    head, _, tail = ("\n".join(parts) + "\n").partition("{path}")
    return b"".join([head.encode(), _path_data(xs, ys), tail.encode()])
