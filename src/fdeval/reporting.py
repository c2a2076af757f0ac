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

from .metrics import RiskCoverageCurve, _words
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


def _hundredths(v: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, dict[int, bytes]]:
    """format(x, ".2f") of each element of v as its row of _cents_table (100 times the text's value),
    as floats, written into out when given, and the texts that are no row.

    Nonnegative values clear of a half-hundredth are np.rint(100 * v) while it
    is below _CENTS; exact or near ties, non-finite values and all others go
    through format() once each. A text that is no row of the table (negative,
    1000.00 or more, or not finite) gets NaN, which equals and orders against
    nothing, and its bytes go in the dict under the element's index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = 100.0 * v
        hundredths = np.rint(scaled, out=out)
        fast = ~np.signbit(v) & (hundredths < _CENTS) & (np.abs(scaled - hundredths) < 0.5 - _TIE_GAP)
    others = {}
    for i in np.flatnonzero(~fast).tolist():
        text = format(float(v[i]), ".2f")
        whole, _, part = text.partition(".")
        if whole.isdigit() and len(whole) <= 3:   # "-0.00", "nan" and "1000.00" are no row
            hundredths[i] = int(whole + part)
        else:
            hundredths[i] = np.nan
            others[i] = text.encode("ascii")
    return hundredths, others


def _text_rows(hundredths: np.ndarray, others: dict[int, bytes], idx: np.ndarray) -> np.ndarray:
    """The texts of elements idx of what _hundredths returned, one row of ASCII bytes each, padded with _PAD."""
    rows = hundredths[idx]
    odd = np.flatnonzero(np.isnan(rows))
    rows[odd] = 0.0
    out = np.take(_cents_table(), rows.astype(np.int64), axis=0)
    texts = [others[i] for i in idx[odd].tolist()]
    width = max([_WIDTH] + [len(t) for t in texts])
    if width > _WIDTH:
        out = np.concatenate([np.full((idx.shape[0], width - _WIDTH), _PAD, dtype=np.uint8), out], axis=1)
    if texts:  # a bytes array pads with NUL, which is _PAD
        out[odd] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out


# curve points per block of the path: each block's vertex arrays are a few hundred KB
_PATH_BLOCK = 1 << 13


def _corners(xs: np.ndarray, ys: np.ndarray, step: int):
    """The vertices of the stepped path through points (xs, ys) that the drawing needs, as the point
    indices of their x and y texts, in pieces of at most about 2 * step vertices.

    xs and ys are the points' coordinates as _hundredths gives them. Vertex 0
    is point 0; vertices 2k - 1 and 2k are (x_k, y_(k-1)) and (x_k, y_k). A
    vertex is dropped when its text repeats the vertex before it, or when it
    lies strictly between its two neighbours on one vertical or horizontal
    line, so the drawn path stays the same. A drop never makes a further one
    possible, so one pass of each finds them all; no order of the points is
    assumed. A coordinate outside the text table is NaN, so its vertex is
    never dropped. The points are read step at a time; the last two vertices
    the first rule keeps wait for the next piece, which holds the right
    neighbour that the second rule needs.
    """
    # the point indices of the texts of the last two kept vertices of the pieces before
    tix, tiy = np.zeros(1, np.int64), np.zeros(1, np.int64)
    yield tix, tiy   # vertex 0 is always drawn
    waiting = False   # whether the last of them waits for its right neighbour
    for lo in range(1, xs.shape[0], step):
        k = np.arange(lo, min(lo + step, xs.shape[0]))
        # vertices 2k - 1 = (x_k, y_(k-1)) and 2k = (x_k, y_k), against the vertices before them,
        # 2k - 2 = (x_(k-1), y_(k-1)) and 2k - 1
        ix, iy, py = np.repeat(k, 2), np.stack([k - 1, k], axis=1).reshape(-1), np.repeat(k - 1, 2)
        kept = (xs[ix] != xs[iy]) | (ys[iy] != ys[py])
        six, siy = np.r_[tix, ix[kept]], np.r_[tiy, iy[kept]]
        sx, sy = xs[six], ys[siy]
        first, last = tix.shape[0] - waiting, six.shape[0] - 1   # the vertices decided here: first..last - 1
        if last > first:
            a, b, c = sx[first - 1:last - 1], sx[first:last], sx[first + 1:]
            p, q, r = sy[first - 1:last - 1], sy[first:last], sy[first + 1:]
            # strictly between: the two steps point the same way; a NaN is never between
            inner = (((a == b) & (b == c) & ((q - p) * (r - q) > 0))
                     | ((p == q) & (q == r) & ((b - a) * (c - b) > 0)))
            yield six[first:last][~inner], siy[first:last][~inner]
        waiting = last >= first
        tix, tiy = six[-2:], siy[-2:]
    if waiting:
        yield tix[-1:], tiy[-1:]   # the last vertex is always drawn


def _path_data(xs: np.ndarray, ys: np.ndarray, first: bool) -> bytes:
    """Path data through the vertices whose texts are rows xs and ys, the padding dropped; "M" leads the
    first vertex of the path, and " L" every other one."""
    wx = xs.shape[1]
    out = np.empty((xs.shape[0], 4 + wx + ys.shape[1]), dtype=np.uint8)
    out[:, :3] = tuple(b" L ")
    out[:, 3:3 + wx] = xs
    out[:, 3 + wx] = ord(",")
    out[:, 4 + wx:] = ys
    if first:
        out[0, :3] = (_PAD, ord("M"), ord(" "))
    return out.tobytes().replace(bytes([_PAD]), b"")


def _path(coverages: np.ndarray, risks: np.ndarray, to_x, to_y) -> list[bytes]:
    """The d attribute of the stepped path through the points (to_x(coverages), to_y(risks)), in pieces.

    Each coordinate's text is settled once (_hundredths), one block of _PATH_BLOCK points at a time,
    into scratch words (metrics._words); the path keeps only the corners of the steps (_corners).
    """
    n = coverages.shape[0]
    xs, ys = _words("w1", n, np.float64), _words("w2", n, np.float64)
    x_others, y_others = {}, {}
    for lo in range(0, n, _PATH_BLOCK):
        hi = min(lo + _PATH_BLOCK, n)
        for v, rows, others in ((to_x(coverages[lo:hi]), xs, x_others), (to_y(risks[lo:hi]), ys, y_others)):
            others.update((lo + i, text) for i, text in _hundredths(v, out=rows[lo:hi])[1].items())
    return [_path_data(_text_rows(xs, x_others, ix), _text_rows(ys, y_others, iy), first=not i)
            for i, (ix, iy) in enumerate(_corners(xs, ys, _PATH_BLOCK))]


def render_rc_svg(curve: RiskCoverageCurve, study: str, csf: str) -> bytes:
    """Static stepped risk-coverage plot on fixed [0,1] x [0,1] axes, as UTF-8 bytes.

    The path is drawn through the corners of the steps alone, at two decimals
    of a pixel: see _corners.
    """
    left, right, top, bottom = 60.0, 440.0, 20.0, 320.0

    def x(cov: float) -> str:
        return format(left + (right - left) * cov, ".2f")

    def y(risk: float) -> str:
        return format(bottom - (bottom - top) * risk, ".2f")

    path = _path(np.asarray(curve.coverages, dtype=np.float64), np.asarray(curve.risks, dtype=np.float64),
                 lambda cov: left + (right - left) * cov, lambda risk: bottom - (bottom - top) * risk)

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
    return b"".join([head.encode(), *path, tail.encode()])
