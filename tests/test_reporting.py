import csv
import io
import re

import numpy as np

import fdeval.reporting
from conftest import REPO
from fdeval import compute_csf, failure_labels, load_bundle, rc_curve
from fdeval.cli import main
from fdeval.core import STANDARD
from fdeval.metrics import RiskCoverageCurve
from fdeval.protocol import MetricReport
from fdeval.reporting import _hundredths, _text_rows, render_rc_svg, report_csv_text, safe_name

LEFT, RIGHT, TOP, BOTTOM = 60.0, 440.0, 20.0, 320.0


def per_point_render_rc_svg(curve, study, csf):
    """The renderer as it was before array formatting: two format() calls per coordinate of every vertex."""
    left, right, top, bottom = LEFT, RIGHT, TOP, BOTTOM

    def x(cov: float) -> str:
        return format(left + (right - left) * cov, ".2f")

    def y(risk: float) -> str:
        return format(bottom - (bottom - top) * risk, ".2f")

    covs = list(map(float, curve.coverages))
    risks = list(map(float, curve.risks))
    d = [f"M {x(covs[0])},{y(risks[0])}"]
    for k in range(1, len(covs)):
        d.append(f"L {x(covs[k])},{y(risks[k - 1])}")
        d.append(f"L {x(covs[k])},{y(risks[k])}")
    path = " ".join(d)

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
    parts.append(f'<path d="{path}" fill="none" stroke="#2a6f97" stroke-width="1.5"/>')
    parts.append(f'<text x="250" y="14" font-family="monospace" font-size="12" text-anchor="middle">{safe_name(study)} / {safe_name(csf)}</text>')
    parts.append('<text x="250" y="354" font-family="monospace" font-size="11" text-anchor="middle">coverage</text>')
    parts.append('<text x="14" y="170" font-family="monospace" font-size="11" text-anchor="middle" transform="rotate(-90 14 170)">selective risk</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def hand_curve(coverages, risks):
    coverages = np.asarray(coverages, dtype=np.float64)
    return RiskCoverageCurve(coverages=coverages, risks=np.asarray(risks, dtype=np.float64),
                             weights=np.zeros(max(coverages.size - 1, 0)))


def to_x(cov):
    return LEFT + (RIGHT - LEFT) * cov


def to_y(risk):
    return BOTTOM - (BOTTOM - TOP) * risk


def around(p):
    return [np.nextafter(p, 0.0), p, np.nextafter(p, 1000.0)]


# pixel values on a half-hundredth that a coverage or risk can hit exactly, and one ulp either side
X_TIES = [t for p in (60.125, 100.375, 439.875) for t in around(p)]
Y_TIES = [t for p in (170.625, 319.875) for t in around(p)] + [20.375]


def input_hitting(target, to_pixel, start):
    """An input within 300 ulps of start whose pixel coordinate is exactly target."""
    near = start + np.arange(-300, 301) * np.spacing(start)
    hits = near[to_pixel(near) == target]
    assert hits.size, target
    return hits[0]


def on_half_hundredths():
    covs = [input_hitting(t, to_x, (t - LEFT) / (RIGHT - LEFT)) for t in X_TIES]
    risks = [input_hitting(t, to_y, (BOTTOM - t) / (BOTTOM - TOP)) for t in Y_TIES]
    coverages = np.r_[1.0, covs, np.full(len(risks), 0.5)]
    order = np.argsort(-coverages, kind="stable")
    return hand_curve(coverages[order], np.r_[0.5, np.full(len(covs), 0.25), risks][order])


def toy_curves():
    bundle = load_bundle(REPO / "data" / "toy_bundle")
    fl = failure_labels(bundle, STANDARD)
    return [rc_curve(compute_csf(bundle, csf), fl) for csf in ("msr", "pe", "mls", "ext:demo")]


def random_curve(seed, n, decimals=None):
    rng = np.random.default_rng(seed)
    conf = rng.random(n)
    if decimals is not None:
        conf = np.round(conf, decimals)
    return rc_curve(conf, (rng.random(n) < 0.3).astype(np.int8))


def curve_cases():
    untied = random_curve(1, 100_000)
    tied = random_curve(2, 20_000, decimals=2)
    trailing = rc_curve(np.array([0.9, 0.9, 0.9, 0.4]), np.array([0, 1, 0, 1]))
    return {
        **{f"toy-{i}": c for i, c in enumerate(toy_curves())},
        "untied-100k": untied,
        "tied-2-decimals": tied,
        "single-point": rc_curve(np.array([0.7]), np.array([1])),
        "terminal-zero-coverage": trailing,
        "half-hundredths": on_half_hundredths(),
    }


def between(a, b, c):
    """Text vertex b lies strictly between a and c on one vertical or horizontal line."""
    for axis in (0, 1):
        if a[axis] == b[axis] == c[axis]:
            lo, mid, hi = (float(v[1 - axis]) for v in (a, b, c))
            if lo < mid < hi or lo > mid > hi:
                return True
    return False


def path_vertices(svg):
    """The (x, y) texts of the vertices of the curve path of an SVG."""
    tokens = re.search(r'<path d="([^"]*)"', svg).group(1).split(" ")
    assert tokens[0] == "M" and set(tokens[2::2]) <= {"L"}
    return [tuple(v.split(",")) for v in tokens[1::2]]


def corner_filter(svg):
    """svg with its path cut to the corners: a vertex that repeats the one kept before it is skipped,
    and a kept vertex is taken back while it lies between its kept neighbours on one axis-aligned line."""
    kept = []
    for v in path_vertices(svg):
        if kept and v == kept[-1]:
            continue
        while len(kept) >= 2 and between(kept[-2], kept[-1], v):
            kept.pop()
        kept.append(v)
    path = "M " + " L ".join(f"{x},{y}" for x, y in kept)
    return re.sub(r'<path d="[^"]*"', f'<path d="{path}"', svg)


def zigzag_curve(seed, n=400):
    """A hand-built curve whose coverages go back and forth, on a coarse grid so that texts repeat."""
    rng = np.random.default_rng(seed)
    return hand_curve(rng.integers(0, 5, n) / 4, rng.integers(0, 4, n) / 3)


def reference_cases():
    cases = curve_cases()
    for seed in range(3):
        # heavy ties, exact half-hundredths and non-monotone coverages, seeded
        cases[f"tied-1-decimal-{seed}"] = random_curve(10 + seed, 5000, decimals=1)
        cases[f"tied-3-decimals-{seed}"] = random_curve(20 + seed, 50_000, decimals=3)
        n = 608 * (seed + 1)    # 38000 / 608 = 62.5: coverages j / n put many x = 60 + 380 j / n on half-hundredths
        cases[f"half-hundredths-{seed}"] = rc_curve(np.random.default_rng(30 + seed).random(n),
                                                    np.random.default_rng(40 + seed).random(n) < 0.5)
        cases[f"zigzag-{seed}"] = zigzag_curve(50 + seed)
    cases["single-point-0-risk"] = rc_curve(np.array([0.2]), np.array([0]))
    cases["terminal-zero-coverage-tied"] = rc_curve(np.array([0.5] * 6 + [0.1]), np.array([1, 0, 1, 0, 0, 1, 0]))
    return cases


def test_render_rc_svg_matches_per_point_reference():
    cases = reference_cases()
    assert cases["untied-100k"].coverages.size == 100_000
    assert cases["tied-2-decimals"].coverages.size < 200
    assert cases["single-point"].coverages.size == 1
    assert cases["terminal-zero-coverage"].coverages[-1] == 0.0
    assert set(X_TIES) <= set(to_x(cases["half-hundredths"].coverages).tolist())
    assert set(Y_TIES) <= set(to_y(cases["half-hundredths"].risks).tolist())
    assert all(near_half_hundredths(cases[f"half-hundredths-{seed}"]) > 100 for seed in range(3))
    assert all(np.any(np.diff(cases[f"zigzag-{seed}"].coverages) > 0) for seed in range(3))
    for name, curve in cases.items():
        reference = corner_filter(per_point_render_rc_svg(curve, "a b", name))
        svg = render_rc_svg(curve, "a b", name).decode()
        assert svg == reference, name
        # the kept vertices are the corners: none repeats the one before it or lies between its neighbours
        vertices = path_vertices(svg)
        assert all(a != b for a, b in zip(vertices, vertices[1:])), name
        assert not any(between(*vertices[i - 1:i + 2]) for i in range(1, len(vertices) - 1)), name


def test_render_rc_svg_bytes_do_not_depend_on_the_path_block(monkeypatch):
    # the path is drawn a block of points at a time, and the corner test of a block's last kept
    # vertices waits for the next block; blocks of one point and of a few put a boundary everywhere
    cases = {name: curve for name, curve in reference_cases().items() if curve.coverages.size <= 5000}
    assert len(cases) > 10 and any(curve.coverages.size > 1000 for curve in cases.values())
    whole = {name: render_rc_svg(curve, "s", name) for name, curve in cases.items()}
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(fdeval.reporting, "_PATH_BLOCK", block)
        for name, curve in cases.items():
            assert render_rc_svg(curve, "s", name) == whole[name], (block, name)


def test_render_rc_svg_keeps_the_corners_only():
    curve = curve_cases()["untied-100k"]
    before = len(path_vertices(per_point_render_rc_svg(curve, "s", "c")))
    after = len(path_vertices(render_rc_svg(curve, "s", "c").decode()))
    assert before == 2 * 100_000 - 1 and after < before / 3
    # a flat curve is one horizontal line
    flat = hand_curve(np.linspace(1.0, 0.0, 1000), np.full(1000, 0.25))
    assert path_vertices(render_rc_svg(flat, "s", "c").decode()) == [("440.00", "245.00"), ("60.00", "245.00")]


def fixed2_texts(v):
    v = np.asarray(v, dtype=np.float64)
    rows = _text_rows(*_hundredths(v), np.arange(v.shape[0]))
    return [bytes(r[r != 0]).decode("ascii") for r in rows]


def test_fixed2_matches_format():
    rng = np.random.default_rng(5)
    # the edges of the cents table: a whole part gaining a digit, and the last row, 999.99
    table_edges = [9.995, 99.995, 999.994999, 999.995, 999.995000001]
    edges = [0.0, -0.0, 0.005, 0.015, 999.995, 999.999, np.nextafter(1000.0, 0.0), 1000.0, 1234.5,
             -0.001, -5.0, 1e300, np.nan, np.inf, -np.inf] + table_edges
    v = np.concatenate([rng.random(100_000) * 1000, np.arange(0, 10**6, 9) / 1000, edges])
    assert fixed2_texts(v) == [format(float(x), ".2f") for x in v]
    for part in (table_edges, [table_edges[2]], [0.004, 7.25, 42.5, 310.75, 9.99, 99.99, 999.99]):
        assert fixed2_texts(part) == [format(x, ".2f") for x in part]


def test_fixed2_leaves_1000_to_format(monkeypatch):
    calls = []

    def counting_format(value, spec=""):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(fdeval.reporting, "format", counting_format, raising=False)
    # np.rint(100 * v) is 100000 for both, one past the cents table
    assert fixed2_texts([1.25, 999.996, 999.999, 12.5]) == ["1.25", "1000.00", "1000.00", "12.50"]
    assert calls == [999.996, 999.999]


def near_half_hundredths(curve):
    pixels = np.concatenate([to_x(curve.coverages), to_y(curve.risks)])
    return int((np.abs(100 * pixels - np.rint(100 * pixels)) >= 0.5 - 1e-6).sum())


def test_render_rc_svg_format_calls_do_not_grow_with_points(monkeypatch):
    calls = []

    def counting_format(value, spec=""):
        calls.append(1)
        return format(value, spec)

    def format_calls(curve):
        calls.clear()
        render_rc_svg(curve, "s", "c")
        return len(calls)

    monkeypatch.setattr(fdeval.reporting, "format", counting_format, raising=False)
    rng = np.random.default_rng(9)
    small = hand_curve([1.0, 0.5, 0.25], [0.3, 0.2, 0.1])
    assert near_half_hundredths(small) == 0
    base = format_calls(small)
    big = hand_curve(np.r_[1.0, np.sort(rng.random(100_000 - 1))[::-1]], rng.random(100_000))
    # coverages j/n of a real curve put some x exactly on a half-hundredth
    real = random_curve(1, 100_000)
    for curve in (big, real):
        ties = near_half_hundredths(curve)
        assert ties < 0.05 * curve.coverages.size
        assert format_calls(curve) == base + ties


def test_report_csv_names_with_delimiters_round_trip(toy_bundle_dir, tmp_path):
    names = ["a,b", 'say "hi"', "two\nlines", "plain"]
    report = MetricReport()
    for i, study in enumerate(names):
        report.values[(study, f"ext:{study}", "accuracy")] = 0.5
        report.values[(study, "msr", "aurc")] = i / 8
        report.ranks[(study, "aurc")] = {"msr": 1}
    text = report_csv_text(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["study", "csf", "metric", "value", "rank"]
    assert all(len(row) == 5 for row in rows)
    assert sorted((r[0], r[1], r[2]) for r in rows[1:]) == sorted(report.values)
    assert ["a,b", "msr", "aurc", "0", "1"] in rows

    # the two other CSVs come from the same writer
    assert main(["rc-curve", "--bundle", str(toy_bundle_dir), "--out", str(tmp_path)]) == 0
    assert main(["precision-audit", "--bundle", str(toy_bundle_dir), "--out", str(tmp_path)]) == 0
    texts = [text] + [(tmp_path / name).read_text() for name in ("rc_curve.csv", "precision_audit.csv")]
    for text in texts:
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
        again = io.StringIO()
        csv.writer(again, lineterminator="\n").writerows(rows)
        assert again.getvalue() == text
        # the writer ends every record in "\n", as the plain join before it did
        assert "\r" not in text and text.endswith("\n")
    assert [row[0] for row in csv.reader(io.StringIO(texts[2]))] == ["precision", "f16", "f32", "f64"]
