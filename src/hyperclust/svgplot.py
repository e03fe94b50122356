"""SVG output without a plotting stack: score tables, scatter plots, log-log curves.

Documents are assembled from a handful of SVG primitives and written through
:func:`hyperclust.fileio.write_text`.
Every plot can carry a generation-timestamp comment, suppressed with
``timestamp=False`` so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from xml.sax.saxutils import escape

from .fileio import write_text

__all__ = [
    "SchemaError",
    "SvgDocument",
    "plot_convergence",
    "plot_ari_table",
    "plot_scatter",
    "plot_diagnostics",
]

PALETTE = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]

DIAGNOSTIC_METRICS = [
    "norm_R_Gamma",
    "norm_hollow",
    "norm_SW",
    "norm_Sinv",
    "norm_V_2inf",
    "norm_VS_2inf",
]


class SchemaError(ValueError):
    """The rows do not carry the columns the requested plot needs."""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class SvgDocument:
    def __init__(self, width: int, height: int, timestamp: bool = True):
        self.width = width
        self.height = height
        self.timestamp = timestamp
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#000000", stroke_width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fmt(stroke_width)}" />'
        )

    def polyline(self, points, stroke="#000000", dash=None):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.50"{extra} />'
        )

    def circle(self, cx, cy, r, fill="#000000"):
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" />')

    def rect(self, x, y, w, h, stroke="#000000", stroke_width=1.0):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}"'
            f' fill="none" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}" />'
        )

    def text(self, x, y, content, size=12, anchor="start", rotate=None):
        transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate is not None else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' font-family="sans-serif" text-anchor="{anchor}" fill="#000000"{transform}>'
            f"{escape(str(content))}</text>"
        )

    def to_string(self) -> str:
        head = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}"'
            f' viewBox="0 0 {self.width} {self.height}">',
        ]
        if self.timestamp:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            head.append(f"<!-- generated {stamp} -->")
        head.append(f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="#ffffff" />')
        return "\n".join(head + self.parts + ["</svg>"]) + "\n"

    def write(self, path) -> Path:
        write_text(path, self.to_string())
        return Path(path)


@dataclass
class _LogFrame:
    """Maps log10 data coordinates onto a pixel box (y grows downward)."""

    x0: float
    y0: float
    w: float
    h: float
    lx_min: float
    lx_max: float
    ly_min: float
    ly_max: float

    def px(self, x: float, y: float) -> tuple[float, float]:
        fx = (math.log10(x) - self.lx_min) / (self.lx_max - self.lx_min)
        fy = (math.log10(y) - self.ly_min) / (self.ly_max - self.ly_min)
        return self.x0 + fx * self.w, self.y0 + self.h - fy * self.h


def _log_range(values) -> tuple[float, float]:
    positive = [v for v in values if v > 0]
    if not positive:
        raise SchemaError("log-scale plot needs positive values")
    lo = math.floor(math.log10(min(positive)))
    hi = math.ceil(math.log10(max(positive)))
    if lo == hi:
        lo -= 1
        hi += 1
    return float(lo), float(hi)


def _draw_loglog(doc: SvgDocument, frame: _LogFrame, title: str, xlabel: str, ylabel: str):
    doc.rect(frame.x0, frame.y0, frame.w, frame.h)
    for k in range(int(frame.lx_min), int(frame.lx_max) + 1):
        x, _ = frame.px(10.0**k, 10.0**frame.ly_min)
        doc.line(x, frame.y0, x, frame.y0 + frame.h, stroke="#dddddd", stroke_width=0.5)
        doc.line(x, frame.y0 + frame.h, x, frame.y0 + frame.h + 4)
        doc.text(x, frame.y0 + frame.h + 16, f"1e{k}", size=10, anchor="middle")
    for k in range(int(frame.ly_min), int(frame.ly_max) + 1):
        _, y = frame.px(10.0**frame.lx_min, 10.0**k)
        doc.line(frame.x0, y, frame.x0 + frame.w, y, stroke="#dddddd", stroke_width=0.5)
        doc.line(frame.x0 - 4, y, frame.x0, y)
        doc.text(frame.x0 - 6, y + 3, f"1e{k}", size=10, anchor="end")
    doc.text(frame.x0 + frame.w / 2, frame.y0 - 8, title, size=13, anchor="middle")
    doc.text(frame.x0 + frame.w / 2, frame.y0 + frame.h + 32, xlabel, size=11, anchor="middle")
    doc.text(frame.x0 - 40, frame.y0 + frame.h / 2, ylabel, size=11, anchor="middle", rotate=-90)


def _require_columns(rows, needed):
    if not rows:
        raise SchemaError("no data rows")
    missing = [c for c in needed if c not in rows[0]]
    if missing:
        raise SchemaError(f"missing columns: {missing}")


def _series_by_n(rows, metric: str):
    """Per n: sorted m values and the replicate means of ``metric``."""
    sums: dict[tuple[int, int], list[float]] = {}
    for row in rows:
        key = (int(row["n"]), int(row["m"]))
        sums.setdefault(key, []).append(float(row[metric]))
    series: dict[int, list[tuple[int, float]]] = {}
    for (n, m), vals in sorted(sums.items()):
        series.setdefault(n, []).append((m, sum(vals) / len(vals)))
    return series


def plot_convergence(rows, out_path, metric="norm_VS_2inf", timestamp=True) -> Path:
    """Log-log curves of a grid metric against m, one per n, with a straight
    reference guide of the expected decay slope -1/2 placed above the data."""
    _require_columns(rows, ["n", "m", metric])
    series = _series_by_n(rows, metric)
    doc = SvgDocument(640, 480, timestamp=timestamp)
    all_m = [m for pts in series.values() for (m, _) in pts]
    all_v = [v for pts in series.values() for (_, v) in pts]
    lx = _log_range(all_m)
    ly = _log_range(all_v)
    frame = _LogFrame(70, 40, 480, 380, lx[0], lx[1], ly[0], ly[1])
    _draw_loglog(doc, frame, f"{metric} vs m (log-log)", "m", metric)

    for idx, (n, pts) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        pixels = [frame.px(m, v) for m, v in pts if v > 0]
        if len(pixels) > 1:
            doc.polyline(pixels, stroke=color)
        for x, y in pixels:
            doc.circle(x, y, 3, fill=color)
        doc.circle(566, 56 + 16 * idx, 4, fill=color)
        doc.text(574, 60 + 16 * idx, f"n={n}", size=11)

    # reference guide anchored above the observed values
    m_lo, m_hi = min(all_m), max(all_m)
    if m_lo < m_hi:
        top = max(all_v) * 2.0
        v_hi = top * (m_hi / m_lo) ** -0.5
        doc.polyline([frame.px(m_lo, top), frame.px(m_hi, v_hi)], stroke="#444444", dash="6,4")
        doc.text(*frame.px(m_lo, top * 1.2), "slope -0.5", size=10)
    return doc.write(out_path)


def plot_ari_table(rows, out_path, timestamp=True) -> list[Path]:
    """Score-table layout: rows are n, columns are m, cells are replicate
    means of ari_true_k. One SVG per regime present in the rows."""
    metric = "ari_true_k"
    _require_columns(rows, ["regime", "n", "m", metric])
    out_path = Path(out_path)
    paths = []
    regimes = sorted({row["regime"] for row in rows})
    for regime in regimes:
        sub = [row for row in rows if row["regime"] == regime]
        series = _series_by_n(sub, metric)
        n_values = sorted(series)
        m_values = sorted({m for pts in series.values() for m, _ in pts})
        cell_w, cell_h = 80, 26
        width = 120 + cell_w * len(m_values) + 20
        height = 90 + cell_h * (len(n_values) + 1) + 20
        doc = SvgDocument(width, height, timestamp=timestamp)
        doc.text(width / 2, 28, f"mean {metric} ({regime} regime)", size=14, anchor="middle")
        x0, y0 = 100, 60
        doc.text(x0 - 60, y0 + 16, "n \\ m", size=11)
        for j, m in enumerate(m_values):
            doc.text(x0 + cell_w * j + cell_w / 2, y0 + 16, str(m), size=11, anchor="middle")
        for i, n in enumerate(n_values):
            y = y0 + cell_h * (i + 1)
            doc.text(x0 - 60, y + 16, str(n), size=11)
            means = dict(series[n])
            for j, m in enumerate(m_values):
                doc.rect(x0 + cell_w * j, y, cell_w, cell_h, stroke="#999999", stroke_width=0.5)
                if m in means:
                    doc.text(
                        x0 + cell_w * j + cell_w / 2,
                        y + 17,
                        f"{means[m]:.3f}",
                        size=11,
                        anchor="middle",
                    )
        if len(regimes) == 1:
            target = out_path
        else:
            target = out_path.with_name(f"{out_path.stem}-{regime}{out_path.suffix}")
        paths.append(doc.write(target))
    return paths


def plot_scatter(rows, out_path, timestamp=True) -> Path:
    """First two embedding coordinates, colored by the type column if present."""
    _require_columns(rows, ["coord_1", "coord_2"])
    xs = [float(row["coord_1"]) for row in rows]
    ys = [float(row["coord_2"]) for row in rows]
    types = [int(row["type"]) for row in rows] if "type" in rows[0] else None

    doc = SvgDocument(560, 520, timestamp=timestamp)
    x0, y0, w, h = 60, 40, 440, 420
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x, y):
        return (
            x0 + (x - x_lo) / (x_hi - x_lo) * w,
            y0 + h - (y - y_lo) / (y_hi - y_lo) * h,
        )

    doc.rect(x0, y0, w, h)
    doc.text(x0 + w / 2, y0 - 8, "interaction embedding", size=13, anchor="middle")
    doc.text(x0 + w / 2, y0 + h + 30, "coord_1", size=11, anchor="middle")
    doc.text(x0 - 40, y0 + h / 2, "coord_2", size=11, anchor="middle", rotate=-90)
    for frac in (0.0, 0.5, 1.0):
        doc.text(x0 + frac * w, y0 + h + 14, f"{x_lo + frac * (x_hi - x_lo):.3g}", size=9, anchor="middle")
        doc.text(x0 - 6, y0 + h - frac * h + 3, f"{y_lo + frac * (y_hi - y_lo):.3g}", size=9, anchor="end")
    for idx in range(len(xs)):
        color = PALETTE[types[idx] % len(PALETTE)] if types is not None else PALETTE[0]
        cx, cy = px(xs[idx], ys[idx])
        doc.circle(cx, cy, 2.2, fill=color)
    return doc.write(out_path)


def plot_diagnostics(rows, out_path, timestamp=True) -> list[Path]:
    """One log-log convergence panel per diagnostic norm, written next to
    ``out_path`` with the metric name appended."""
    _require_columns(rows, ["n", "m"] + DIAGNOSTIC_METRICS)
    out_path = Path(out_path)
    paths = []
    for metric in DIAGNOSTIC_METRICS:
        target = out_path.with_name(f"{out_path.stem}-{metric}{out_path.suffix}")
        paths.append(plot_convergence(rows, target, metric=metric, timestamp=timestamp))
    return paths
