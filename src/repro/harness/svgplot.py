"""Dependency-free SVG line charts for harness results.

The evaluation's figures are line charts (speedup vs processors, latency
vs message size, ...).  This module renders a :class:`SeriesResult` to a
standalone SVG string so the paper's figures can be *regenerated as
images* without matplotlib — nothing but the standard library.

Usage::

    from repro.harness import run_experiment
    from repro.harness.svgplot import render_series_svg

    svg = render_series_svg(run_experiment("fig2"))
    open("fig2.svg", "w").write(svg)

or from the command line::

    python -m repro.harness fig2 --svg out/
"""

from __future__ import annotations

import html
import math
from typing import List, Optional, Sequence, Tuple

from .results import SeriesResult

#: Color cycle (colorblind-safe-ish, dark on white).
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

MARKERS = ["circle", "square", "diamond", "triangle"]


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, n - 1)
    mag = 10 ** __import__("math").floor(__import__("math").log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    first = step * __import__("math").floor(lo / step)
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        if t >= lo - 1e-9 * span:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}"


def _marker(kind: str, x: float, y: float, color: str) -> str:
    if kind == "square":
        return (f'<rect x="{x-3:.1f}" y="{y-3:.1f}" width="6" height="6" '
                f'fill="{color}"/>')
    if kind == "diamond":
        return (f'<polygon points="{x:.1f},{y-4:.1f} {x+4:.1f},{y:.1f} '
                f'{x:.1f},{y+4:.1f} {x-4:.1f},{y:.1f}" fill="{color}"/>')
    if kind == "triangle":
        return (f'<polygon points="{x:.1f},{y-4:.1f} {x+4:.1f},{y+3:.1f} '
                f'{x-4:.1f},{y+3:.1f}" fill="{color}"/>')
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.2" fill="{color}"/>'


def render_series_svg(
    result: SeriesResult,
    width: int = 640,
    height: int = 420,
    series: Optional[Sequence[str]] = None,
    y_label: str = "",
    title: Optional[str] = None,
) -> str:
    """Render selected series of ``result`` as an SVG line chart."""
    result.validate()
    names = list(series) if series else list(result.series)
    for n in names:
        if n not in result.series:
            raise KeyError(f"series {n!r} not in result {result.name!r}")
    if not names or not result.xs:
        raise ValueError("nothing to plot")

    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = result.xs
    # NaN marks a failed point (e.g. a fault-sweep run that died): a gap.
    ys_all = [v for n in names for v in result.series[n] if not math.isnan(v)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all, default=0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{html.escape(title or result.name)}</text>'
    )

    # axes + grid
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width-margin_r}" '
            f'y2="{y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{margin_l-6}" y="{y+4:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t}" x2="{x:.1f}" '
            f'y2="{height-margin_b}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height-margin_b+16}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{width/2:.0f}" y="{height-10}" text-anchor="middle">'
        f'{html.escape(result.x_label)}</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{height/2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {height/2:.0f})">'
            f'{html.escape(y_label)}</text>'
        )

    # series
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        marker = MARKERS[i % len(MARKERS)]
        pts = [(sx(x), sy(y)) for x, y in zip(xs, result.series[name])
               if not math.isnan(y)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in pts:
            parts.append(_marker(marker, x, y, color))
        # legend entry
        ly = margin_t + 8 + i * 16
        lx = margin_l + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx+18}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(_marker(marker, lx + 9, ly, color))
        parts.append(
            f'<text x="{lx+24}" y="{ly+4}">{html.escape(name)}</text>'
        )

    parts.append("</svg>")
    return "".join(parts)
