"""Static SVG convergence plots.

Self-contained SVG with no scripting and no rendering dependencies:
one labeled mean line per series plus a translucent band of one
standard deviation, on a log-scaled error axis. Output bytes depend
only on the input data, so plots are reproducible artifacts.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .analysis import AggregateTrace

__all__ = ["emit_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 78.0, 24.0, 24.0, 56.0
_X_LABEL, _Y_LABEL = "episode", "distance to equilibrium"


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def emit_plot(series: list[tuple[str, AggregateTrace]], path) -> None:
    """Write an SVG overlaying mean curves with +/- one std bands.

    ``series`` pairs a legend label with an aggregate; the y axis is
    log-scaled, so nonpositive band edges are clamped to the axis floor.
    """
    if not series:
        raise ValueError("nothing to plot")

    x_max = max(float(agg.episodes.max()) for _, agg in series)
    x_min = min(float(agg.episodes.min()) for _, agg in series)
    positive = np.concatenate([agg.mean[agg.mean > 0] for _, agg in series])
    if positive.size == 0:
        raise ValueError("all mean values are nonpositive; nothing to plot on a log axis")
    hi = max(float((agg.mean + agg.std).max()) for _, agg in series)
    y_lo_dec = math.floor(math.log10(float(positive.min())))
    y_hi_dec = math.ceil(math.log10(hi)) if hi > 0 else y_lo_dec + 1
    if y_hi_dec <= y_lo_dec:
        y_hi_dec = y_lo_dec + 1
    y_floor = 10.0**y_lo_dec

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(x: float) -> float:
        return _LEFT + (x - x_min) / (x_max - x_min or 1.0) * plot_w

    def sy(y: float) -> float:
        yv = math.log10(max(y, y_floor))
        return _TOP + (y_hi_dec - yv) / (y_hi_dec - y_lo_dec) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]

    # gridlines and y ticks at decades
    for dec in range(y_lo_dec, y_hi_dec + 1):
        y = sy(10.0**dec)
        out.append(
            f'<line x1="{_LEFT:.2f}" y1="{y:.2f}" x2="{_WIDTH - _RIGHT:.2f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">1e{dec}</text>'
        )

    # x ticks
    step = _nice_step(x_max - x_min)
    tick = math.ceil(x_min / step) * step
    while tick <= x_max + 1e-9:
        x = sx(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _BOTTOM:.2f}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _BOTTOM + 5:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        label = f"{tick:.0f}" if tick == int(tick) else f"{tick:g}"
        out.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM + 20:.2f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )
        tick += step

    # axes
    out.append(
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 12:.2f}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{escape(_X_LABEL)}</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + plot_h / 2:.2f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_TOP + plot_h / 2:.2f})">'
        f"{escape(_Y_LABEL)}</text>"
    )

    for idx, (label, agg) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xs = agg.episodes.astype(float)
        upper = agg.mean + agg.std
        lower = np.maximum(agg.mean - agg.std, y_floor)
        band = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, upper)
        ) + " " + " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs[::-1], lower[::-1])
        )
        out.append(
            f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>'
        )
        line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, agg.mean))
        out.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        # legend entry
        ly = _TOP + 16 + 20 * idx
        lx = _WIDTH - _RIGHT - 170
        out.append(
            f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 26:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="{lx + 32:.2f}" y="{ly + 4:.2f}" font-size="13" '
            f'font-family="sans-serif">{escape(label)}</text>'
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
