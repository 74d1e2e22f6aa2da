"""Static SVG convergence plots.

Self-contained SVG with no scripting and no rendering dependencies:
one labeled mean line per series plus a translucent band of one
standard deviation, on a log-scaled error axis. A long curve is drawn
as its per-pixel-column envelope, so the file's size is bounded by the
plot's width, not the horizon. A curve's pixel coordinates are written
at two decimals, all of them in one numpy pass that gives ``"%.2f"``'s
digits. Output bytes depend only on the input data, so plots are
reproducible artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import AggregateTrace

__all__ = ["emit_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 78.0, 24.0, 24.0, 56.0
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM
_X_LABEL, _Y_LABEL = "episode", "distance to equilibrium"
# the lowest decade whose power of ten is a positive double: 10.0**-324 is 0.0
_MIN_DECADE = -323


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first: ``xml.sax.saxutils.escape``'s bytes."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _envelope(column: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ascending indices of the points of one curve that the plot draws.

    ``column`` is each point's pixel column, nondecreasing along the curve,
    and ``y`` is finite. A column of at most 4 points keeps them all; a
    fuller one keeps its first, lowest, highest and last point, the lowest
    and highest being where a stable sort by y puts them: the first of its
    lowest, the last of its highest. Per-column extremes are by ``reduceat``, O(T).
    """
    starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    counts = np.diff(np.r_[starts, column.size])
    ends = starts + counts - 1
    keep = np.repeat(counts <= 4, counts)
    at = np.arange(column.size)
    low = np.where(y == np.repeat(np.minimum.reduceat(y, starts), counts), at, column.size)
    high = np.where(y == np.repeat(np.maximum.reduceat(y, starts), counts), at, -1)
    keep[np.r_[starts, ends, np.minimum.reduceat(low, starts), np.maximum.reduceat(high, starts)]] = True
    return np.flatnonzero(keep)


def _two_decimals(px: np.ndarray, py: np.ndarray) -> list[str]:
    """``"%.2f,%.2f" % (px[i], py[i])`` for every i, formatted in one numpy pass.

    Every coordinate must lie in [10, 999.995), where its text is two or
    three digits, a point and two; a plot's lie in [_TOP, _WIDTH - _RIGHT].
    Such a double is M * 2**(E - 1075), with M its 52 stored mantissa bits
    plus 2**52 and E its exponent field, so its exact value in hundredths
    is 100 M over 2**(1075 - E), a numerator below 2**60. The shift rounds
    it half to even on the exact binary value, as ``"%.2f"`` does. The
    digits are assembled as bytes, the hundreds digit kept only from
    100.00 up, and decoded once. The bits are read through an int64 view
    and the digits taken by float64 floors, loops a run has already
    loaded; a first call of ``np.frexp`` or of integer division would
    fault in more of numpy's library, about 130 KB of peak RSS.
    """
    bits = np.stack([px, py], axis=1).view(np.int64)
    scaled = ((bits & (2**52 - 1)) + 2**52) * 100
    shift = 1075 - (bits >> 52)
    half = 1 << (shift - 1)
    # adding half - 1 carries past the shift above half; the quotient's
    # last bit, added too, carries at exactly half when it is odd
    hundredths = ((scaled + (half - 1) + ((scaled >> shift) & 1)) >> shift).astype(np.float64)
    # per point "ddd.dd," for x and "ddd.dd " for y, the last digit first;
    # floor(hundredths / 10**k) is exact for integers below 10**5
    text = np.empty(hundredths.shape + (7,), dtype=np.uint8)
    rest = hundredths
    for column, power in ((5, 10.0), (4, 100.0), (2, 1000.0), (1, 10000.0)):
        high = np.floor(hundredths / power)
        text[..., column] = rest - 10.0 * high + ord("0")
        rest = high
    text[..., 0] = rest + ord("0")
    text[..., 3] = ord(".")
    text[..., 6] = [ord(","), ord(" ")]
    keep = np.ones(text.shape, dtype=bool)
    keep[..., 0] = hundredths >= 10000
    return text[keep].tobytes().decode("ascii").split()


def _pixel_points(xs: np.ndarray, ys: np.ndarray, x_range, decades) -> list[str]:
    """``"x,y"``, in pixels at two decimals, of each point (xs[i], ys[i]) of a plot.

    The plot spans episodes ``x_range`` and the powers of ten of
    ``decades``, both (low, high) pairs, and each point lies in it:
    ``x_range[0] <= xs <= x_range[1]``, and ``ys`` finite with
    ``math.log10(y) <= decades[1]``. Each point's text is
    ``f"{sx(x):.2f},{sy(y):.2f}"`` for ``emit_plot``'s scales ``sx`` and
    ``sy``, taken over arrays: the same IEEE operations in the same
    order, and ``math.log10``, whose digits ``np.log10`` need not match.
    """
    (x_min, x_max), (y_lo_dec, y_hi_dec) = x_range, decades
    px = _LEFT + (xs - x_min) / (x_max - x_min or 1.0) * _PLOT_W
    logs = np.fromiter(map(math.log10, np.maximum(ys, 10.0**y_lo_dec).tolist()), np.float64, ys.size)
    py = _TOP + (y_hi_dec - logs) / (y_hi_dec - y_lo_dec) * _PLOT_H
    return _two_decimals(px, py)


def emit_plot(series: list[tuple[str, AggregateTrace]], path) -> None:
    """Write an SVG overlaying mean curves with +/- one std bands.

    ``series`` pairs a legend label with an aggregate; one with no episodes
    or a non-finite mean + std is a ``ValueError``, raised before anything
    is written. The y axis is log-scaled, so nonpositive values are clamped
    to the axis floor: the power of ten at or below the lowest positive
    mean, or 1 when no mean is positive, as in a run that never leaves the
    equilibrium. The floor is at least 1e-323, so a mean of 5e-324 is
    drawn on it.

    Each mean line and each band edge is cut to its per-pixel-column
    envelope. A point at episode x falls in column
    ``floor((x - x_min) / (x_max - x_min) * _PLOT_W)`` of the ``_PLOT_W``-px
    plot area. A column of at most 4 points keeps them all; a fuller one
    keeps its first, lowest, highest and last point, in episode order. So
    a curve draws at most about ``4 * _PLOT_W`` points, whatever its length,
    and a plot with no column over 4 points draws every point. The kept
    points go to pixels and text in bulk, by ``_pixel_points``, which
    writes each as the scales ``sx`` and ``sy`` below would.
    """
    if not series:
        raise ValueError("nothing to plot")
    for label, agg in series:
        bad = np.flatnonzero(~np.isfinite(agg.mean + agg.std))
        if bad.size or not agg.mean.size:
            what = f"mean + std is not finite at episode {bad[0] + 1}" if bad.size else "no episodes"
            raise ValueError(f"series {label!r}: {what}")

    # the first episode is 1 and the last a series' length
    x_min, x_max = 1.0, float(max(agg.mean.size for _, agg in series))
    positive = np.concatenate([agg.mean[agg.mean > 0] for _, agg in series])
    hi = max(float((agg.mean + agg.std).max()) for _, agg in series)
    y_lo_dec = max(math.floor(math.log10(float(positive.min()))), _MIN_DECADE) if positive.size else 0
    y_hi_dec = math.ceil(math.log10(hi)) if hi > 0 else y_lo_dec + 1
    if y_hi_dec <= y_lo_dec:
        y_hi_dec = y_lo_dec + 1
    y_floor = 10.0**y_lo_dec

    def sx(x: float) -> float:
        return _LEFT + (x - x_min) / (x_max - x_min or 1.0) * _PLOT_W

    def sy(y: float) -> float:
        yv = math.log10(max(y, y_floor))
        return _TOP + (y_hi_dec - yv) / (y_hi_dec - y_lo_dec) * _PLOT_H

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
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{_PLOT_W:.2f}" '
        f'height="{_PLOT_H:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_LEFT + _PLOT_W / 2:.2f}" y="{_HEIGHT - 12:.2f}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_escape(_X_LABEL)}</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + _PLOT_H / 2:.2f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_TOP + _PLOT_H / 2:.2f})">'
        f"{_escape(_Y_LABEL)}</text>"
    )

    def points(xs: np.ndarray, ys: np.ndarray) -> list[str]:
        column = np.floor((xs - x_min) / (x_max - x_min or 1.0) * _PLOT_W)
        kept = _envelope(column, ys)
        return _pixel_points(xs[kept], ys[kept], (x_min, x_max), (y_lo_dec, y_hi_dec))

    for idx, (label, agg) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xs = np.arange(1.0, agg.mean.size + 1)
        upper = points(xs, agg.mean + agg.std)
        lower = points(xs, np.maximum(agg.mean - agg.std, y_floor))
        band = " ".join(upper + lower[::-1])
        out.append(
            f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>'
        )
        line = " ".join(points(xs, agg.mean))
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
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
