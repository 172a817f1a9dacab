"""Standalone SVG plots for result records; no plotting library, no
timestamps, so emitted bytes are a pure function of the data.  A kind,
kind(ctx, pool, outdir) -> (outputs, series, plot), owns its plot: a
function of no arguments returning render_series_svg's arguments after the
digest, or None."""

from __future__ import annotations

import math
import sys

import numpy as np

from .runner import _atomic_write

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 55


def _ticks_linear(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _ticks_decades(lo, hi):
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def render_series_svg(digest: str, xs, ys, xlabel: str, ylabel: str, title: str,
                      xlog: bool = False, ylog: bool = False) -> str:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if ylog:
        keep &= ys > 0
    if xlog:
        keep &= xs > 0
    xs, ys = xs[keep], ys[keep]

    def fx(x):
        return math.log10(x) if xlog else x

    def fy(y):
        return math.log10(y) if ylog else y

    if xs.size:
        x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
        y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.1, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo * 10.0 if ylog else y_lo + 1.0

    tx0, tx1 = fx(x_lo), fx(x_hi)
    ty0, ty1 = fy(y_lo), fy(y_hi)
    span_x = tx1 - tx0 or 1.0
    span_y = ty1 - ty0 or 1.0

    def px(x):
        return _ML + (fx(x) - tx0) / span_x * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (fy(y) - ty0) / span_y * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- config_digest: {digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    x_ticks = _ticks_decades(x_lo, x_hi) if xlog else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_decades(y_lo, y_hi) if ylog else _ticks_linear(y_lo, y_hi)
    for t in x_ticks:
        if not x_lo <= t <= x_hi * (1 + 1e-12):
            continue
        x = px(t)
        label = f"{t:g}"
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    for t in y_ticks:
        if not (y_lo <= t <= y_hi * (1 + 1e-12) or math.isclose(t, y_lo) or math.isclose(t, y_hi)):
            continue
        y = py(t)
        label = f"{t:.3g}" if not ylog else f"1e{int(round(math.log10(t)))}"
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    if xs.size:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="#1f5fa8"/>'
            )
    else:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="{_H / 2:.1f}" text-anchor="middle" '
            'font-size="12" font-family="sans-serif">no positive data to plot</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(record, path: str) -> bool:
    """Write record.plot() as an SVG to path; for a record without a plot,
    write nothing, print a notice on stderr and return False."""
    if record.plot is None:
        print(f"emit_plot: kind {record.kind!r} has no 1D series; skipping", file=sys.stderr)
        return False
    _atomic_write(path, render_series_svg(record.config_digest, *record.plot()))
    return True
