"""Minimal SVG line plots by direct markup emission.

Plots are diagnostics; the CSV files next to them are the data contract.
Writing the markup directly keeps the package free of any plotting
dependency and makes the bytes a pure function of the inputs, which the
manifest replay check relies on.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8e5ba6", "#b8860b", "#555555")

_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 40.0
_MARGIN_B = 48.0
# the canvas size in pixels, and the number of labelled ticks on each axis
_WIDTH = 720
_HEIGHT = 480
_TICKS = 6


def _ticks(lo: float, hi: float) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (_TICKS - 1) for k in range(_TICKS)]


def svg_line_plot(
    path: str,
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a line plot of (label, xs, ys) series to an SVG file."""
    if not series:
        raise ValueError("need at least one series")
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    xlo, xhi = float(all_x.min()), float(all_x.max())
    ylo, yhi = float(all_y.min()), float(all_y.max())
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * plot_h

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#000000">{title}</text>'
        )
    # frame
    parts.append(
        f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#000000">{tx:.4g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5:.2f}" y1="{y:.2f}" x2="{_MARGIN_L:.2f}" '
            f'y2="{y:.2f}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#000000">{ty:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#000000">{xlabel}</text>'
        )
    if ylabel:
        yc = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{yc:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" fill="#000000" transform="rotate(-90 16 {yc:.1f})">{ylabel}</text>'
        )
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 14 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="11" fill="#000000">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
