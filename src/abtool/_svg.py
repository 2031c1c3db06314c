"""Minimal self-contained SVG line charts (no plotting dependency)."""
from __future__ import annotations

import numpy as np

_PANEL_W = 640
_PANEL_H = 220
_MARGIN = 52
_COLOR = "#1f77b4"


def _fmt(v):
    return f"{v:.6g}"


def _panel(x, y, label, title, y_offset):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y, hi_y = float(y.min()), float(y.max())
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    pad = 0.05 * (hi_y - lo_y)
    lo_y -= pad
    hi_y += pad
    w = _PANEL_W - 2 * _MARGIN
    h = _PANEL_H - 2 * _MARGIN

    def sx(v):
        return _MARGIN + (v - lo_x) / (hi_x - lo_x) * w

    def sy(v):
        return y_offset + _PANEL_H - _MARGIN - (v - lo_y) / (hi_y - lo_y) * h

    pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
    return "\n".join([
        f'<rect x="{_MARGIN}" y="{y_offset + _MARGIN}" width="{w}" height="{h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_PANEL_W / 2}" y="{y_offset + _MARGIN - 8}" '
        'text-anchor="middle" font-size="13" font-family="monospace">'
        f'{title}</text>',
        f'<text x="{_MARGIN - 6}" y="{sy(lo_y + pad) + 4}" text-anchor="end" '
        f'font-size="10" font-family="monospace">{_fmt(lo_y + pad)}</text>',
        f'<text x="{_MARGIN - 6}" y="{sy(hi_y - pad) + 4}" text-anchor="end" '
        f'font-size="10" font-family="monospace">{_fmt(hi_y - pad)}</text>',
        f'<text x="{_MARGIN}" y="{y_offset + _PANEL_H - _MARGIN + 16}" '
        f'text-anchor="middle" font-size="10" font-family="monospace">{_fmt(lo_x)}</text>',
        f'<text x="{_MARGIN + w}" y="{y_offset + _PANEL_H - _MARGIN + 16}" '
        f'text-anchor="middle" font-size="10" font-family="monospace">{_fmt(hi_x)}</text>',
        f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" stroke-width="1.4"/>',
        f'<text x="{_MARGIN + w - 6}" y="{y_offset + _MARGIN + 14}" text-anchor="end" '
        f'font-size="11" font-family="monospace" fill="{_COLOR}">{label}</text>',
    ])


def line_chart(path, x, panels):
    """Write an SVG with one stacked panel per (y, label, title) entry: one
    line of y against x under the title."""
    height = _PANEL_H * len(panels)
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
            f'height="{height}" viewBox="0 0 {_PANEL_W} {height}">',
            f'<rect width="{_PANEL_W}" height="{height}" fill="white"/>']
    for i, (y, label, title) in enumerate(panels):
        body.append(_panel(x, y, label, title, i * _PANEL_H))
    body.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(body))
