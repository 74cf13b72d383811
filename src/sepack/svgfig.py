"""Deterministic SVG export of 2-dimensional packings.

Circles at the centers, optionally the contact-graph edges and the
tangent line segments at the contacts.  Output bytes depend only on the
packing and the options (fixed decimal formatting, canonical element
order), so renders diff cleanly.
"""

from __future__ import annotations

import numpy as np

from .contact import build_contact_graph
from .core import Packing
from .errors import UnsupportedDimensionError

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_TANGENT_HALF_LENGTH = 2.0
# pixels per packing unit
_SCALE = 24.0


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "-0.000000" if out == "-0.000000" else out


def render_svg(p: Packing, show_edges: bool = False, show_tangents: bool = False) -> str:
    """Render a 2-D packing; raises for other dimensions (no projections)."""
    if p.dimension != 2:
        raise UnsupportedDimensionError(
            f"svg export is for d=2 only, got d={p.dimension}"
        )
    lo, hi = p.window.lower, p.window.upper
    pad = p.radius + 0.5
    width = (hi[0] - lo[0] + 2 * pad) * _SCALE
    height = (hi[1] - lo[1] + 2 * pad) * _SCALE

    def to_px(pt):
        # y grows upward in the packing, downward in svg
        return (
            (pt[0] - lo[0] + pad) * _SCALE,
            (hi[1] + pad - pt[1]) * _SCALE,
        )

    lines = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
        '<rect width="100%" height="100%" fill="white"/>\n',
    ]

    graph = None
    if (show_edges or show_tangents) and p.n_spheres >= 2:
        graph = build_contact_graph(p)

    if graph is not None and show_edges:
        lines.append('<g stroke="#1f77b4" stroke-width="1.5" fill="none">\n')
        for i, j in graph.edges:
            ax, ay = to_px(p.centers[i])
            bx, by = to_px(p.centers[j])
            lines.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(by)}"/>\n'
            )
        lines.append("</g>\n")

    lines.append('<g stroke="#333333" stroke-width="1.0" fill="none">\n')
    for center in p.centers:
        cx, cy = to_px(center)
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(p.radius * _SCALE)}"/>\n'
        )
    lines.append("</g>\n")

    if graph is not None and show_tangents:
        lines.append(
            '<g stroke="#d62728" stroke-width="0.8" stroke-dasharray="4 3" fill="none">\n'
        )
        for i, j in graph.edges:
            mid = (p.centers[i] + p.centers[j]) / 2.0
            direction = p.centers[j] - p.centers[i]
            tangent = np.array([-direction[1], direction[0]])
            tangent = tangent / np.linalg.norm(tangent)
            a = mid + _TANGENT_HALF_LENGTH * tangent
            b = mid - _TANGENT_HALF_LENGTH * tangent
            ax, ay = to_px(a)
            bx, by = to_px(b)
            lines.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(by)}"/>\n'
            )
        lines.append("</g>\n")

    lines.append("</svg>\n")
    return "".join(lines)
