"""Deterministic SVG export of 2-dimensional packings.

Circles at the centers, optionally the contact-graph edges and the
tangent line segments at the contacts.  Every element is drawn by one
rule: its points go through one pixel transform, applied to a whole
array of them, and one group writer spells each element's row of pixel
coordinates with a fixed template.  Output bytes depend only on the
packing and the options (fixed decimal formatting, canonical element
order), so renders diff cleanly.
"""

from __future__ import annotations

import numpy as np

from .contact import build_contact_graph
from .core import Packing
from .errors import UnsupportedDimensionError, instance

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_TANGENT_HALF_LENGTH = 2.0
# pixels per packing unit
_SCALE = 24.0
_LINE = '<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>\n'


def _group(style: str, template: str, rows: np.ndarray) -> list:
    """A <g> of the given style holding one template line per row."""
    return [f"<g {style}>\n", *(template % tuple(row) for row in rows.tolist()), "</g>\n"]


def render_svg(p: Packing, show_edges: bool = False, show_tangents: bool = False) -> str:
    """Render a 2-D packing; raises for other dimensions (no projections)."""
    instance(p, Packing, "packing")
    if p.dimension != 2:
        raise UnsupportedDimensionError(f"svg export is for d=2 only, got d={p.dimension}")
    lo, hi = p.window.lower, p.window.upper
    pad = 1.5
    width, height = (hi - lo + 2 * pad) * _SCALE

    def to_px(points):
        # (..., 2) points; y grows upward in the packing, downward in svg
        x = (points[..., 0] - lo[0] + pad) * _SCALE
        y = (hi[1] + pad - points[..., 1]) * _SCALE
        return np.stack([x, y], axis=-1)

    lines = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.6f}" '
        f'height="{height:.6f}" viewBox="0 0 {width:.6f} {height:.6f}">\n',
        '<rect width="100%" height="100%" fill="white"/>\n',
    ]
    ends = None  # (m, 2, 2): the two centers of each contact
    if (show_edges or show_tangents) and p.n_spheres >= 2:
        ends = p.centers[build_contact_graph(p).edges]
    if ends is not None and show_edges:
        lines += _group('stroke="#1f77b4" stroke-width="1.5" fill="none"', _LINE,
                        to_px(ends).reshape(-1, 4))
    lines += _group('stroke="#333333" stroke-width="1.0" fill="none"',
                    f'<circle cx="%.6f" cy="%.6f" r="{_SCALE:.6f}"/>\n', to_px(p.centers))
    if ends is not None and show_tangents:
        mid = (ends[:, 0] + ends[:, 1]) / 2.0
        dx, dy = (ends[:, 1] - ends[:, 0]).T
        tangent = np.stack([-dy, dx], axis=1)
        half = _TANGENT_HALF_LENGTH * (tangent / np.linalg.norm(tangent, axis=1, keepdims=True))
        lines += _group('stroke="#d62728" stroke-width="0.8" stroke-dasharray="4 3" fill="none"',
                        _LINE, to_px(np.stack([mid + half, mid - half], axis=1)).reshape(-1, 4))
    lines.append("</svg>\n")
    return "".join(lines)
