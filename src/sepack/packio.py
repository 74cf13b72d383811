"""Packing files and verification reports.

One packing per file, JSON with sorted keys.  Coordinates are written as
shortest round-trip decimals, so decode(encode(p)) reproduces the center
array bit for bit.  Reports are separate documents with stable field
names; the timing field is informational and excluded from any
determinism comparison.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from .contact import build_contact_graph, contains_triangle
from .core import Packing, Window, interior_indices
from .errors import InconsistentVerdictError, PackingParseError, PackingVersionError
from .separability import VIOLATION_FOUND, WINDOW_CERTIFIED, _report

FORMAT_VERSION = 1


def encode_packing(p: Packing) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "radius": p.radius,
        "label": p.label,
        "window": {
            "lower": p.window.lower.tolist(),
            "upper": p.window.upper.tolist(),
            "margin": p.window.margin,
        },
        "centers": [list(row) for row in p.centers],
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def decode_packing(data: bytes) -> Packing:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise PackingParseError(f"not utf-8: {exc}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise PackingParseError(
            f"malformed packing file at byte {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    if not isinstance(doc, dict):
        raise PackingParseError("packing file must contain a JSON object", offset=0)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise PackingVersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}"
        )
    try:
        window = Window(
            np.array(doc["window"]["lower"], dtype=float),
            np.array(doc["window"]["upper"], dtype=float),
            float(doc["window"]["margin"]),
        )
        centers = np.array(doc["centers"], dtype=float).reshape(-1, doc["dimension"])
        return Packing(centers, window, float(doc["radius"]), str(doc.get("label", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise PackingParseError(f"invalid packing document: {exc}") from exc


def save_packing(p: Packing, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_packing(p))


def load_packing(path) -> Packing:
    with open(path, "rb") as fh:
        return decode_packing(fh.read())


def _degree_histogram(degrees) -> dict:
    values, counts = np.unique(degrees, return_counts=True)
    return {str(k): v for k, v in zip(values.tolist(), counts.tolist())}


def build_verify_report(p: Packing, full_audit: bool = False) -> dict:
    """All verification facts about one packing, as a JSON-ready dict.

    The contact graph is built once and shared by the triangle test and
    the certifier.  A triangle in the contact graph forces a separability
    violation; a report that says otherwise raises
    InconsistentVerdictError.
    """
    start = time.perf_counter()
    graph = build_contact_graph(p)
    degrees = graph.degrees
    interior = np.zeros(p.n_spheres, dtype=bool)
    interior[interior_indices(p)] = True
    triangle = contains_triangle(graph)
    sep = _report(p, full_audit, WINDOW_CERTIFIED, graph=graph)

    interior_degrees = np.unique(degrees[interior]).tolist()
    regularity = {
        "status": "inconclusive"
        if not interior.any()
        else ("regular" if len(interior_degrees) == 1 else "irregular"),
        "k": interior_degrees[0] if len(interior_degrees) == 1 else None,
    }
    report = {
        "format_version": FORMAT_VERSION,
        "label": p.label,
        "dimension": p.dimension,
        "sphere_count": p.n_spheres,
        "contact_count": graph.edge_count,
        "degree_histogram": {
            "interior": _degree_histogram(degrees[interior]),
            "boundary": _degree_histogram(degrees[~interior]),
        },
        "regularity": regularity,
        "triangle": list(triangle) if triangle else None,
        "separability": {
            "status": sep.status,
            "sep": str(Fraction(sep.sep)),
            "sep_float": float(sep.sep),
            "clean_edges": sep.clean_edges,
            "total_edges": sep.total_edges,
            "violations": [
                {"edge": list(edge), "sphere": sphere} for edge, sphere in sep.violations
            ],
        },
        "timing_seconds": round(time.perf_counter() - start, 6),
    }
    if triangle and sep.status != VIOLATION_FOUND:
        raise InconsistentVerdictError(
            f"triangle {list(triangle)} in the contact graph but separability "
            f"status {sep.status}"
        )
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
