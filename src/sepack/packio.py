"""Packing files and verification reports.

One packing per file, JSON with sorted keys.  Coordinates are written as
shortest round-trip decimals, so decode(encode(p)) reproduces the center
array bit for bit.  Reports are separate documents with stable field
names; the timing field is informational and excluded from any
determinism comparison.

Both documents are the text of ``json.dumps(doc, indent=1,
sort_keys=True)`` plus a newline, but neither runs its bulk list (a
packing's ``centers``, a report's ``separability.violations``) through
the encoder, whose indented mode costs one Python call per token.  The
small rest of the document, with a placeholder in the bulk list's place,
goes through ``json.dumps`` and is split at the placeholder; the bulk
rows are written in chunks between the halves, each chunk from fixed
templates at the indentation ``json.dumps`` gives that depth.  The bytes
match ``json.dumps`` because the rows hold only what the templates spell
the same way: a center row is Python floats, written with ``repr`` (the
encoder's ``float.__repr__``; coordinates are finite), and a witness row
(i, j, sphere) of the certifier's (k, 3) integer array becomes the object
``{"edge": [i, j], "sphere": sphere}``, a whole chunk spelled by numpy
as one block of the template's bytes and table-looked-up digits, with no
Python object per value (see ``_witness_rows``).  An empty bulk list is
written as ``[]``, as the encoder does.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .catalog import CatalogEntry
from .contact import build_contact_graph, contains_triangle, is_k_regular
from .core import Packing, Window
from .errors import InconsistentVerdictError, PackingParseError, PackingVersionError
from .separability import VIOLATION_FOUND, WINDOW_CERTIFIED, certify_total_separability

FORMAT_VERSION = 1

# stands in for the bulk list in the json.dumps text of the rest of a document
_BULK = "<bulk rows>"
# bulk rows joined per write
_CHUNK_ROWS = 4096
# a witness row's literal text around its three values "i", "j" and
# "sphere", up to the ",\n" that joins it to the next row, as uint32
# words NUL-padded at the end
_WITNESS_WORDS = [
    np.frombuffer(text + bytes(-len(text) % 4), dtype=np.uint32)
    for text in (
        b'   {\n    "edge": [\n     ',
        b",\n     ",
        b'\n    ],\n    "sphere": ',
        b"\n   },\n",
    )
]


def _json_pieces(doc: dict, path: tuple, chunk_text):
    """Yield ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"`` in pieces.

    ``path`` is the key path of the bulk list in ``doc``; ``chunk_text``
    encodes a slice of its rows, joined by ``",\\n"``, at indentation
    ``len(path) + 1``.  The placeholder is searched for together with its
    key, which occurs once in the document; a string value cannot spell
    that pair, since every quote inside an encoded string is escaped.
    """
    skeleton = dict(doc)
    parent = skeleton
    for key in path[:-1]:
        parent[key] = dict(parent[key])
        parent = parent[key]
    rows, parent[path[-1]] = parent[path[-1]], _BULK
    key = json.dumps(path[-1]) + ": "
    text = json.dumps(skeleton, indent=1, sort_keys=True)
    head, _, tail = text.partition(key + json.dumps(_BULK))
    yield head + key
    if len(rows) == 0:
        yield "[]"
    else:
        separator = "[\n"
        for start in range(0, len(rows), _CHUNK_ROWS):
            yield separator + chunk_text(rows[start : start + _CHUNK_ROWS])
            separator = ",\n"
        yield "\n" + " " * len(path) + "]"
    yield tail + "\n"


def _center_rows(rows: list) -> str:
    return ",\n".join("  [\n   " + ",\n   ".join(map(repr, row)) + "\n  ]" for row in rows)


@lru_cache(maxsize=1)
def _digit_groups() -> np.ndarray:
    """Four ASCII bytes per uint32: the groups 0..9999 zero-padded, then
    the same groups with NULs for their leading zeros ("0" stays), then
    one group of NULs."""
    groups = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    padded = (groups // place % 10 + ord("0")).astype(np.uint8)
    leading = padded * ((groups >= place) | (place == 1))
    nul = np.zeros((1, 4), dtype=np.uint8)
    groups = np.concatenate([padded, leading, nul]).view(np.uint32).ravel()
    groups.setflags(write=False)
    return groups


def _witness_rows(rows: np.ndarray) -> str:
    """The witness objects of (i, j, sphere) index rows, joined by ``",\\n"``.

    The chunk is built as one block of 4-byte words: per row the
    template's literal words around three values of ``limbs`` digit groups
    each, enough for the chunk's largest value.  A value's base-10^4 limb
    is looked up in ``_digit_groups`` by its prefix, the value without the
    limbs below: a prefix of 10^4 or more takes the zero-padded group, a
    smaller one the group without leading zeros, and a prefix of 0 the NUL
    group, except in the last limb, whose 0 is spelled "0".  Deleting the
    block's NULs leaves the decimal spellings ``json.dumps`` gives.
    """
    values = rows.reshape(-1)
    limbs = (len(str(values.max())) + 3) // 4
    prefix = values[:, None] // 10_000 ** np.arange(limbs - 1, -1, -1)
    index = prefix % 10_000 + 10_000 * (prefix < 10_000)
    index[:, :-1] += 10_000 * (prefix[:, :-1] == 0)
    digits = _digit_groups()[index].reshape(len(rows), 3, limbs)
    text = [np.broadcast_to(words, (len(rows), len(words))) for words in _WITNESS_WORDS]
    block = np.concatenate(
        [text[0], digits[:, 0], text[1], digits[:, 1], text[2], digits[:, 2], text[3]], axis=1
    )
    return block.tobytes().translate(None, b"\0")[:-2].decode("ascii")


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
        # Python floats: numpy 2 reprs a np.float64 as "np.float64(...)"
        "centers": p.centers.tolist(),
    }
    return "".join(_json_pieces(doc, ("centers",), _center_rows)).encode("utf-8")


def _holds_bool(value) -> bool:
    """Whether a JSON value is a bool or a list holding one at any depth."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, bool):
            return True
        if isinstance(value, list):
            stack.extend(value)
    return False


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
    # JSON true equals 1 in Python, so a bool must be turned away by type
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise PackingVersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}"
        )
    try:
        # a bool reads as 0 or 1 below; without true or false in the bytes
        # there is none, so the common file skips this pass over every value
        if b"true" in data or b"false" in data:
            for name, value in (
                ("dimension", doc["dimension"]),
                ("radius", doc["radius"]),
                ("margin", doc["window"]["margin"]),
                ("lower", doc["window"]["lower"]),
                ("upper", doc["window"]["upper"]),
                ("centers", doc["centers"]),
            ):
                if _holds_bool(value):
                    raise PackingParseError(f"{name} must hold numbers, not JSON booleans")
        window = Window(
            np.array(doc["window"]["lower"], dtype=float),
            np.array(doc["window"]["upper"], dtype=float),
            float(doc["window"]["margin"]),
        )
        centers = np.array(doc["centers"], dtype=float)
        if centers.shape[1:] != (doc["dimension"],) and centers.shape != (0,):
            raise PackingParseError(f"centers must be a list of {doc['dimension']}-long rows")
        centers = centers.reshape(-1, doc["dimension"])
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
    """All verification facts about one packing, as the report document.

    The dict is ready for ``json.dumps`` except ``separability.violations``,
    which stays the certifier's read-only (k, 3) int64 array of (i, j,
    sphere) witness rows; ``write_report`` spells each row as the object
    ``{"edge": [i, j], "sphere": sphere}``.

    The contact graph is built once and shared by the regularity check,
    the triangle test and the certifier.  A triangle in the contact graph
    forces a separability violation; a report that says otherwise raises
    InconsistentVerdictError.
    """
    start = time.perf_counter()
    graph = build_contact_graph(p)
    degrees = graph.degrees
    interior = p.window.interior_mask(p.centers)
    regular = is_k_regular(graph, p, indices=np.flatnonzero(interior))
    triangle = contains_triangle(graph)
    sep = certify_total_separability(p, full_audit, graph=graph)

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
        "regularity": {"status": regular.status, "k": regular.k if regular.is_regular else None},
        "triangle": list(triangle) if triangle else None,
        "separability": {
            "status": sep.status,
            "sep": str(Fraction(sep.sep)),
            "sep_float": float(sep.sep),
            "clean_edges": sep.clean_edges,
            "total_edges": sep.total_edges,
            "violations": sep.violations,
        },
        "timing_seconds": round(time.perf_counter() - start, 6),
    }
    if triangle and sep.status != VIOLATION_FOUND:
        raise InconsistentVerdictError(
            f"triangle {list(triangle)} in the contact graph but separability "
            f"status {sep.status}"
        )
    return report


def check_entry_invariants(p: Packing, entry: CatalogEntry) -> list:
    """The catalog invariants that a generated window of ``entry`` breaks,
    read from its verify report: interior regularity with the catalog's k,
    no triangle, and a window-certified separability verdict.  An empty
    list means all hold.

    Contact distance 2 needs no check of its own: every contact edge has
    length within TOL of 2 and an overlap raises InvalidPackingError, so a
    window that is regular with k >= 1 has it.
    """
    report = build_verify_report(p)
    regularity, sep = report["regularity"], report["separability"]
    broken = []
    if regularity != {"status": "regular", "k": entry.regularity}:
        broken.append(
            f"regularity {regularity['status']} (k={regularity['k']}), "
            f"expected regular (k={entry.regularity})"
        )
    if report["triangle"] is not None:
        broken.append(f"triangle {report['triangle']}")
    if sep["status"] != WINDOW_CERTIFIED:
        broken.append(f"separability {sep['status']} (sep={sep['sep']})")
    return broken


def write_report(report: dict, path) -> None:
    """Stream the report to ``path`` without building its whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(report, ("separability", "violations"), _witness_rows))
