"""Packing files and verification reports.

One packing per file, JSON with sorted keys.  The spheres have radius 1:
a file states ``"radius": 1.0``, and a file with any other radius is
rejected.  Coordinates are written as shortest round-trip decimals, so
decode(encode(p)) reproduces the center array bit for bit.  Reports are
separate documents with stable field names; the timing field is
informational and excluded from any determinism comparison.

Both documents are the text of ``json.dumps(doc, indent=1,
sort_keys=True)`` plus a newline, and ``json.dumps`` is the only code here
that decides that layout.  Neither document runs its bulk list (a
packing's ``centers``, a report's ``separability.violations``) through
the encoder row by row, whose indented mode costs one Python call per
token.  ``_json_pieces`` dumps the document once with a single
placeholder row in the bulk list, cuts out that row's literal text, and
writes the rows in chunks from it: numpy spells each value of a chunk
NUL-padded, lays the spellings between the row's literal text as one
block, and deletes the NULs.  A center row's coordinates are spelled by
``repr`` (the encoder's ``float.__repr__``; coordinates are finite), each
distinct value of the chunk once, in bytes; a witness row (i, j, sphere)
of the certifier's (k, 3) integer array becomes the object ``{"edge":
[i, j], "sphere": sphere}``, its digits looked up in a table of 4-byte
digit groups.  Each unit measured the faster for its own data.
``save_packing`` and ``write_report`` stream the pieces to the file, so
neither holds the whole text.
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
from .errors import holds_bool, real, reals
from .separability import VIOLATION_FOUND, WINDOW_CERTIFIED, certify_total_separability

FORMAT_VERSION = 1

# marks a value in the placeholder row of a bulk list
_VALUE = "<value>"
# bulk rows joined per write
_CHUNK_ROWS = 4096


def _json_pieces(doc: dict, path: tuple, row, spell):
    """Yield ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"`` in pieces.

    ``path`` is the key path of the bulk list in ``doc``; ``row`` is the
    JSON shape of one row, with ``_VALUE`` in each value's place.  The
    document is dumped once with ``[row]`` as that list and split at the
    list's opening line (its key, ``: [`` and a newline, which no encoded
    string holds) and at its closing bracket, alone on a line at the
    list's indentation: the head, the row's literal text, and the tail.
    An empty list dumps as ``[]``, has no opening line, and passes whole.

    ``spell`` maps a slice of rows to an (n, values per row, width) array
    of their values' spellings, NUL-padded, in bytes or 4-byte words.  A
    chunk is one block of the row's literal text, padded to that unit,
    with the spellings between; its NULs are deleted.
    """
    skeleton = dict(doc)
    parent = skeleton
    for key in path[:-1]:
        parent[key] = dict(parent[key])
        parent = parent[key]
    rows = parent[path[-1]]
    parent[path[-1]] = [row] if len(rows) else []
    text = json.dumps(skeleton, indent=1, sort_keys=True)
    head, opening, rest = text.partition(json.dumps(path[-1]) + ": [\n")
    row_text, closing, tail = rest.partition("\n" + " " * len(path) + "]")
    pieces = [piece.encode("ascii") for piece in (row_text + ",\n").split(json.dumps(_VALUE))]
    yield head + opening
    separator = ""
    for start in range(0, len(rows), _CHUNK_ROWS):
        spelled = spell(rows[start : start + _CHUNK_ROWS])
        if start == 0:
            # the first chunk is the longest: its literal columns serve every chunk
            unit = spelled.dtype
            words = [np.frombuffer(p + bytes(-len(p) % unit.itemsize), unit) for p in pieces]
            literals = [np.broadcast_to(w, (len(spelled), len(w))) for w in words]
        parts = [literals[0][: len(spelled)]]
        for column, literal in zip(spelled.transpose(1, 0, 2), literals[1:]):
            parts += [column, literal[: len(spelled)]]
        block = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
        yield separator + block[:-2].decode("ascii")
        separator = ",\n"
    yield closing + tail + "\n"


def _float_spellings(rows: np.ndarray) -> np.ndarray:
    """The spellings of an (n, d) float64 array's values, (n, d, width).

    Each distinct value of the chunk, told apart by its bits so that -0.0
    is not 0.0, is spelled once by ``repr`` of a Python float (numpy 2
    reprs a np.float64 as "np.float64(...)") into a NUL-padded byte table
    as wide as its longest spelling, and gathered from that table.
    """
    bits, index = np.unique(rows.view(np.uint64), return_inverse=True)
    table = np.array([repr(value) for value in bits.view(np.float64).tolist()], dtype="S")
    return table.view(np.uint8).reshape(len(table), -1)[index.reshape(rows.shape)]


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


def _integer_spellings(rows: np.ndarray) -> np.ndarray:
    """The decimal spellings of an (n, k) array of nonnegative integers,
    (n, k, 4 * limbs).

    Each value takes ``limbs`` digit groups, enough for the chunk's largest
    value.  A value's base-10^4 limb is looked up in ``_digit_groups`` by
    its prefix, the value without the limbs below: a prefix of 10^4 or
    more takes the zero-padded group, a smaller one the group without
    leading zeros, and a prefix of 0 the NUL group, except in the last
    limb, whose 0 is spelled "0".
    """
    limbs = (len(str(rows.max())) + 3) // 4
    prefix = rows[..., None] // 10_000 ** np.arange(limbs - 1, -1, -1)
    index = prefix % 10_000 + 10_000 * (prefix < 10_000)
    index[..., :-1] += 10_000 * (prefix[..., :-1] == 0)
    return _digit_groups()[index]


def _packing_pieces(p: Packing):
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "radius": 1.0,
        "label": p.label,
        "window": {
            "lower": p.window.lower.tolist(),
            "upper": p.window.upper.tolist(),
            "margin": p.window.margin,
        },
        "centers": p.centers,
    }
    return _json_pieces(doc, ("centers",), [_VALUE] * p.dimension, _float_spellings)


def encode_packing(p: Packing) -> bytes:
    return "".join(_packing_pieces(p)).encode("utf-8")


def decode_packing(data: bytes) -> Packing:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise PackingParseError(f"not utf-8: {exc}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise PackingParseError(
            f"malformed packing file at byte {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    except RecursionError as exc:
        raise PackingParseError(f"packing file nests too deep: {exc}") from exc
    if not isinstance(doc, dict):
        raise PackingParseError("packing file must contain a JSON object", offset=0)
    version = doc.get("format_version")
    # JSON true equals 1 in Python, so a bool must be turned away by type
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise PackingVersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}"
        )
    # no field is a bool; without true or false in the bytes there is no
    # bool, so the common file skips this pass over every value, and the
    # centers reach reals as an array, which it does not walk again
    if (b"true" in data or b"false" in data) and holds_bool(doc):
        raise PackingParseError("a packing file holds no JSON booleans")
    try:
        window = Window(doc["window"]["lower"], doc["window"]["upper"], doc["window"]["margin"])
        centers = reals(np.asarray(doc["centers"]), "centers")
        if centers.shape[1:] != (doc["dimension"],) and centers.shape != (0,):
            raise PackingParseError(f"centers must be a list of {doc['dimension']}-long rows")
        centers = centers.reshape(-1, doc["dimension"])
        radius = real(doc["radius"], "radius")
        if radius != 1.0:
            raise PackingParseError(f"radius must be 1.0, got {radius}")
        return Packing(centers, window, doc.get("label", ""))
    except PackingParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PackingParseError(f"invalid packing document: {exc}") from exc


def save_packing(p: Packing, path) -> None:
    """Stream the packing file to ``path`` without building its whole text."""
    _write_pieces(_packing_pieces(p), path)


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
    witness = {"edge": [_VALUE, _VALUE], "sphere": _VALUE}
    pieces = _json_pieces(report, ("separability", "violations"), witness, _integer_spellings)
    _write_pieces(pieces, path)


def _write_pieces(pieces, path) -> None:
    # newline="" writes each "\n" as is, on every platform
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)
