"""Catalog of named packings: ids, regularities, construction recipes.

The data file stores numbers that are not plain integers as coefficient
quadruples [a, b, c, d] meaning a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6);
everything in the catalog lives in that ring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import InvalidValueError

_BASIS = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0))

CATALOG_ONLY = "catalog-only"


def coeff_value(quad) -> float:
    """Evaluate a plain integer or a coefficient quadruple [a, b, c, d]."""
    if isinstance(quad, int):
        return float(quad)
    return float(sum(c * b for c, b in zip(quad, _BASIS)))


def _ring_matrix(rows) -> np.ndarray:
    return np.array([[coeff_value(x) for x in row] for row in rows], dtype=float)


@dataclass(frozen=True)
class CatalogEntry:
    """One named packing family and how to build a window of it."""

    id: str
    dimension: int
    regularity: int
    kind: str  # "orbit" | "product" | "catalog-only"
    display_name: str
    factors: tuple | None = None  # product: the two factor ids
    seeds: np.ndarray | None = None  # orbit: (k, d) seed points
    lattice: np.ndarray | None = None  # orbit: (d, d) period * basis, rows are translations
    centering: np.ndarray | None = None  # orbit: (m, d) offsets, origin included

    @property
    def constructible(self) -> bool:
        return self.kind != CATALOG_ONLY


def _parse_entry(raw: dict) -> CatalogEntry:
    cons = raw["construction"]
    if cons["kind"] not in ("orbit", "product", CATALOG_ONLY):
        raise InvalidValueError(f"{raw['id']} has an unknown construction kind {cons['kind']!r}")
    orbit = {}
    if cons["kind"] == "orbit":
        orbit = {
            "seeds": _ring_matrix(cons["seeds"]),
            "lattice": coeff_value(cons["period"]) * _ring_matrix(cons["basis"]),
            "centering": _ring_matrix(cons["centering"]),
        }
        for array in orbit.values():
            array.setflags(write=False)
    return CatalogEntry(
        id=raw["id"],
        dimension=raw["dimension"],
        regularity=raw["regularity"],
        kind=cons["kind"],
        display_name=raw.get("display_name", raw["id"]),
        factors=tuple(cons["factors"]) if "factors" in cons else None,
        **orbit,
    )


@lru_cache(maxsize=1)
def load_catalog() -> dict:
    """id -> CatalogEntry, parsed once from the packaged data file."""
    text = resources.files("sepack").joinpath("data/catalog.json").read_text()
    data = json.loads(text)
    if data.get("format_version") != 1:
        raise InvalidValueError(f"unsupported catalog format_version {data.get('format_version')}")
    entries = [_parse_entry(raw) for raw in data["entries"]]
    return {e.id: e for e in entries}


def constructible_ids() -> list:
    return [e.id for e in load_catalog().values() if e.constructible]
