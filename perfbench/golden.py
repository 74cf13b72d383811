"""Golden records: what each benchmark item must produce, and the checker.

A record holds the facts a user relies on and nothing that varies from run
to run: the exit code, the sha256 of every packing or SVG file written, the
verify report without its timing field (exact ``sep`` string, edge counts,
triangle, regularity, degree histograms, violation count and a digest of the
violation witnesses), and the values ``contact-opt`` and ``measure`` print.
Records were taken from the seed commit with ``python3 -m perfbench.record``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# fixed polyforms by cell count, n = 1.. (OEIS A001168 and A001931)
OEIS_FIXED_POLYFORMS = {
    2: (1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446),
    3: (1, 3, 15, 86, 534, 3481, 23502, 162913),
}

_STDOUT_FIELDS = {
    "contact-opt": {
        "achieved": r"^achieved contacts: (\d+)$",
        "target": r"^(?:formula|upper bound): (\d+)$",
        "oracle": r"^oracle: (\d+)$",
    },
    "measure": {
        "sep": r"^sep = (\S+) ",
        "status": r"^status = (\S+)$",
    },
}


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _option(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_summary(report: dict) -> dict:
    """A verify report reduced to its deterministic facts."""
    sep = report["separability"]
    witnesses = [[*v["edge"], v["sphere"]] for v in sep["violations"]]
    digest = hashlib.sha256(json.dumps(witnesses, separators=(",", ":")).encode())
    return {
        "sphere_count": report["sphere_count"],
        "contact_count": report["contact_count"],
        "degree_histogram": report["degree_histogram"],
        "regularity": report["regularity"],
        "triangle": report["triangle"],
        "status": sep["status"],
        "sep": sep["sep"],
        "clean_edges": sep["clean_edges"],
        "total_edges": sep["total_edges"],
        "violation_count": len(witnesses),
        "violations_sha256": digest.hexdigest(),
    }


def summarize(argv, rc, stdout: str) -> dict:
    """The record of one finished item; files are read from the current directory."""
    record = {"rc": rc}
    if rc != 0:
        return record
    command = argv[0]
    if command in ("gen", "construct-diagonal", "contact-opt", "render"):
        record["sha256"] = _sha256(_option(argv, "--out"))
    if command == "verify":
        with open(_option(argv, "--report"), encoding="utf-8") as fh:
            record["report"] = report_summary(json.load(fh))
    for key, pattern in _STDOUT_FIELDS.get(command, {}).items():
        match = re.search(pattern, stdout, re.MULTILINE)
        record[key] = match.group(1) if match else None
    return record


def mismatch(expected: dict | None, actual: dict) -> list:
    """Names of the fields where an item's record differs from its golden one."""
    if expected is None:
        return ["<no golden record>"]
    keys = sorted(set(expected) | set(actual))
    wrong = [k for k in keys if k != "report" and expected.get(k) != actual.get(k)]
    if "report" in expected or "report" in actual:
        want, got = expected.get("report") or {}, actual.get("report") or {}
        wrong += [f"report.{k}" for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    return wrong


def tangent_directions(centers, edges) -> int:
    """Number of distinct tangent-plane normals over the contact edges.

    A normal and its negation are one direction; normals are compared after
    rounding to 1e-6, far coarser than the float error of catalog
    coordinates and far finer than the angle between distinct directions.
    """
    import numpy as np  # deferred: the runner holds BLAS to one thread before numpy loads

    if len(edges) == 0:
        return 0
    diff = centers[edges[:, 1]] - centers[edges[:, 0]]
    normals = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    rounded = np.round(normals, 6) + 0.0
    lead = np.argmax(rounded != 0.0, axis=1)
    sign = np.sign(rounded[np.arange(len(rounded)), lead])
    return len(np.unique(rounded * sign[:, None], axis=0))


def input_size(sepack, path) -> dict:
    """n, m and the number of tangent directions of one packing file."""
    packing = sepack.load_packing(path)
    graph = sepack.build_contact_graph(packing)
    return {
        "n": packing.n_spheres,
        "m": graph.edge_count,
        "directions": tangent_directions(packing.centers, graph.edges),
    }
