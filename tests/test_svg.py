import hashlib
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sepack import Packing, decode_packing, encode_packing, generate_named, render_svg
from sepack.cli import build_parser
from sepack.errors import UnsupportedDimensionError


class TestRenderSvg:
    def test_circle_count(self):
        p = generate_named("K6", 6)
        doc = render_svg(p)
        assert doc.count("<circle") == p.n_spheres

    def test_edges_and_tangents_add_lines(self):
        from sepack import build_contact_graph

        p = generate_named("K6", 6)
        m = build_contact_graph(p).edge_count
        doc = render_svg(p, show_edges=True, show_tangents=True)
        assert doc.count("<line") == 2 * m

    def test_deterministic_bytes(self):
        p = generate_named("K9", 8)
        a = render_svg(p, show_edges=True).encode()
        b = render_svg(p, show_edges=True).encode()
        assert a == b

    def test_empty_packing_is_valid_document(self):
        p = Packing(np.zeros((0, 2)))
        doc = render_svg(p)
        assert doc.startswith("<?xml") and doc.rstrip().endswith("</svg>")
        assert "<circle" not in doc

    def test_rejects_3d(self):
        with pytest.raises(UnsupportedDimensionError):
            render_svg(generate_named("J1", 4))


def _render_inputs() -> dict:
    """(packing maker, show_edges, show_tangents) by pin name."""
    inputs = {}
    flags = {"": (False, False), "-edges": (True, False), "-tangents": (False, True)}
    for name in ("K6", "TRI"):
        for suffix, (edges, tangents) in flags.items():
            inputs[f"{name}-L6{suffix}"] = (partial(generate_named, name, 6), edges, tangents)
    inputs["empty-both"] = (lambda: Packing(np.zeros((0, 2))), True, True)
    inputs["one-sphere-both"] = (lambda: Packing([[0.0, 0.0]]), True, True)
    three = [[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]]
    inputs["three-circles-both"] = (lambda: Packing(three), True, True)
    return inputs


RENDER_INPUTS = _render_inputs()

# sha256 of render_svg's text, recorded before the elements were drawn from
# whole arrays; the three circles are mutually tangent
PINNED_RENDERS = {
    "K6-L6": "52810d60d57231b47196305f61efd2d946a8d1f7946e9a9937f8b524d2496faa",
    "K6-L6-edges": "423846d1aa728e97e15caf5b2b622ccdbb61eb4e34f1b1d6333f79ac6f8efab4",
    "K6-L6-tangents": "91b80b1ce44d837bc74528f2421c041976694de9986096823d5d459dbf38e1d3",
    "TRI-L6": "2caa7be08d0ef6daac3e733cbaa0af52afa5e61b7386f03f45ee5dc391624989",
    "TRI-L6-edges": "cfa18cd28d72749fa4203e863e1a0ab3e2c1010c41c110d01274ad109f6f40aa",
    "TRI-L6-tangents": "bb69cadd7a8a7cbf5f9c62c2ef969c684c3f53490fb036246fb798c4396e061a",
    "empty-both": "88ccc95ee711f29294202b9fc895a5c3a4e696f9c2206252125424a9dee1e6ce",
    "one-sphere-both": "cb5899926f9fa10d7a59595410faeae6be71a9779272add194152343eaf015da",
    "three-circles-both": "8a9f9331f71c7e7b3187ba07de67f7226ef7b53d39308db2b9f48a2dcff22089",
}


@pytest.mark.parametrize("name", sorted(PINNED_RENDERS))
def test_render_is_pinned(name):
    make, show_edges, show_tangents = RENDER_INPUTS[name]
    doc = render_svg(make(), show_edges, show_tangents)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_RENDERS[name]


def _golden_renders() -> dict:
    """The benchmark's golden sha256 of each render item, by the gen
    command line that writes the packing file it reads."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    items = {
        item: record
        for workload in json.loads(golden.read_text(encoding="utf-8"))["workloads"].values()
        for item, record in workload["items"].items()
    }
    writers = {item.split()[-1]: item for item in items if item.split()[0] == "gen"}
    return {
        writers[item.split()[1]]: record["sha256"]
        for item, record in items.items()
        if item.split()[0] == "render"
    }


GOLDEN_RENDERS = _golden_renders()


def test_golden_renders_cover_the_benchmark():
    assert sorted(item.split()[2] for item in GOLDEN_RENDERS) == ["K6", "K9", "P1", "P3"]


@pytest.mark.parametrize("item", sorted(GOLDEN_RENDERS))
def test_benchmark_render_is_byte_identical(item):
    # every render item draws edges and tangents of the file its gen wrote
    args = build_parser().parse_args(item.split())
    packing = decode_packing(encode_packing(generate_named(args.name, args.window, args.margin)))
    doc = render_svg(packing, show_edges=True, show_tangents=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_RENDERS[item]
