import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepack import (
    OrbitSpec,
    Packing,
    Window,
    build_contact_graph,
    check_entry_invariants,
    constructible_ids,
    generate_named,
    is_k_regular,
    load_catalog,
    orbit_generate,
    product_packing,
    signed_permutation_orbit,
)
from sepack.errors import (
    InvalidPackingError,
    InvalidValueError,
    MalformedInputError,
    NormalizationRequiredError,
    SepackError,
    SizeLimitError,
    UnknownCatalogIdError,
    UnsupportedConstructionError,
)
from sepack import catalog, core
from sepack.cli import build_parser
from sepack.core import POINT_BUDGET, TOL
from sepack.diagonal import diagonal_construction, diagonal_spec
from sepack import generators, packio
from sepack.generators import APEIROGON, TRIANGULAR
from sepack.packio import build_verify_report, encode_packing, write_report

from conftest import (
    brute_force_edges,
    brute_force_signed_permutation_orbit,
    oracle_orbit_generate,
    traced_peak,
    within_seconds,
)

SQRT2 = math.sqrt(2.0)


class TestCatalog:
    def test_regularity_table(self):
        expected = {
            "P1": 4, "P3": 3, "K6": 3, "K9": 3,
            "J1": 6, "J3": 5, "J6": 5, "J9": 5, "J16": 4, "J18": 4, "J20": 4,
            "O1": 8, "O3": 7, "O6": 7, "O9": 7,
            "O16": 6, "O18": 6, "O20": 6, "O39": 6, "O42": 6, "O45": 6,
            "O63": 6, "O66": 6, "O78": 6,
            "O99": 5, "O100": 5, "O103": 5, "O132": 5, "O140": 5,
        }
        entries = load_catalog()
        assert {k: e.regularity for k, e in entries.items()} == expected

    def test_catalog_only_set(self):
        entries = load_catalog()
        not_constructible = {k for k, e in entries.items() if not e.constructible}
        assert not_constructible == {"O99", "O100", "O132", "O140"}

    def test_catalog_only_generation_fails(self):
        with pytest.raises(UnsupportedConstructionError, match="O99"):
            generate_named("O99", 6)

    def test_unknown_id_lists_valid_names(self):
        with pytest.raises(UnknownCatalogIdError, match="P1.*K6"):
            generate_named("Q7", 6)

    def test_unknown_construction_kind_is_turned_away(self):
        # generate_named builds the three kinds the catalog admits, and no other
        raw = {"id": "X1", "dimension": 2, "regularity": 4, "construction": {"kind": "spiral"}}
        with pytest.raises(InvalidValueError, match="X1.*spiral"):
            catalog._parse_entry(raw)


class TestApeirogon:
    def test_window_six(self):
        p = generate_named("A", 6)
        assert p.centers[:, 0].tolist() == [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0]

    def test_interior_degree_two(self):
        p = generate_named("A", 6)
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 2).is_regular

    def test_product_with_p1_gives_cubic_slab(self):
        # P1 x apeirogon on matched windows is exactly the cubic window
        prod = product_packing(generate_named("P1", 6), generate_named("A", 6))
        cubic = generate_named("J1", 6)
        assert np.array_equal(prod.centers, cubic.centers)


class TestMotifGeometry:
    def test_k6_motif_neighbor_split(self):
        # each diamond vertex: exactly 2 same-motif and 1 cross-motif contact
        p = generate_named("K6", 12)
        edges = build_contact_graph(p).edges
        motif_of = np.round(p.centers / (2.0 + 2.0 * SQRT2))
        same = np.all(motif_of[edges[:, 0]] == motif_of[edges[:, 1]], axis=1)
        counts = [np.bincount(edges[kind].ravel(), minlength=p.n_spheres) for kind in (same, ~same)]
        interior = p.window.interior_mask(p.centers)
        assert interior.any()
        assert np.all(counts[0][interior] == 2) and np.all(counts[1][interior] == 1)

    def test_k9_motif_has_twelve_points_per_node(self):
        p = generate_named("K9", 12)
        r_circ = 1.0 / math.sin(math.pi / 12.0)
        near_origin = p.centers[np.linalg.norm(p.centers, axis=1) < r_circ + 1e-6]
        assert len(near_origin) == 12
        assert np.allclose(np.linalg.norm(near_origin, axis=1), r_circ)

    def test_p3_is_hexagon_vertex_set(self):
        p = generate_named("P3", 10)
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 3).is_regular
        # bipartite-ish check: no 4-cycles of length-2 contacts in a hexagon
        # lattice means every interior vertex's neighbors are mutually >2 apart
        edges = g.edges
        for i in np.flatnonzero(p.window.interior_mask(p.centers))[:20]:
            nbrs = sorted(np.concatenate([edges[edges[:, 0] == i, 1], edges[edges[:, 1] == i, 0]]))
            for a in range(len(nbrs)):
                for b in range(a + 1, len(nbrs)):
                    dist = np.linalg.norm(p.centers[nbrs[a]] - p.centers[nbrs[b]])
                    assert dist > 2.0 + 1e-9


class TestGenerateNamed:
    @pytest.mark.parametrize(
        "name,l",
        [("P1", 8), ("P3", 8), ("K6", 8), ("K9", 12), ("J1", 6), ("J16", 6),
         ("J18", 7), ("J20", 7)],
    )
    def test_invariant_suite_small_windows(self, name, l):
        entry = load_catalog()[name]
        p = generate_named(name, l)
        assert check_entry_invariants(p, entry) == []

    def test_invariant_suite_builds_one_kdtree(self, monkeypatch):
        # one verify report: one KD-tree build and one certifier call
        p = generate_named("K6", 8)
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(core, "cKDTree", counted("tree", core.cKDTree))
        certify = packio.certify_total_separability
        monkeypatch.setattr(packio, "certify_total_separability", counted("certify", certify))
        assert check_entry_invariants(p, load_catalog()["K6"]) == []
        assert sorted(calls) == ["certify", "tree"]

    @pytest.mark.parametrize(
        "build, broken",
        [
            # both spheres are interior with degree 0, not the catalog's 3
            (lambda: Packing([[0.0, 0.0], [3.0, 0.0]]),
             ["regularity regular (k=0), expected regular (k=3)"]),
            # the triangular lattice breaks all three invariants
            (lambda: generate_named("TRI", 8),
             ["regularity regular (k=6), expected regular (k=3)", "triangle [0, 5, 9]",
              "separability ViolationFound (sep=0)"]),
        ],
        ids=["without-contact", "triangular-lattice"],
    )
    def test_invariant_suite_lists_what_breaks(self, build, broken):
        assert check_entry_invariants(build(), load_catalog()["K6"]) == broken

    def test_invariant_suite_rejects_overlap(self):
        # a sphere centred on a contact point of the K6 window overlaps two
        p = generate_named("K6", 8)
        g = build_contact_graph(p)
        i, j = g.edges[0]
        midpoint = (p.centers[i] + p.centers[j]) / 2.0
        bad = Packing(np.vstack([p.centers, midpoint]), p.window, "K6")
        with pytest.raises(InvalidPackingError):
            check_entry_invariants(bad, load_catalog()["K6"])

    def test_window_object_accepted(self):
        w = Window([-8.0, -8.0], [8.0, 8.0], margin=3.0)
        p = generate_named("P1", w)
        assert p.n_spheres == 81

    @pytest.mark.parametrize("name,margin", [("J9", 5.0), ("O9", 0.0)])
    def test_product_keeps_the_window_margin(self, name, margin):
        w = Window.cube(4, load_catalog()[name].dimension, margin)
        assert generate_named(name, w).window.margin == margin

    def test_deterministic(self):
        a = generate_named("K9", 10)
        b = generate_named("K9", 10)
        assert np.array_equal(a.centers, b.centers)

    def test_triangular_reference_family(self):
        p = generate_named("TRI", 8)
        assert build_contact_graph(p).edge_count > 0  # raises on an overlap


class TestProductPacking:
    def test_degree_additivity(self):
        p3 = generate_named("P3", 8)
        k6 = generate_named("K6", 8)
        prod = product_packing(p3, k6)
        g = build_contact_graph(prod)
        assert is_k_regular(g, prod, 3 + 3).is_regular

    def test_edge_count_identity(self):
        # |E(PxQ)| = |V_P| |E_Q| + |V_Q| |E_P| on full windows
        p = generate_named("P1", 4)
        q = generate_named("P3", 6)
        ep = build_contact_graph(p).edge_count
        eq = build_contact_graph(q).edge_count
        prod = product_packing(p, q)
        eprod = build_contact_graph(prod).edge_count
        assert eprod == p.n_spheres * eq + q.n_spheres * ep

    def test_matches_brute_force_contacts(self):
        p = generate_named("P1", 2)
        q = generate_named("A", 2)
        prod = product_packing(p, q)
        got = {(int(i), int(j)) for i, j in build_contact_graph(prod).edges}
        assert got == brute_force_edges(prod.centers)

    def test_rejects_non_normalized(self):
        bad = Packing([[0.0, 0.0], [3.0, 0.0]])
        with pytest.raises(NormalizationRequiredError):
            product_packing(bad, generate_named("A", 4))

    def test_rejects_an_overlapping_factor(self):
        bad = Packing([[0.0, 0.0], [1.5, 0.0], [4.0, 0.0]])
        with pytest.raises(InvalidPackingError) as info:
            product_packing(generate_named("A", 4), bad)
        assert info.value.pair == (0, 1) and info.value.distance == 1.5

    @pytest.mark.parametrize("name", ["J9", "O9", "O45", "O66", "O78"])
    def test_factor_windows_without_a_contact(self, name):
        # at L = 3 a factor's cropped window holds no contact to measure
        left, right = load_catalog()[name].factors
        expected = generate_named(left, 3).n_spheres * generate_named(right, 3).n_spheres
        assert generate_named(name, 3).n_spheres == expected

    def test_size_checked_before_allocation(self):
        p = generate_named("P1", 40)  # 1,681 spheres; 1,681^2 > POINT_BUDGET
        assert p.n_spheres**2 > POINT_BUDGET
        with traced_peak() as peak, pytest.raises(SizeLimitError):
            product_packing(p, p)
        assert peak[0] < 1_000_000


# every catalog seed, the diagonal family's seed 1 for d = 2..6, and seeds
# with zero entries (the loop's zero signs vary) and repeated values
ORBIT_SEEDS = {
    **{
        f"{entry.id}-{i}": seed
        for entry in load_catalog().values()
        if entry.kind == "orbit"
        for i, seed in enumerate(entry.seeds)
    },
    **{f"ones-{d}": np.ones(d) for d in range(2, 7)},
    "one-two-zeros": np.array([1.0, 0.0, 0.0]),
    "signed-zeros": np.array([-0.0, 3.0, -3.0, 0.0]),
    "origin": np.zeros(2),
}


class TestOrbitGeneration:
    def test_orbit_of_seed_012_matches_bitruncated_motif(self):
        spec = OrbitSpec(
            np.array([0.0, 1.0, 2.0]),
            4.0 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
        )
        orb = orbit_generate(spec, Window.cube(8, 3))
        motif = generate_named("J16", 8)
        assert orb.n_spheres == motif.n_spheres
        assert np.allclose(orb.centers, motif.centers, atol=1e-9)

    def test_full_orbit_size(self):
        orbit = signed_permutation_orbit(np.array([1.0, 1.0 + SQRT2, 1.0 + 2 * SQRT2]))
        assert len(orbit) == 48
        collapsed = signed_permutation_orbit(np.array([0.0, 1.0, 2.0]))
        assert len(collapsed) == 24

    @pytest.mark.parametrize("seed", ORBIT_SEEDS.values(), ids=ORBIT_SEEDS.keys())
    def test_orbit_matches_the_permutation_loop(self, seed):
        got, loop = signed_permutation_orbit(seed), brute_force_signed_permutation_orbit(seed)
        assert np.array_equal(got, loop)
        # every zero entry is +0.0; the loop keeps -0.0 in the rows where
        # np.unique's sort happens to put a flipped zero first
        assert not np.signbit(got[got == 0]).any()
        if np.all(seed != 0):
            assert np.array_equal(got.view(np.uint64), loop.view(np.uint64))

    def test_orbit_is_counted_before_it_is_built(self):
        # 10! * 2^10 images; the permutation loop runs 3.7e9 iterations
        with within_seconds(10), pytest.raises(SizeLimitError):
            signed_permutation_orbit(np.arange(1.0, 11.0))
        with within_seconds(10):
            assert len(diagonal_spec(8).motif()) == 2**8

    def test_axis_seed_lands_on_square_grid(self):
        # orbit of (1,0) over 4Z^2: disjoint 2x2 blocks whose points all lie
        # on one 45-degree-rotated square grid of spacing 2
        spec = OrbitSpec(np.array([1.0, 0.0]), 4.0 * np.eye(2))
        p = orbit_generate(spec, Window.cube(10, 2))
        assert build_contact_graph(p).edge_count > 0  # raises on an overlap
        rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2
        uv = p.centers @ rot.T
        assert np.allclose(uv, np.round(uv), atol=1e-9)
        assert np.all(np.round(uv).astype(int) % 2 == 1)

    def test_axis_seed_on_2z2_is_p1_congruent(self):
        # with the denser lattice 2Z^2 the same orbit closes into the full
        # rotated square grid: 4-regular, matching P1's invariants
        spec = OrbitSpec(np.array([1.0, 0.0]), 2.0 * np.eye(2))
        p = orbit_generate(spec, Window.cube(10, 2))
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 4).is_regular

    def test_j20_candidate_accepted_by_suite(self):
        entry = load_catalog()["J20"]
        spec = OrbitSpec(entry.seeds, entry.lattice, entry.centering)
        p = orbit_generate(spec, Window.cube(7, 3), label="J20")
        assert check_entry_invariants(p, entry) == []

    @pytest.mark.parametrize(
        "seeds, lattice, centering",
        [
            ([1.0, 0.0], [[1.0, 0.0], [2.0, 0.0]], None),
            ([np.nan, 0.0], 2.0 * np.eye(2), None),
            ([1.0, np.inf], 2.0 * np.eye(2), None),
            ([1.0, 0.0], [[np.nan, 0.0], [0.0, 2.0]], None),
            ([1.0, 0.0], [[2.0, 0.0], [0.0, -np.inf]], None),
            ([1.0, 0.0], 2.0 * np.eye(2), [[0.0, 0.0], [1.0, np.nan]]),
            (["a"], [[2.0]], None),
            ([[1.0, 0.0], [1.0]], 2.0 * np.eye(2), None),
            ([1.0, 0.0], [[2.0, 0.0], [0.0]], None),
            ([1.0], [[{}]], None),
            ([1.0, 0.0], 2.0 * np.eye(2), [[0.0, "b"]]),
        ],
        ids=["singular", "nan-seed", "inf-seed", "nan-lattice", "inf-lattice", "nan-centering",
             "string-seed", "ragged-seeds", "ragged-lattice", "dict-lattice", "string-centering"],
    )
    def test_rejects_singular_lattice(self, seeds, lattice, centering):
        # non-numbers and ragged lists too: numpy's ValueError or TypeError
        # is a MalformedInputError, as in Packing
        with pytest.raises(MalformedInputError):
            OrbitSpec(seeds, lattice, centering)


def _catalog_spec(name):
    entry = load_catalog()[name]
    return OrbitSpec(entry.seeds, entry.lattice, entry.centering)


NEAR = 1.0 + 0.2 * TOL  # a seed coordinate whose orbit copies sit 0.4 TOL apart

# (spec, window, sphere count or None): every orbit spec at the benchmark's
# windows, the specs of TestOrbitGeneration, seeds whose copies from
# neighbouring cells are near duplicates (within TOL / 2, not bit-identical;
# on 2Z the dropped copy of each pair is 2 - 0.4 TOL from the next kept
# one, closer than any two kept points), a motif reaching past the probe's
# cells, motifs wider than the padding (the padded box then holds no pair
# at the probe's contact distance, or leaves out points of the window),
# copies just over TOL / 2 apart (the closest pair is then within
# rounding of its own size), a window off the origin, and a chain of five
# near duplicates 0.3 TOL apart whose ends are 1.2 TOL apart, which keeps
# only its lowest point, and chains of eleven centering offsets 0.4 TOL
# apart whose survivors sit 4 TOL below the probe's raw point 0 and below
# the raw point nearest it, so the probe's first sweep finds no pair and widens;
# a 4-D window off the origin, and a motif 11.5 wide on 2Z^4 whose padded
# box leaves 44 pair types no live position on some axis but live ones on
# the others (counting those on the others alone moves the scale)
ORBIT_CASES = {
    **{
        f"{name}-L{l}": (lambda name=name: _catalog_spec(name), l, None)
        for name, l in [
            ("P1", 12), ("P3", 12), ("K6", 12), ("K9", 12), ("J1", 8), ("J16", 8),
            ("J18", 8), ("J20", 8), ("O1", 6), ("O103", 9), ("P1", 100), ("K9", 100),
            ("J1", 14),
        ]
    },
    "TRI-L40": (lambda: TRIANGULAR, 40, None),
    "A-L6": (lambda: APEIROGON, 6, None),
    "seed012-4Z3": (
        lambda: OrbitSpec([0.0, 1.0, 2.0], 4.0 * np.eye(3), [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
        8, None,
    ),
    "axis-4Z2": (lambda: OrbitSpec([1.0, 0.0], 4.0 * np.eye(2)), 10, None),
    "axis-2Z2": (lambda: OrbitSpec([1.0, 0.0], 2.0 * np.eye(2)), 10, None),
    "J20-L7": (lambda: _catalog_spec("J20"), 7, None),
    "near-2Z2": (lambda: OrbitSpec([NEAR, 0.0], 2.0 * np.eye(2)), 10, 112),
    "near-2Z3": (lambda: OrbitSpec([NEAR, 0.0, 0.0], 2.0 * np.eye(3)), 10, 1176),
    "near-4Z2": (lambda: OrbitSpec([NEAR, 1.0], 4.0 * np.eye(2)), 10, 100),
    "near-2Z": (lambda: OrbitSpec([NEAR], [[2.0]]), 10, 10),
    "near-chain-30Z2": (
        lambda: OrbitSpec([[5.0, 0.0], [5.0, 0.3 * TOL], [5.0, 0.6 * TOL]], 30.0 * np.eye(2)),
        40, 324,
    ),
    "near-chain-probe": (
        lambda: OrbitSpec([0.5], [[3.0]], [[-0.4 * TOL * i] for i in range(11)]), 10, 6
    ),
    "far-motif": (lambda: OrbitSpec([10.3, 0.0], 2.0 * np.eye(2)), 10, 24),
    "wide-motif-sparse-box": (
        lambda: OrbitSpec([[5.5], [7.5]], [[1.5]]), Window([-5.6], [-4.5]), 1
    ),
    "wide-motif-box-edge": (lambda: OrbitSpec([4.5], [[2.5]]), Window([9.0], [13.0]), 0),
    "apart-0.64TOL": (lambda: OrbitSpec([1.5, -1.5 + 0.45 * TOL], 3.1 * np.eye(2)), 10, 0),
    "J20-off-origin": (
        lambda: _catalog_spec("J20"), Window([37.5, -12.25, 3.0], [45.0, -4.0, 9.5], 3.0), None
    ),
    "O103-off-origin": (
        lambda: _catalog_spec("O103"),
        Window([13.5, -6.25, 2.0, -20.0], [19.0, 1.5, 6.5, -14.0], 3.0), None,
    ),
    "dead-axis-2Z4": (
        lambda: OrbitSpec([[11.5, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]], 2.0 * np.eye(4)),
        Window([-3.0, 2.5, 1.0, 3.0], [0.0, 6.0, 6.5, 7.5]), 12,
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_window_matches_padded_oracle(case):
    make, window, count = ORBIT_CASES[case]
    spec = make()
    if not isinstance(window, Window):
        window = Window.cube(window, spec.dimension)
    with within_seconds(30):  # O103-L9 takes about 2 s, most of it in the oracle
        packing = orbit_generate(spec, window)
        assert encode_packing(packing) == encode_packing(oracle_orbit_generate(spec, window))
    assert count in (None, packing.n_spheres)


def test_probe_too_fine_to_scale_is_a_size_limit():
    # the three raw points of the probe lie within 2e-11 of each other:
    # no contact distance sizes the window
    with pytest.raises(SizeLimitError):
        orbit_generate(OrbitSpec([0.0], [[1e-11]]), Window.cube(3, 1))


@pytest.mark.parametrize(
    "spec",
    [OrbitSpec([1e300], [[2.0]]), OrbitSpec([1.0], [[1e300]]),
     OrbitSpec([1e154, 3e153], 2.0 * np.eye(2))],
    ids=["seed", "lattice", "squares"],
)
def test_probe_too_far_apart_is_a_value_error(spec):
    # a squared distance of the probe would overflow in the KD-tree, so the
    # probe's span is checked before the tree is built
    with pytest.raises(InvalidValueError, match="too far"):
        orbit_generate(spec, Window.cube(3, spec.dimension))


@pytest.mark.parametrize(
    "case",
    ["J16-L8", "near-chain-30Z2", "wide-motif-sparse-box", "J20-off-origin", "O103-off-origin"],
)
def test_small_sweep_chunks_keep_the_bytes(case, monkeypatch):
    # 64 values a step splits the survivor mask and the contact sweep into
    # many steps, some of which hold no pair with both ends alive; the axis
    # sweep of O103 (960 pair types) takes 9 types a step
    monkeypatch.setattr(generators, "_SWEEP_CHUNK", 64)
    test_orbit_window_matches_padded_oracle(case)


@pytest.mark.parametrize("chunk", [64, generators._SWEEP_CHUNK])
@pytest.mark.parametrize("dims", [(7, 4, 3), (150,)])
def test_live_pairs_yields_each_live_pair_once(dims, chunk, monkeypatch, rng):
    # at 64 values a step the rows of the larger offsets' cells come in
    # several blocks and the small offsets' types in several steps
    monkeypatch.setattr(generators, "_SWEEP_CHUNK", chunk)
    kinds = 4
    on = rng.random(dims + (kinds,)) < 0.6
    offsets = np.array(list(itertools.product(*[range(1 - n, n) for n in dims])))
    offsets = offsets[rng.choice(len(offsets), 30, replace=False)]
    ends = list(itertools.product(range(kinds), repeat=2))
    types = np.array([(a, b, *delta) for delta in offsets for a, b in ends])
    types = types[rng.random(len(types)) < 0.5]
    expected = []
    for cell in itertools.product(*map(range, dims)):
        for a, b, *delta in types.tolist():
            other = tuple(np.add(cell, delta))
            if all(0 <= x < n for x, n in zip(other, dims)) and on[cell][a] and on[other][b]:
                i, j = (int(np.ravel_multi_index(c, dims)) for c in (cell, other))
                expected.append((i, j, a, b))
    got = np.concatenate([np.column_stack(c) for c in generators._live_pairs(on, types)])
    assert sorted(map(tuple, got.tolist())) == sorted(expected)
    assert len(expected) > 100


def _separable(grid) -> bool:
    """Whether translate coordinate k varies along grid axis k alone, for
    every k: a scan of every grid coordinate, the oracle for _diagonal."""
    for k, coordinate in enumerate(grid):
        along = np.moveaxis(coordinate, k, 0).reshape(coordinate.shape[k], -1)
        if not (along == along[:, :1]).all():
            return False
    return True


def _both_kernels(spec, window, monkeypatch) -> list:
    """orbit_generate through the kernel the input picks, then through the
    general one: each run's file (or error), its axis sweeps, and each
    _closest call's contact distance and survivor mask over every cell.

    Each grid swept is checked against the kernel rule's premise: the axis
    kernel reads grid[k] along axis k at index 0 of the other axes, which
    is every value of coordinate k exactly when the lattice is diagonal."""
    runs, closest, axis_sweep = [], generators._closest, generators._axis_sweep
    diagonal = generators._diagonal
    for general in (False, True):
        calls, axis_sweeps = [], []

        def recording(grid, tables, lattice, *args):
            assert min(grid.shape[1:]) >= 3
            assert _separable(grid) == diagonal(lattice)
            calls.append(closest(grid, tables, lattice, *args))
            return calls[-1]

        def counting(*args):
            axis_sweeps.append(1)
            return axis_sweep(*args)

        with monkeypatch.context() as patch:
            patch.setattr(generators, "_closest", recording)
            patch.setattr(generators, "_axis_sweep", counting)
            if general:
                patch.setattr(generators, "_diagonal", lambda lattice: False)
            try:
                made = encode_packing(orbit_generate(spec, window))
            except SepackError as error:
                made = repr(error)
        runs.append((made, len(axis_sweeps), calls))
    return runs


def _assert_same_bits(picked, general):
    assert picked[0] == general[0]
    assert general[1] == 0
    assert len(picked[2]) == len(general[2])
    for (found, mask), (expected, expected_mask) in zip(picked[2], general[2]):
        assert found.hex() == expected.hex()
        assert np.array_equal(mask, expected_mask)


def _in_dimension(window, d: int) -> Window:
    """A half-width's cube, or a Window's first d axes."""
    if isinstance(window, Window):
        return Window(window.lower[:d], window.upper[:d], window.margin)
    return Window.cube(window, d)


_OFF_ORIGIN = Window([37.5, -12.25, 3.0, -1.0], [45.0, -4.0, 9.5, 4.0], 2.0)


@pytest.mark.parametrize("window", [3, 6.5, _OFF_ORIGIN], ids=["L3", "L6.5", "off-origin"])
@pytest.mark.parametrize("name", ["P1", "K6", "J1", "J20", "O1", "O103", "A"])
def test_axis_sweep_matches_the_general_sweep(name, window, monkeypatch):
    # the same contact distance, to the bit, and the same survivors and file
    spec = APEIROGON if name == "A" else _catalog_spec(name)
    picked, general = _both_kernels(spec, _in_dimension(window, spec.dimension), monkeypatch)
    assert picked[1] == 2  # the probe and the padded window
    _assert_same_bits(picked, general)


# every orbit spec of the library, diagonal or not, with or without near types
PREMISE_SPECS = {
    **{e.id: lambda e=e: _catalog_spec(e.id) for e in load_catalog().values() if e.kind == "orbit"},
    "TRI": lambda: TRIANGULAR,
    "A": lambda: APEIROGON,
    **{f"diagonal_spec({d})": lambda d=d: diagonal_spec(d) for d in (2, 3, 4)},
}


@pytest.mark.parametrize("window", [4, _OFF_ORIGIN], ids=["L4", "off-origin"])
@pytest.mark.parametrize("name", sorted(PREMISE_SPECS))
def test_the_lattice_picks_the_kernel_of_the_grid(name, window, monkeypatch):
    # _both_kernels checks each grid: separable exactly on a diagonal lattice
    spec = PREMISE_SPECS[name]()
    picked, general = _both_kernels(spec, _in_dimension(window, spec.dimension), monkeypatch)
    assert len(picked[2]) == 2  # the probe and the padded window
    _assert_same_bits(picked, general)


_TENTHS = st.integers(0, 25).map(lambda n: n / 10)


@st.composite
def _diagonal_specs(draw):
    """A spec on a diagonal lattice, seeds and offsets in tenths (few of
    them exact in binary), and a window off the origin."""
    d = draw(st.integers(1, 3))
    point = st.lists(_TENTHS, min_size=d, max_size=d)
    seeds = draw(st.lists(point, min_size=1, max_size=2))
    offsets = draw(st.lists(point, max_size=1))
    sides = draw(st.lists(st.integers(15, 50).map(lambda n: n / 10), min_size=d, max_size=d))
    lower = np.array(draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d))) / 4
    widths = np.array(draw(st.lists(st.integers(2, 24), min_size=d, max_size=d))) / 4
    spec = OrbitSpec(seeds, np.diag(sides), [[0.0] * d] + offsets)
    return spec, Window(lower, lower + widths, 1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=_diagonal_specs())
def test_axis_sweep_matches_the_general_sweep_on_drawn_specs(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_bits(*_both_kernels(*case, monkeypatch))


# the sweeps each name's generation at L = 4 makes, as (general, axis by
# axis): one for the probe and one for the padded window of each orbit
# window, a product's for each orbit factor.  J16 and J18 have near-
# duplicate pair types, P3, K9 and TRI lattices that are not diagonal.
SWEEP_KERNELS = {
    "P1": (0, 2), "P3": (2, 0), "K6": (0, 2), "K9": (2, 0),
    "J1": (0, 2), "J3": (2, 2), "J6": (0, 4), "J9": (2, 2),
    "J16": (2, 0), "J18": (2, 0), "J20": (0, 2),
    "O1": (0, 2), "O3": (2, 2), "O6": (0, 4), "O9": (2, 2),
    "O16": (2, 2), "O18": (2, 2), "O20": (0, 4), "O39": (4, 0), "O42": (2, 2),
    "O45": (4, 0), "O63": (0, 4), "O66": (2, 2), "O78": (4, 0), "O103": (0, 2),
    "TRI": (2, 0), "A": (0, 2),
}


def test_each_name_takes_its_sweep_kernel(monkeypatch):
    sweeps = []
    for kernel in ("_contact_sweep", "_axis_sweep"):
        original = getattr(generators, kernel)

        def counting(*args, kernel=kernel, original=original):
            sweeps.append(kernel)
            return original(*args)

        monkeypatch.setattr(generators, kernel, counting)
    taken = {}
    for name in [*constructible_ids(), "TRI", "A"]:
        sweeps.clear()
        generate_named(name, 4)
        taken[name] = (sweeps.count("_contact_sweep"), sweeps.count("_axis_sweep"))
    assert taken == SWEEP_KERNELS


def test_probe_is_counted_before_it_is_built():
    # diagonal_spec(9)'s probe holds 3^9 * 512 = 10,077,696 raw points
    # (725 MB of coordinates); the probe of 3^20 translates of the origin
    # was 3.5e9 tuples before any budget check
    for spec in (diagonal_spec(9), OrbitSpec(np.zeros(20), 2 * np.eye(20))):
        window = Window.cube(3, spec.dimension)
        with within_seconds(10), traced_peak() as peak, pytest.raises(SizeLimitError):
            orbit_generate(spec, window)
        assert peak[0] < 1_000_000


def test_generation_kdtree_builds(monkeypatch):
    # an orbit window builds two, for the pair types of the probe and of the
    # padded window (none widens at these windows); a product builds its factors'
    builds = []
    tree_class = generators.cKDTree

    def counting(*args, **kwargs):
        builds.append(1)
        return tree_class(*args, **kwargs)

    monkeypatch.setattr(generators, "cKDTree", counting)
    catalog = load_catalog()
    for name in sorted(PINNED_PACKINGS):
        builds.clear()
        generate_named(name, 4)
        product = name in catalog and catalog[name].kind == "product"
        assert len(builds) == (4 if product else 2), name


def test_orbit_generation_is_window_local():
    # O103 at L = 9 keeps 1,536 spheres.  Measured under tracemalloc: the
    # window-local route peaks at 8.1 MB, the padded route of the oracle
    # (921,984 raw points, 345,600 of them deduplicated) at 65.0 MB
    generate_named("O103", 6)
    with traced_peak() as peak:
        generate_named("O103", 9)
    assert peak[0] < 16_000_000


def test_point_budget_fires_at_the_oracle_window():
    # the padded window of O103 spans 7^4 cells of 384 raw points up to
    # L = 12 and 9^4 (2,519,424 raw points, 81 MB of coordinates) from
    # L = 13; both routes raise once the probe's 31,104 points are
    # deduplicated (peaks 3.3 MB each), before any window is allocated
    spec = _catalog_spec("O103")
    assert orbit_generate(spec, Window.cube(12, 4)).n_spheres > 0
    for route in (orbit_generate, oracle_orbit_generate):
        with traced_peak() as peak, pytest.raises(SizeLimitError):
            route(spec, Window.cube(13, 4))
        assert peak[0] < 8_000_000


# sha256 of encode_packing(generate_named(name, L)) at L = 4, recorded before
# the motif recipes became orbit specs; O103 at its smallest nonempty
# integer half-width, 6
PINNED_PACKINGS = {
    "P1": "d50ec48b1dc20047965475bb29497610195bd5b475decb27155081dffe3f1a4e",
    "P3": "5530b6f5b4c7dd89ffe4e74360132af1b0fc09b94da3e571aeaac144bc50cfdb",
    "K6": "2345caad5dd0b425c46037d64390bc6f8c89215e9f30ef68f5e222b6fbcad391",
    "K9": "5c13658bbad512566a97ef7ef68ca1b956764dbe68a83821cba95e029555bd49",
    "J1": "a056d5e93d826fc941ce79846f7370b521590d0750782ae8f6f2483323499214",
    "J3": "7b49b30218b2a864351b7642b643e3192714c8ad56bc080c158039e6924db7ce",
    "J6": "e73c2298362bfb77c8976b2a16b48f5ab9ca314b1fee7ecc45054a23c696556a",
    "J9": "460a72aa3ccf1f401b8bd396b96480921666cbf6753864d1cfb3ed9ae0ac7736",
    "J16": "913dd7c543d21ecf7d821899644755b4bd18f69aa7f3d2f41ead78771ceb7cb0",
    "J18": "47f83521f954d152b82e98da8ef73f615a7335c4578ae881b551be0c7e4d8fe5",
    "J20": "77d2a96d9a0bea17a4e761e5ceb38ddba405631f2204f4ee6fbf1543780b8de1",
    "O1": "835b3680658c4861ffccaf15f0605d10935c716532def562ed5ec6db90337ad7",
    "O3": "317720140d575fa8cfc41cecf12f7e3b5cdf86bddee3477e4dcdfc15b2404815",
    "O6": "7bc4cf6213c637fc6488f3c2abce6d3b1a010aee7f948012d767ca38053ea427",
    "O9": "d727e2d06bb6cd173fdb8c0cc248e5767927e836939968e3fa876ea9186f5c49",
    "O16": "12ef2e671050487a7407dc86e97180d221e05a3e6bc5941c388ba1b9cb55f62e",
    "O18": "84047444b630640b999b66f589a3fdcab105e0b6da75754a28a8212c9c1d65e0",
    "O20": "15e30c160969814779e231662694a6baff23a10efe923befd95bed7534b632da",
    "O39": "e460c8485dd83b3ff1d3539afb534e3d71d641af782bf1de635c12fbe8fbf398",
    "O42": "3cff11ec8bc531443c86ef6c0b45580d750a8cd9622fb099e04b37e6a30c8c42",
    "O45": "50a394eab91e71961095c70120a3e9f715661dd2fbdf606f416cd9fb568a72bf",
    "O63": "bbac3342ac087d95dbd089141f2753adf1878dabf345dbf60037b6a0799415e8",
    "O66": "a7ddfeb162bcedcf9c155b4d7e8afd86ff8ad16950867a2dd310ba6453d4b9d7",
    "O78": "98d676cfce2d1b1520394dd0894435b591a86ccda420ed888757f7de6907ef8a",
    "O103": "7bcc5fd9486dc6389e16bcbdd98d1e01635b2f845605095f100f7d454b81361e",
    "TRI": "287a6dc90cce328c793eeed4a079137d9285902ad31d516652534a13d58d1dae",
    "A": "75a2aa0ceaa95539ad903d6441d93afcd3494334839eb99371264d12be2a6bcd",
}


def test_pinned_ids_cover_every_generated_name():
    assert set(PINNED_PACKINGS) == set(constructible_ids()) | {"TRI", "A"}


@pytest.mark.parametrize("name", sorted(PINNED_PACKINGS))
def test_packing_file_is_byte_identical(name):
    packing = generate_named(name, 6 if name == "O103" else 4)
    assert packing.n_spheres > 0
    assert hashlib.sha256(encode_packing(packing)).hexdigest() == PINNED_PACKINGS[name]


def _golden_packings() -> dict:
    """The benchmark's golden sha256 of every item that writes a generated
    or constructed packing file, by its command line."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    workloads = json.loads(golden.read_text(encoding="utf-8"))["workloads"]
    return {
        item: record["sha256"]
        for workload in workloads.values()
        for item, record in workload["items"].items()
        if item.split()[0] in ("gen", "construct-diagonal")
    }


GOLDEN_PACKINGS = _golden_packings()


def test_golden_packings_cover_the_benchmark():
    commands = [item.split()[0] for item in GOLDEN_PACKINGS]
    assert (commands.count("gen"), commands.count("construct-diagonal")) == (29, 5)


@pytest.mark.parametrize("item", sorted(GOLDEN_PACKINGS))
def test_benchmark_packing_is_byte_identical(item):
    # the command line's own arguments, so defaults such as the margin match
    args = build_parser().parse_args(item.split())
    if args.command == "gen":
        packing = generate_named(args.name, args.window, margin=args.margin)
    else:
        packing = diagonal_construction(args.d, args.depth).packing
    assert hashlib.sha256(encode_packing(packing)).hexdigest() == GOLDEN_PACKINGS[item]


# sha256 of the written verify report with timing_seconds set to 0, recorded
# with the standard JSON encoder before reports were streamed
PINNED_REPORTS = {
    "TRI-L40-audit": "f749cdb6bf361e96f505e593f6b805a809bb7cecc58195b927dd542375f701bc",
    "diagonal-d3-depth4-audit": "a1ee562beee7628fcf46e82018ca3176c59c6ed01037418fe5b1789092dbd1c4",
    "diagonal-d4-depth2-audit": "83a0fc3e2ba89bea4c46819f965db3e7b7fd25df075827af79cb9a2102d57085",
    "P1-L12": "906cd0800e720e72ecfd569d5e4ea33a7c1ab070e3e983a4a518667d005acdac",
}

REPORT_INPUTS = {
    "TRI-L40-audit": (lambda: generate_named("TRI", 40), True),
    "diagonal-d3-depth4-audit": (lambda: diagonal_construction(3, 4).packing, True),
    "diagonal-d4-depth2-audit": (lambda: diagonal_construction(4, 2).packing, True),
    "P1-L12": (lambda: generate_named("P1", 12), False),
}


@pytest.fixture(scope="module")
def untimed_report():
    """Report by REPORT_INPUTS key with timing_seconds 0, built once per key."""
    built = {}

    def report(key):
        if key not in built:
            make, full_audit = REPORT_INPUTS[key]
            built[key] = {**build_verify_report(make(), full_audit), "timing_seconds": 0}
        return built[key]

    return report


@pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
def test_report_file_is_byte_identical(key, untimed_report, tmp_path):
    path = tmp_path / "report.json"
    write_report(untimed_report(key), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_REPORTS[key]


def test_report_is_streamed(untimed_report, tmp_path):
    # 124,716 witnesses, an 8.8 MB file; the whole text in one string would
    # allocate about that much
    report = untimed_report("TRI-L40-audit")
    with traced_peak() as peak:
        write_report(report, tmp_path / "report.json")
    assert peak[0] < 4_000_000
