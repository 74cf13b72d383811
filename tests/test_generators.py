import math
import warnings

import numpy as np
import pytest

from sepack import (
    OrbitSpec,
    Packing,
    Window,
    build_contact_graph,
    check_entry_invariants,
    contact_count,
    generate_apeirogon,
    generate_named,
    generate_triangular,
    interior_indices,
    is_k_regular,
    load_catalog,
    min_pairwise_distance,
    orbit_generate,
    product_packing,
    signed_permutation_orbit,
    validate_packing,
)
from sepack.errors import (
    DegenerateSeedWarning,
    InvalidPackingError,
    MalformedInputError,
    NormalizationRequiredError,
    UnknownCatalogIdError,
    UnsupportedConstructionError,
)

from conftest import brute_force_edges

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


class TestApeirogon:
    def test_window_six(self):
        p = generate_apeirogon(6)
        assert p.centers[:, 0].tolist() == [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0]

    def test_interior_degree_two(self):
        p = generate_apeirogon(6)
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 2).is_regular

    def test_product_with_p1_gives_cubic_slab(self):
        # P1 x apeirogon on matched windows is exactly the cubic window
        prod = product_packing(generate_named("P1", 6), generate_apeirogon(6))
        cubic = generate_named("J1", 6)
        assert np.array_equal(prod.centers, cubic.centers)


class TestMotifGeometry:
    def test_k6_motif_neighbor_split(self):
        # each diamond vertex: exactly 2 same-motif and 1 cross-motif contact
        p = generate_named("K6", 12)
        g = build_contact_graph(p)
        t = 2.0 + 2.0 * SQRT2
        motif_of = [tuple(np.round(c / t)) for c in p.centers]
        adj = g.adjacency_sets()
        for i in interior_indices(p):
            same = sum(1 for j in adj[i] if motif_of[j] == motif_of[i])
            cross = sum(1 for j in adj[i] if motif_of[j] != motif_of[i])
            assert (same, cross) == (2, 1)

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
        adj = g.adjacency_sets()
        for i in interior_indices(p)[:20]:
            nbrs = sorted(adj[i])
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
        check = check_entry_invariants(p, entry)
        assert check.ok, check

    def test_invariant_suite_rejects_overlap(self):
        # a sphere centred on a contact point of the K6 window overlaps two
        p = generate_named("K6", 8)
        g = build_contact_graph(p)
        i, j = g.edges[0]
        midpoint = (p.centers[i] + p.centers[j]) / 2.0
        bad = Packing(np.vstack([p.centers, midpoint]), p.window, 1.0, "K6")
        with pytest.raises(InvalidPackingError):
            check_entry_invariants(bad, load_catalog()["K6"])

    def test_window_object_accepted(self):
        w = Window([-8.0, -8.0], [8.0, 8.0], margin=3.0)
        p = generate_named("P1", w)
        assert p.n_spheres == 81

    def test_deterministic(self):
        a = generate_named("K9", 10)
        b = generate_named("K9", 10)
        assert np.array_equal(a.centers, b.centers)

    def test_triangular_reference_family(self):
        p = generate_triangular(8)
        assert validate_packing(p).ok
        assert min_pairwise_distance(p) == pytest.approx(2.0, abs=1e-9)


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
        ep = contact_count(build_contact_graph(p))
        eq = contact_count(build_contact_graph(q))
        prod = product_packing(p, q)
        eprod = contact_count(build_contact_graph(prod))
        assert eprod == p.n_spheres * eq + q.n_spheres * ep

    def test_matches_brute_force_contacts(self):
        p = generate_named("P1", 2)
        q = generate_apeirogon(2)
        prod = product_packing(p, q)
        got = {(int(i), int(j)) for i, j in build_contact_graph(prod).edges}
        assert got == brute_force_edges(prod.centers)

    def test_rejects_non_normalized(self):
        bad = Packing([[0.0, 0.0], [3.0, 0.0]])
        with pytest.raises(NormalizationRequiredError):
            product_packing(bad, generate_apeirogon(4))


class TestOrbitGeneration:
    def test_orbit_of_seed_012_matches_bitruncated_motif(self):
        spec = OrbitSpec(
            3,
            np.array([0.0, 1.0, 2.0]),
            4.0 * np.eye(3),
            np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
        )
        with pytest.warns(DegenerateSeedWarning):
            orb = orbit_generate(spec, Window.cube(8, 3))
        motif = generate_named("J16", 8)
        assert orb.n_spheres == motif.n_spheres
        assert np.allclose(orb.centers, motif.centers, atol=1e-9)

    def test_full_orbit_size(self):
        orbit = signed_permutation_orbit(np.array([1.0, 1.0 + SQRT2, 1.0 + 2 * SQRT2]))
        assert len(orbit) == 48
        collapsed = signed_permutation_orbit(np.array([0.0, 1.0, 2.0]))
        assert len(collapsed) == 24

    def test_axis_seed_lands_on_square_grid(self):
        # orbit of (1,0) over 4Z^2: disjoint 2x2 blocks whose points all lie
        # on one 45-degree-rotated square grid of spacing 2
        spec = OrbitSpec(2, np.array([1.0, 0.0]), 4.0 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeedWarning)
            p = orbit_generate(spec, Window.cube(10, 2))
        assert min_pairwise_distance(p) == pytest.approx(2.0, abs=1e-9)
        rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2
        uv = p.centers @ rot.T
        assert np.allclose(uv, np.round(uv), atol=1e-9)
        assert np.all(np.round(uv).astype(int) % 2 == 1)

    def test_axis_seed_on_2z2_is_p1_congruent(self):
        # with the denser lattice 2Z^2 the same orbit closes into the full
        # rotated square grid: 4-regular, matching P1's invariants
        spec = OrbitSpec(2, np.array([1.0, 0.0]), 2.0 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeedWarning)
            p = orbit_generate(spec, Window.cube(10, 2))
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 4).is_regular

    def test_j20_candidate_accepted_by_suite(self):
        entry = load_catalog()["J20"]
        spec = OrbitSpec(3, entry.seed, entry.period * np.eye(3))
        p = orbit_generate(spec, Window.cube(7, 3), label="J20")
        assert check_entry_invariants(p, entry).ok

    def test_rejects_zero_seed(self):
        with pytest.raises(MalformedInputError):
            OrbitSpec(2, np.zeros(2), np.eye(2))

    def test_rejects_singular_lattice(self):
        with pytest.raises(MalformedInputError):
            OrbitSpec(2, np.array([1.0, 0.0]), np.array([[1.0, 0.0], [2.0, 0.0]]))
