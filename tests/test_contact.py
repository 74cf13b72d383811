import math

import numpy as np
import pytest

from sepack import (
    ContactGraph,
    Packing,
    RegularityVerdict,
    Window,
    build_contact_graph,
    contains_triangle,
    generate_named,
    is_k_regular,
    min_contact_distance,
)
from sepack import core
from sepack.errors import InvalidPackingError

from conftest import (
    brute_force_edges,
    brute_force_first_overlap,
    brute_force_first_triangle,
    random_rotation,
    transformed,
)

SQRT3 = math.sqrt(3.0)


def grid_packing(nx, ny):
    return Packing([[2.0 * i, 2.0 * j] for i in range(nx) for j in range(ny)])


class TestBuildContactGraph:
    def test_square(self):
        g = build_contact_graph(grid_packing(2, 2))
        assert g.edge_count == 4

    def test_3x3_grid(self):
        # direct count: 2 * 3 * (3 - 1) = 12 grid edges
        g = build_contact_graph(grid_packing(3, 3))
        assert g.edge_count == 12

    def test_three_tangent_circles(self):
        p = Packing([[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]])
        g = build_contact_graph(p)
        assert g.edge_count == 3

    def test_rejects_invalid_packing(self):
        with pytest.raises(InvalidPackingError):
            build_contact_graph(Packing([[0.0, 0.0], [1.0, 0.0]]))

    def test_empty_and_singleton(self):
        assert build_contact_graph(Packing(np.zeros((0, 2)))).edge_count == 0
        assert build_contact_graph(Packing([[0.0, 0.0]])).edge_count == 0

    def test_an_empty_edge_list_is_a_graph_without_edges(self):
        g = ContactGraph(3, [])
        assert g.edges.shape == (0, 2)
        assert g.degrees.tolist() == [0, 0, 0]

    def test_min_contact_distance_without_contact_is_nan(self):
        p = Packing([[0.0, 0.0], [3.0, 0.0]])
        assert math.isnan(min_contact_distance(build_contact_graph(p), p))

    def test_matches_brute_force_on_catalog_windows(self):
        for name, l in [("P3", 8), ("K6", 8), ("J16", 5)]:
            p = generate_named(name, l)
            g = build_contact_graph(p)
            got = {(int(i), int(j)) for i, j in g.edges}
            assert got == brute_force_edges(p.centers), name


class TestOverlapVerdictFromContactQuery:
    """build_contact_graph rejects an invalid packing from its own pair
    query, with the first overlapping pair of a double loop and its
    distance."""

    def test_matches_the_first_overlap_on_random_overlaps(self, rng):
        for trial in range(40):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 40))
            base = Packing(rng.uniform(-6.0, 6.0, size=(n, d)))
            p = transformed(base, random_rotation(d, rng), rng.uniform(-1e3, 1e3, size=d))
            overlap = brute_force_first_overlap(p.centers)
            if overlap is None:
                build_contact_graph(p)
                continue
            with pytest.raises(InvalidPackingError) as caught:
                build_contact_graph(p)
            pair, distance = caught.value.pair, caught.value.distance
            assert pair == overlap[0], trial
            assert distance == pytest.approx(overlap[1], rel=1e-12), trial
            assert str(caught.value) == f"packing is invalid: pair {pair} at distance {distance}"

    def test_one_overlap_in_a_catalog_window(self, rng):
        p = generate_named("K6", 8)
        centers = p.centers.copy()
        centers[5] = centers[4] + 0.5 * (centers[6] - centers[4])
        for _ in range(3):
            q = transformed(Packing(centers), random_rotation(2, rng), rng.uniform(-50, 50, size=2))
            with pytest.raises(InvalidPackingError) as caught:
                build_contact_graph(q)
            pair, distance = brute_force_first_overlap(q.centers)
            assert caught.value.pair == pair
            assert caught.value.distance == pytest.approx(distance, rel=1e-12)

    def test_one_kdtree_per_graph(self, monkeypatch):
        p = generate_named("P3", 8)
        builds = []
        tree_class = core.cKDTree

        def counting(*args, **kwargs):
            builds.append(1)
            return tree_class(*args, **kwargs)

        monkeypatch.setattr(core, "cKDTree", counting)
        build_contact_graph(p)
        assert len(builds) == 1


class TestIsKRegular:
    def test_p1_is_4_regular(self):
        p = generate_named("P1", 12)
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 4).is_regular

    def test_k6_is_3_regular(self):
        p = generate_named("K6", 12)
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 3).is_regular

    def test_p1_is_not_3_regular(self):
        p = generate_named("P1", 12)
        g = build_contact_graph(p)
        verdict = is_k_regular(g, p, 3)
        assert verdict.status == "irregular"
        assert verdict.degree == 4

    def test_empty_interior_inconclusive(self):
        p = Packing(
            [[0.0, 0.0], [2.0, 0.0]], Window([-1.0, -1.0], [3.0, 1.0], margin=50.0)
        )
        verdict = is_k_regular(build_contact_graph(p), p, 1)
        assert verdict.status == "inconclusive"
        assert not verdict.is_regular

    def test_explicit_indices_name_the_first_vertex_off(self):
        # a path 0 - 1 - 2 - 3: degrees 1, 2, 2, 1
        p = Packing([[2.0 * i, 0.0] for i in range(4)])
        g = build_contact_graph(p)
        assert is_k_regular(g, p, 2, [1, 2]) == RegularityVerdict("regular", 2)
        assert is_k_regular(g, p, 2, [1, 3, 0]) == RegularityVerdict("irregular", 2, 3, 1)
        assert is_k_regular(g, p, 1, [0, 2, 3]) == RegularityVerdict("irregular", 1, 2, 2)

    def test_k_is_inferred_from_the_first_judged_vertex(self):
        p = Packing([[2.0 * i, 0.0] for i in range(4)])
        g = build_contact_graph(p)
        assert is_k_regular(g, p, indices=[3, 0]) == RegularityVerdict("regular", 1)
        assert is_k_regular(g, p, indices=[2, 1, 0]) == RegularityVerdict("irregular", 2, 0, 1)
        assert is_k_regular(g, p, indices=[]) == RegularityVerdict("inconclusive", None)

    def test_default_judges_the_interior_with_inferred_k(self):
        p = generate_named("P1", 12)
        assert is_k_regular(build_contact_graph(p), p) == RegularityVerdict("regular", 4)


class TestContainsTriangle:
    def test_three_tangent_circles(self):
        p = Packing([[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]])
        assert contains_triangle(build_contact_graph(p)) == (0, 1, 2)

    def test_square_grid_triangle_free(self):
        assert contains_triangle(build_contact_graph(grid_packing(4, 4))) is None

    def test_triangular_lattice_has_triangle(self):
        p = generate_named("TRI", 8)
        triple = contains_triangle(build_contact_graph(p))
        assert triple is not None
        i, j, k = triple
        for a, b in [(i, j), (i, k), (j, k)]:
            assert np.linalg.norm(p.centers[a] - p.centers[b]) == pytest.approx(2.0)

    def test_catalog_windows_triangle_free(self):
        for name in ("P1", "P3", "K6", "K9"):
            p = generate_named(name, 10)
            assert contains_triangle(build_contact_graph(p)) is None, name


def assert_first_triangle_matches_oracle(g):
    expected = brute_force_first_triangle(g.vertex_count, g.edges)
    assert contains_triangle(g) == expected
    return expected


class TestContainsTriangleAgainstOracle:
    """The wedge-join triangle search against a triple loop."""

    def test_triangular_lattice(self):
        g = build_contact_graph(generate_named("TRI", 10))
        assert assert_first_triangle_matches_oracle(g) is not None

    def test_triangle_free_catalog_windows(self):
        for name, l in [("P1", 6), ("P3", 6), ("K6", 6), ("K9", 6), ("J1", 3), ("J16", 3), ("O1", 2)]:
            g = build_contact_graph(generate_named(name, l))
            assert g.edge_count > 0
            assert assert_first_triangle_matches_oracle(g) is None, name

    def test_thinned_triangular_packings_away_from_vertex_0(self, rng):
        # random subsets of a rotated triangular window with every
        # neighbour of vertex 0 removed, so no triangle contains vertex 0
        found = 0
        for _ in range(12):
            p = generate_named("TRI", 7)
            q = transformed(p, random_rotation(2, rng), rng.uniform(-5, 5, 2))
            centers = q.centers[rng.random(q.n_spheres) < 0.7]
            near_first = np.linalg.norm(centers - centers[0], axis=1) < 2.5
            near_first[0] = False
            g = build_contact_graph(Packing(centers[~near_first]))
            triangle = assert_first_triangle_matches_oracle(g)
            if triangle is not None:
                assert 0 not in triangle
                found += 1
        assert found >= 6

    def test_random_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
            keep = rng.random(len(pairs)) < rng.uniform(0.02, 0.2)
            assert_first_triangle_matches_oracle(ContactGraph(n, pairs[keep]))

    def test_isolated_high_index_vertices(self, rng):
        # the edges use only the first few vertices; every vertex above them
        # has no edge, so its run of upper neighbours is empty
        found = 0
        for _ in range(40):
            used = int(rng.integers(3, 12))
            pairs = np.array([(i, j) for i in range(used) for j in range(i + 1, used)])
            keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.6)
            n = used + int(rng.integers(1, 500))
            found += assert_first_triangle_matches_oracle(ContactGraph(n, pairs[keep])) is not None
        assert 0 < found < 40

    def test_least_vertex_with_many_upper_neighbours(self, rng):
        # a hub below a crowd of upper neighbours with few edges among them:
        # most of the hub's wedges are open, and the first closed one may lie
        # far along its run
        found = 0
        for _ in range(30):
            n = int(rng.integers(20, 80))
            hub = int(rng.integers(0, 5))
            spokes = [(hub, j) for j in range(hub + 1, n) if rng.random() < 0.8]
            others = [(i, j) for i in range(hub + 1, n) for j in range(i + 1, n)]
            chords = [others[k] for k in np.flatnonzero(rng.random(len(others)) < 0.003)]
            g = ContactGraph(n, np.array(spokes + chords).reshape(-1, 2))
            found += assert_first_triangle_matches_oracle(g) is not None
        assert 0 < found < 30

    def test_fewer_than_three_edges(self, rng):
        for _ in range(30):
            n = int(rng.integers(0, 8))
            pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)]).reshape(-1, 2)
            chosen = pairs[rng.permutation(len(pairs))[: int(rng.integers(0, 3))]]
            assert assert_first_triangle_matches_oracle(ContactGraph(n, chosen)) is None
        assert contains_triangle(ContactGraph(3, [(0, 1), (1, 2)])) is None
        assert contains_triangle(ContactGraph(0, np.zeros((0, 2), dtype=int))) is None
