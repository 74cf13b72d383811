import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sepack import (
    build_contact_graph,
    certify_total_separability,
    contains_triangle,
    diagonal_construction,
    diagonal_spec,
    interior_regularity_check,
    min_contact_distance,
)
from sepack import core
from sepack.diagonal import SPHERE_BUDGET, cube_count_exact
from sepack.errors import SizeLimitError, UnsupportedDimensionError

from conftest import (
    brute_force_min_distance,
    deepest_witness_clearance,
    diagonal_plane_clearance,
    is_cube_spawned,
    spawned_diagonal_cubes,
    spec_window_and_closed_form,
    traced_peak,
    turned_plane_spec_against_k6,
)


class TestGrowth:
    @pytest.mark.parametrize("d,expected", [(2, 20), (3, 72), (4, 272)])
    def test_depth_one_sphere_count(self, d, expected):
        result = diagonal_construction(d, 1)
        assert result.packing.n_spheres == expected == 2**d + 4**d

    def test_depth_zero_is_one_cube(self):
        result = diagonal_construction(2, 0)
        assert result.packing.n_spheres == 4
        g = build_contact_graph(result.packing)
        assert g.edge_count == 4

    def test_cube_set_matches_closed_form(self):
        for d, t in [(2, 3), (3, 2), (4, 2)]:
            result = diagonal_construction(d, t)
            assert result.n_cubes == cube_count_exact(d, t)
            for cube in map(tuple, result.cube_lattice):
                assert is_cube_spawned(cube, t)
            assert result.packing.n_spheres == 2**d * result.n_cubes

    def test_merge_free_bound_exact_at_depth_one(self):
        for d in (2, 3, 4):
            assert cube_count_exact(d, 1) == 1 + 2**d

    def test_budget_enforced(self):
        # 16,561 cubes of 16 spheres: rejected before anything is allocated
        assert cube_count_exact(4, 9) * 16 == 264_976 > SPHERE_BUDGET
        with traced_peak() as peak, pytest.raises(SizeLimitError):
            diagonal_construction(4, 9)
        assert peak[0] < 1_000_000

    def test_rejects_d1(self):
        with pytest.raises(UnsupportedDimensionError):
            diagonal_construction(1, 1)
        with pytest.raises(UnsupportedDimensionError):
            diagonal_spec(1)


class TestClosedFormMatchesSpawning:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cubes_and_saturation_at_every_depth(self, d):
        top = 0
        while cube_count_exact(d, top + 1) * 2**d <= SPHERE_BUDGET:
            top += 1
        # spawn once to the deepest depth under the budget: the cubes at
        # depth t are those of generation <= t, and a sphere is saturated
        # at depth t when its partner cube's generation is <= t
        spawned = spawned_diagonal_cubes(d, top)
        cubes = np.array(list(spawned), dtype=np.int64)
        generation = np.array(list(spawned.values()))
        signs = np.array(list(itertools.product((-1, 1), repeat=d)))
        sphere_cube = np.repeat(cubes, len(signs), axis=0)
        corner = np.tile(signs, (len(cubes), 1))
        sphere_generation = np.repeat(generation, len(signs))
        partner_generation = np.array(
            [spawned.get(tuple(k), top + 1) for k in (sphere_cube + corner).tolist()]
        )
        centers = (2.0 + 2.0 / math.sqrt(d)) * sphere_cube + corner
        # filtering keeps lexicographic order, so sort once at the top depth
        by_cube = np.lexsort(cubes.T[::-1])
        by_center = np.lexsort(centers.T[::-1])
        for t in range(top + 1):
            result = diagonal_construction(d, t)
            np.testing.assert_array_equal(
                result.cube_lattice, cubes[by_cube[generation[by_cube] <= t]]
            )
            spheres = by_center[sphere_generation[by_center] <= t]
            np.testing.assert_array_equal(result.packing.centers, centers[spheres])
            np.testing.assert_array_equal(result.saturated, partner_generation[spheres] <= t)


class TestRegularityAndValidity:
    @pytest.mark.parametrize("d,t", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_saturated_degree_is_d_plus_1(self, d, t):
        result = diagonal_construction(d, t)
        verdict = interior_regularity_check(result)
        assert verdict.status == "regular"
        assert verdict.k == d + 1

    def test_depth_zero_inconclusive(self):
        verdict = interior_regularity_check(diagonal_construction(3, 0))
        assert verdict.status == "inconclusive"

    def test_one_contact_graph_serves_every_check(self, monkeypatch):
        # regularity, the closest pair and certification each built their
        # own KD-tree before (3 per packing); one prebuilt graph serves all
        result = diagonal_construction(3, 2)
        builds = []
        tree_class = core.cKDTree
        with monkeypatch.context() as patch:
            patch.setattr(core, "cKDTree", lambda *a, **k: builds.append(1) or tree_class(*a, **k))
            graph = build_contact_graph(result.packing)
            verdict = interior_regularity_check(result, graph)
            closest = min_contact_distance(graph, result.packing)
            report = certify_total_separability(result.packing, full_audit=True, graph=graph)
        assert len(builds) == 1
        assert verdict == interior_regularity_check(result)
        # the oracle's per-pair norm may round 1 ulp apart from the graph's
        oracle = brute_force_min_distance(result.packing.centers)
        assert closest == pytest.approx(oracle, abs=1e-12)
        assert report == certify_total_separability(result.packing, full_audit=True)

    @pytest.mark.parametrize("d,t", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_no_overlap(self, d, t):
        result = diagonal_construction(d, t)
        assert build_contact_graph(result.packing).edge_count > 0  # raises on an overlap

    @pytest.mark.parametrize("d,t", [(2, 2), (3, 2), (4, 1)])
    def test_triangle_free(self, d, t):
        result = diagonal_construction(d, t)
        assert contains_triangle(build_contact_graph(result.packing)) is None


class TestSeparabilityByDimension:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_plane_construction_certifies(self, t):
        result = diagonal_construction(2, t)
        assert certify_total_separability(result.packing).status == "WindowCertified"

    def test_d3_has_genuine_violations(self):
        # the diagonal-contact planes cut into sibling-branch spheres once
        # d >= 3: at depth 1 exactly 8 of 116 contacts are dirty, with the
        # deepest incursion reaching the closed-form clearance 1/3 instead
        # of the radius 1
        result = diagonal_construction(3, 1)
        report = certify_total_separability(result.packing, full_audit=True)
        assert report.status == "ViolationFound"
        assert report.sep == Fraction(27, 29)
        assert report.total_edges == 116
        worst = deepest_witness_clearance(result.packing, report.violations)
        assert worst == pytest.approx(diagonal_plane_clearance(3), abs=1e-9)

    def test_d4_has_genuine_violations(self):
        # at d = 4 a sibling-branch sphere centre lies on a diagonal plane
        result = diagonal_construction(4, 1)
        report = certify_total_separability(result.packing, full_audit=True)
        assert report.status == "ViolationFound"
        assert report.sep == Fraction(34, 35)
        worst = deepest_witness_clearance(result.packing, report.violations)
        assert worst == pytest.approx(diagonal_plane_clearance(4), abs=1e-9)

    @pytest.mark.parametrize(
        "d,clearance", [(2, 1.0), (3, 1.0 / 3.0), (4, 0.0), (5, 0.2)]
    )
    def test_closed_form_clearance(self, d, clearance):
        # min over j of |2(d-2-j)/sqrt(d) + (d-4)/d|, the sibling cubes
        # with s.s' = d - 2; d = 2 grazes at exactly the radius
        assert diagonal_plane_clearance(d) == pytest.approx(clearance, abs=1e-12)


class TestSpec:
    def test_plane_spec_is_k6_turned(self):
        # turned by 45 degrees, the d = 2 spec has K6's motif, and its
        # lattice is K6's times an integer matrix of determinant -1
        motif, k6_motif, u = turned_plane_spec_against_k6(diagonal_spec(2))
        np.testing.assert_array_equal(motif, k6_motif)
        assert np.abs(u - np.rint(u)).max() < 1e-12
        np.testing.assert_array_equal(np.rint(u), [[0, 1], [1, 1]])

    @pytest.mark.parametrize(
        "d,depth", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    )
    def test_closed_form_is_a_window_of_the_spec(self, d, depth):
        window, closed, match = spec_window_and_closed_form(d, depth)
        np.testing.assert_array_equal(np.sort(match), np.arange(len(closed)))
        np.testing.assert_array_max_ulp(window, closed[match], maxulp=32)
        if d == 4:  # the step 3 is exact
            np.testing.assert_array_equal(window, closed)
