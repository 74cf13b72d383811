import math
from fractions import Fraction

import numpy as np
import pytest

from sepack import (
    Polyomino,
    box_packing,
    build_contact_graph,
    c2_formula,
    cd_upper_bound,
    certify_total_separability,
    choose_box,
    contains_triangle,
    polyomino_oracle,
    quasi_square_packing,
)
from sepack.contact_numbers import _floor_root, enumerate_fixed_polyforms
from sepack.core import POINT_BUDGET
from sepack.errors import EnumerationLimitError, SizeLimitError

from conftest import (
    brute_force_cd_upper_bound,
    brute_force_perimeter,
    brute_force_polyforms,
    brute_force_shared_faces,
)

# fixed polyominoes (OEIS A001168) and fixed polycubes (A001931), n = 1, 2, ...
A001168 = [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]
A001931 = [1, 3, 15, 86, 534, 3481, 23502, 162913]


class TestC2Formula:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 1), (3, 2), (4, 4), (5, 5), (9, 12), (10, 13), (400, 760)],
    )
    def test_values(self, n, expected):
        assert c2_formula(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            c2_formula(0)

    def test_exact_at_perfect_squares(self):
        # float sqrt can round a perfect square down; the integer path must not
        for k in list(range(1, 200)) + [10**6, 10**7 + 3]:
            n = k * k
            assert c2_formula(n) == 2 * (n - k), n

    def test_matches_float_formula_off_squares(self):
        for n in range(2, 5000):
            if math.isqrt(n) ** 2 != n:
                assert c2_formula(n) == math.floor(2 * (n - math.sqrt(n))), n


class TestCdUpperBound:
    @pytest.mark.parametrize(
        "n,d,expected",
        [(8, 3, 12), (27, 3, 54), (5, 3, 6), (4, 2, 4), (256, 4, 768), (12, 3, 20)],
    )
    def test_values(self, n, d, expected):
        assert cd_upper_bound(n, d) == expected

    def test_equals_c2_in_the_plane(self):
        for n in range(1, 500):
            assert cd_upper_bound(n, 2) == c2_formula(n), n

    def test_exact_at_perfect_powers(self):
        for d in (2, 3, 4):
            for k in range(1, 12):
                n = k**d
                assert cd_upper_bound(n, d) == d * (n - k ** (d - 1)), (n, d)

    def test_boundary_edge_count_of_the_cube(self):
        # 2^(d-1) * d edges on the boundary of the d-cube
        for d in (2, 3, 4, 5):
            assert cd_upper_bound(2**d, d) == 2 ** (d - 1) * d

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cd_upper_bound(0, 3)
        with pytest.raises(ValueError):
            cd_upper_bound(5, 1)

    def test_matches_scan_up_to_400(self):
        for d in (2, 3, 4):
            for n in range(1, 401):
                assert cd_upper_bound(n, d) == brute_force_cd_upper_bound(n, d), (n, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_defining_inequalities_at_huge_n(self, d):
        # m is the largest integer with d^d n^(d-1) <= (d n - m)^d
        n = 10**30 + 7
        m = cd_upper_bound(n, d)
        power = d**d * n ** (d - 1)
        assert (d * n - m - 1) ** d < power <= (d * n - m) ** d

    def test_floor_root_is_exact(self):
        for d in (2, 3, 4, 7):
            for k in [1, 2, 3, 10, 99, 10**20 + 3]:
                for n in (k**d - 1, k**d, k**d + 1):
                    r = _floor_root(n, d)
                    assert r**d <= n < (r + 1) ** d, (n, d)
        assert _floor_root(0, 3) == 0


class TestQuasiSquarePacking:
    @pytest.mark.parametrize("n,expected", [(2, 1), (5, 5), (9, 12)])
    def test_contact_counts(self, n, expected):
        omino, packing = quasi_square_packing(n)
        assert omino.shared_faces == expected
        g = build_contact_graph(packing)
        assert g.edge_count == expected

    def test_achieves_formula_up_to_120(self):
        for n in range(1, 121):
            omino, packing = quasi_square_packing(n)
            assert omino.area == n
            assert omino.shared_faces == c2_formula(n), n
            assert contains_triangle(build_contact_graph(packing)) is None
            assert certify_total_separability(packing).status == "WindowCertified"


class TestBoxPacking:
    def test_2x2x2(self):
        omino, packing = box_packing(8, 3)
        assert omino.shared_faces == 12
        assert build_contact_graph(packing).edge_count == 12

    def test_2x2x3(self):
        # (a-1)bc + a(b-1)c + ab(c-1) = 6 + 6 + 8 = 20 for a full 2x2x3 box
        omino, packing = box_packing(12, 3)
        assert omino.shared_faces == 20
        assert cd_upper_bound(12, 3) == 20

    def test_4_cells_in_plane(self):
        omino, _ = box_packing(4, 2)
        assert omino.shared_faces == 4 == c2_formula(4)

    def test_box_spec_minimal(self):
        spec = choose_box(12, 3)
        assert sorted(spec.sides) == [2, 2, 3]
        assert spec.remainder == 0
        spec = choose_box(5, 2)
        assert math.prod(spec.sides) >= 5

    def test_bound_never_exceeded_on_random_inputs(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 501))
            omino, _ = box_packing(n, d)
            assert omino.shared_faces <= cd_upper_bound(n, d), (n, d)

    def test_lifted_boxes_are_separable(self):
        for n, d in [(12, 3), (37, 3), (20, 4)]:
            _, packing = box_packing(n, d)
            assert certify_total_separability(packing).status == "WindowCertified"


class TestSizeLimit:
    def test_constructions_refuse_more_cells_than_the_budget(self):
        with pytest.raises(SizeLimitError):
            quasi_square_packing(POINT_BUDGET + 1)
        with pytest.raises(SizeLimitError):
            box_packing(POINT_BUDGET + 1, 3)


class TestFacetIdentity:
    def test_holds_for_constructed_polyominoes(self, rng):
        ominoes = [quasi_square_packing(n)[0] for n in range(1, 40)]
        ominoes += [box_packing(n, d)[0] for n in (3, 9, 20) for d in (3, 4)]
        # random edge-connected blobs as well
        for _ in range(20):
            d = int(rng.integers(2, 4))
            cells = {tuple([0] * d)}
            while len(cells) < 12:
                base = list(cells)[int(rng.integers(0, len(cells)))]
                axis = int(rng.integers(0, d))
                sign = int(rng.choice([-1, 1]))
                new = list(base)
                new[axis] += sign
                cells.add(tuple(new))
            ominoes.append(Polyomino(d, frozenset(cells)))
        for omino in ominoes:
            d, n = omino.dimension, omino.area
            assert 2 * d * n == omino.perimeter + 2 * omino.shared_faces


class TestFacetCountsMatchSetLookup:
    @staticmethod
    def check(omino, cells):
        d = omino.dimension
        assert omino.cells.dtype == np.int64
        assert omino.cells.tolist() == sorted(map(list, cells))
        assert omino.area == len(cells)
        assert omino.shared_faces == brute_force_shared_faces(cells, d)
        assert omino.perimeter == brute_force_perimeter(cells, d)

    def test_quasi_squares(self):
        for n in range(1, 121):
            omino, _ = quasi_square_packing(n)
            self.check(omino, set(map(tuple, omino.cells.tolist())))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_boxes(self, d):
        for n in range(1, 101):
            omino, _ = box_packing(n, d)
            cells = set(map(tuple, omino.cells.tolist()))
            # the first n cells of the box in lexicographic order
            sides = choose_box(n, d).sides
            assert omino.cells.tolist() == [list(np.unravel_index(i, sides)) for i in range(n)]
            self.check(omino, cells)

    def test_random_blobs(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            # scattered cells with repeats, negative coordinates and gaps
            rows = rng.integers(-4, 4, size=(int(rng.integers(1, 60)), d))
            cells = set(map(tuple, rows.tolist()))
            self.check(Polyomino(d, rows), cells)
            self.check(Polyomino(d, frozenset(cells)), cells)

    def test_empty_and_single_cell(self):
        for d in (2, 3, 5):
            for cells in (set(), {tuple(range(-1, d - 1))}):
                self.check(Polyomino(d, frozenset(cells)), cells)
        assert Polyomino(3, frozenset()).shared_faces == 0
        assert Polyomino(3, frozenset({(5, -2, 7)})).perimeter == 6

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Polyomino(3, frozenset({(0, 0)}))


class TestPolyominoOracle:
    def test_single_cell(self):
        assert polyomino_oracle(1, 2) == 0

    def test_square_tetromino_wins(self):
        assert polyomino_oracle(4, 2) == 4

    def test_fixed_shape_counts_match_literature(self):
        # fixed polyominoes: 1, 2, 6, 19, 63; fixed polycubes: 1, 3, 15, 86
        assert [len(enumerate_fixed_polyforms(n, 2)) for n in (1, 2, 3, 4, 5)] == [
            1, 2, 6, 19, 63,
        ]
        assert [len(enumerate_fixed_polyforms(n, 3)) for n in (1, 2, 3, 4)] == [
            1, 3, 15, 86,
        ]

    def test_matches_formula_small_n(self):
        for n in range(1, 8):
            assert polyomino_oracle(n, 2) == c2_formula(n), n

    def test_polycube_oracle_small(self):
        assert polyomino_oracle(4, 3) == 4
        assert polyomino_oracle(7, 3) == 9  # 2x2x2 minus a corner

    def test_enumeration_limit_errors(self):
        with pytest.raises(EnumerationLimitError, match="n <= 10"):
            polyomino_oracle(11, 2)
        with pytest.raises(EnumerationLimitError, match="n <= 8"):
            polyomino_oracle(9, 3)
        with pytest.raises(EnumerationLimitError):
            polyomino_oracle(2, 4)


class TestRedelmeierEnumeration:
    @pytest.mark.parametrize(
        "n,d",
        [(n, 2) for n in range(1, 9)] + [(n, 3) for n in range(1, 7)] + [(n, 4) for n in range(1, 5)],
    )
    def test_shared_counts_match_growth_and_dedup(self, n, d):
        got = sorted(enumerate_fixed_polyforms(n, d))
        assert got == sorted(brute_force_polyforms(n, d).values())

    def test_complete_polyomino_counts(self):
        assert [len(enumerate_fixed_polyforms(n, 2)) for n in range(1, 11)] == A001168

    def test_complete_polycube_counts(self):
        assert [len(enumerate_fixed_polyforms(n, 3)) for n in range(1, 9)] == A001931

    def test_planar_oracle_is_harary_harborth(self):
        # extremal animals: 2n - ceil(2 sqrt(n)) shared edges at most
        for n in range(1, 11):
            root = math.isqrt(4 * n)
            ceil_2_sqrt_n = root if root * root == 4 * n else root + 1
            assert polyomino_oracle(n, 2) == 2 * n - ceil_2_sqrt_n, n

    def test_polycube_oracle_within_bound(self):
        for n in range(1, 9):
            assert polyomino_oracle(n, 3) <= cd_upper_bound(n, 3), n

    def test_rejects_empty_polyform(self):
        with pytest.raises(ValueError):
            enumerate_fixed_polyforms(0, 2)


class TestPolycubeOracleAtCube:
    def test_octacube_max_is_the_cube(self):
        # exhaustive over all 162,913 fixed octacubes; the 2x2x2 box wins
        assert polyomino_oracle(8, 3) == 12 == cd_upper_bound(8, 3)
