import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepack import (
    Packing,
    build_contact_graph,
    certify_total_separability,
    constructible_ids,
    contains_triangle,
    diagonal_construction,
    generate_named,
    generate_triangular,
    load_catalog,
    sep_measure_sequence,
)
from sepack import separability
from sepack.separability import VIOLATION_FOUND, WINDOW_CERTIFIED

from conftest import (
    brute_force_clean_edges,
    brute_force_witnesses,
    random_rotation,
    transformed,
)

SQRT3 = math.sqrt(3.0)

THREE_TANGENT = [[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]]
# one clean contact ((2,0)-(4,0)) out of four; worked out line by line in
# test_mixed_four_circles
MIXED_FOUR = [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [1.0, SQRT3]]


class TestSeparabilityMeasure:
    def test_square_grid_fully_separable(self):
        p = Packing([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        report = certify_total_separability(p)
        assert report.sep == Fraction(1)
        assert report.status == WINDOW_CERTIFIED

    def test_three_tangent_circles_inseparable(self):
        report = certify_total_separability(Packing(THREE_TANGENT))
        assert report.sep == Fraction(0)
        assert report.status == VIOLATION_FOUND

    def test_mixed_four_circles(self):
        # contacts: (0,0)-(2,0), (2,0)-(4,0), (0,0)-(1,s3), (2,0)-(1,s3).
        # tangent lines: x=1 passes through (1,s3); x+s3*y=2 passes through
        # (2,0); -x+s3*y=0 passes through (0,0); only x=3 clears everything
        report = certify_total_separability(Packing(MIXED_FOUR))
        assert report.total_edges == 4
        assert report.sep == Fraction(1, 4)

    def test_matches_brute_force(self):
        for pts in (THREE_TANGENT, MIXED_FOUR):
            clean, total = brute_force_clean_edges(pts)
            report = certify_total_separability(Packing(pts))
            assert (report.clean_edges, report.total_edges) == (clean, total)

    def test_no_edges_status(self):
        # an empty window is certified with sep 1, as a lone sphere is
        report = certify_total_separability(Packing(np.zeros((0, 2))))
        assert report.status == WINDOW_CERTIFIED
        assert (report.total_edges, report.sep) == (0, Fraction(1))
        assert report.violations.shape == (0, 3)

    def test_full_audit_lists_every_offender(self):
        brief = certify_total_separability(Packing(THREE_TANGENT))
        full = certify_total_separability(Packing(THREE_TANGENT), full_audit=True)
        assert len(brief.violations) == 3  # one witness per dirty edge
        assert len(full.violations) >= len(brief.violations)

    def test_isometry_invariance(self, rng):
        p = Packing(MIXED_FOUR)
        for _ in range(5):
            q = transformed(p, random_rotation(2, rng), rng.uniform(-4, 4, 2))
            report = certify_total_separability(q)
            assert report.sep == Fraction(1, 4)
            assert report.status == VIOLATION_FOUND


class TestCertifyTotalSeparability:
    def test_k9_window_certified(self):
        assert certify_total_separability(generate_named("K9", 12)).status == WINDOW_CERTIFIED

    def test_j16_window_certified(self):
        assert certify_total_separability(generate_named("J16", 8)).status == WINDOW_CERTIFIED

    def test_triangular_lattice_violation(self):
        assert certify_total_separability(generate_triangular(8)).status == VIOLATION_FOUND

    def test_vacuous_certification_without_edges(self):
        report = certify_total_separability(Packing([[0.0, 0.0]]))
        assert report.status == WINDOW_CERTIFIED
        assert report.sep == Fraction(1)

    def test_triangle_implies_violation(self):
        p = generate_triangular(8)
        assert contains_triangle(build_contact_graph(p)) is not None
        assert certify_total_separability(p).status == VIOLATION_FOUND

    def test_sep_one_iff_certified(self):
        for pts in (THREE_TANGENT, MIXED_FOUR):
            report = certify_total_separability(Packing(pts))
            assert (report.sep == 1) == (report.status == WINDOW_CERTIFIED)

    def test_given_graph_is_not_rebuilt(self, monkeypatch):
        p = generate_triangular(6)
        expected = certify_total_separability(p, full_audit=True)
        graph = build_contact_graph(p)

        def no_build(p):
            raise AssertionError("contact graph rebuilt")

        monkeypatch.setattr(separability, "build_contact_graph", no_build)
        assert certify_total_separability(p, True, graph=graph) == expected

    def test_reports_differing_only_in_witnesses_are_unequal(self):
        p = generate_triangular(6)
        brief = certify_total_separability(p)
        full = certify_total_separability(p, full_audit=True)
        assert (brief.clean_edges, brief.status) == (full.clean_edges, full.status)
        assert len(brief.violations) < len(full.violations)
        assert brief != full
        assert full == replace(full, violations=full.violations.copy())
        assert full != replace(full, violations=full.violations[::-1])


class TestSepMeasureSequence:
    def test_p1_constant_one(self):
        report = sep_measure_sequence(partial(generate_named, "P1"), [6, 10, 14])
        assert report.values == (Fraction(1), Fraction(1), Fraction(1))
        assert report.stable_3dp and report.monotone

    def test_triangular_constant_zero(self):
        report = sep_measure_sequence(generate_triangular, [6, 10, 14])
        assert report.values == (Fraction(0), Fraction(0), Fraction(0))
        assert report.stable_3dp and report.monotone

    def test_dirty_core_with_growing_clean_tail(self):
        # the 4-circle core keeps its 3 dirty contacts; a chain of circles
        # along y=0 contributes only clean vertical tangent lines, so sep
        # climbs toward 1
        def family(l):
            tail = [[2.0 * k, 0.0] for k in range(3, int(l))]
            return Packing(MIXED_FOUR + tail)

        report = sep_measure_sequence(family, [8, 16, 32])
        values = [float(v) for v in report.values]
        assert values[0] < values[1] < values[2] < 1.0
        expected = [Fraction(t + 1, t + 4) for t in (5, 13, 29)]
        assert list(report.values) == expected

    def test_requires_increasing_windows(self):
        with pytest.raises(ValueError):
            sep_measure_sequence(partial(generate_named, "P1"), [10, 6])


# small half-widths at which every constructible entry has contacts
ORACLE_WINDOWS = {2: 8, 3: 4, 4: 3}
ORACLE_WIDER = {"O9": 4, "O18": 4, "O20": 4, "O45": 4, "O66": 4, "O78": 4, "O103": 6}
ORACLE_CASES = constructible_ids() + ["TRI", "diagonal-2", "diagonal-3", "diagonal-4"]


@lru_cache(maxsize=None)
def oracle_packing(case):
    if case.startswith("diagonal-"):
        return diagonal_construction(int(case.split("-")[1]), 1).packing
    if case == "TRI":
        return generate_triangular(6)
    dimension = load_catalog()[case].dimension
    return generate_named(case, ORACLE_WIDER.get(case, ORACLE_WINDOWS[dimension]))


def assert_matches_oracle(p):
    clean, brief = brute_force_witnesses(p.centers, full_audit=False)
    _, full = brute_force_witnesses(p.centers, full_audit=True)
    report = certify_total_separability(p)
    audit = certify_total_separability(p, full_audit=True)
    assert report.clean_edges == audit.clean_edges == clean
    assert report.violations.tolist() == brief
    assert audit.violations.tolist() == full


class TestCertifierAgainstOracle:
    """The direction-grouped certifier against one-plane-at-a-time brute force."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_catalog_windows(self, case):
        p = oracle_packing(case)
        assert build_contact_graph(p).edge_count > 0
        assert_matches_oracle(p)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_rotated_and_translated_windows(self, case):
        p = oracle_packing(case)
        rng = np.random.default_rng(ORACLE_CASES.index(case))
        q = transformed(p, random_rotation(p.dimension, rng), rng.uniform(-20, 20, p.dimension))
        assert build_contact_graph(q).edge_count == build_contact_graph(p).edge_count
        assert_matches_oracle(q)

    @pytest.mark.parametrize("case", ["TRI", "diagonal-4"])
    def test_candidates_rechecked_in_small_chunks(self, case, monkeypatch):
        from sepack import separability

        monkeypatch.setattr(separability, "_CANDIDATE_BUDGET", 7)
        assert_matches_oracle(oracle_packing(case))

    def test_nearly_parallel_planes_in_one_group(self):
        # contacts A-B (normal e1) and C-D (normal tilted by 1e-8) round to
        # one direction key.  E is dirty for C-D only and F for A-B only,
        # and each lies outside the other plane's slab when projected on
        # the other normal, so a grouped test without slack misses them.
        theta = 1e-8
        tilt = np.array([math.cos(theta), math.sin(theta)])
        a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        c = np.array([100.0, 10.0])
        d = c + 2.0 * tilt
        e = np.array([102.0000006, -100.0])
        f = np.array([0.0000006, -100.0])
        p = Packing([a, b, c, d, e, f])
        reach = 1.0 - 1e-9
        offset_cd = float(tilt @ (c + tilt))
        assert abs(e[0] - offset_cd) > reach and abs(tilt @ e - offset_cd) < reach
        assert abs(tilt @ f - 1.0) > reach and abs(f[0] - 1.0) < reach

        assert_matches_oracle(p)
        report = certify_total_separability(p, full_audit=True)

        def at(x):
            return int(np.flatnonzero(np.all(p.centers == x, axis=1))[0])

        assert report.total_edges == 2 and report.clean_edges == 0
        assert sorted(report.violations.tolist()) == sorted(
            [[at(a), at(b), at(f)], [*sorted((at(c), at(d))), at(e)]]
        )


    @pytest.mark.parametrize("shift", [0.0, 37.25, 5e4])
    @pytest.mark.parametrize("delta", [0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11])
    def test_offender_at_the_edge_of_the_inner_band(self, delta, shift):
        # the tangent line of the contact (0, 0)-(2, 0) is x = 1; the third
        # circle's center lies within delta of the reach 1 - 1e-9 from it:
        # in the inner band, in the rechecked rim or outside the slab
        reach = 1.0 - 1e-9
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [1.0 + reach + delta, 50.0]]) + shift
        assert_matches_oracle(Packing(centers))


RIGID_MOTION_CASES = ["P1", "K6", "K9", "J16", "O1", "TRI", "diagonal-3"]


def full_audit_summary(p):
    report = certify_total_separability(p, full_audit=True)
    return (report.status, report.clean_edges, report.total_edges, report.sep,
            len(report.violations))


@given(
    case=st.sampled_from(RIGID_MOTION_CASES),
    seed=st.integers(0, 2**32 - 1),
    shift=st.lists(st.floats(-1e5, 1e5), min_size=4, max_size=4),
)
@settings(derandomize=True, deadline=None)
def test_full_audit_invariant_under_rigid_motions(case, seed, shift):
    """The supported range of the separability module docstring: a rotation
    plus a translation with |t|_inf <= 1e5 leaves the full audit unchanged."""
    p = oracle_packing(case)
    rotation = random_rotation(p.dimension, np.random.default_rng(seed))
    q = transformed(p, rotation, np.array(shift[: p.dimension]))
    assert full_audit_summary(q) == full_audit_summary(p)
