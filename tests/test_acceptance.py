"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 7 checks the diagonal construction's separability
verdict against the closed-form clearance of its diagonal tangent planes
(``diagonal_plane_clearance`` in conftest, computed without the
certifier): at d = 2 the planes graze at the radius 1 and the window is
certified; at d = 3 and d = 4 they cut sibling-branch spheres, so the
certifier must report a violation whose deepest witness sits at exactly
that clearance (1/3 and 0).  It also checks the family as one orbit spec
(``diagonal_spec``): turned by 45 degrees, the d = 2 spec is K6, and the
closed form is a window of the spec within 32 ulps.
"""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from sepack import (
    Packing,
    box_packing,
    build_contact_graph,
    c2_formula,
    cd_upper_bound,
    certify_total_separability,
    check_entry_invariants,
    contains_triangle,
    diagonal_construction,
    diagonal_spec,
    generate_named,
    interior_regularity_check,
    is_k_regular,
    load_catalog,
    min_contact_distance,
    polyomino_oracle,
    quasi_square_packing,
    sep_measure_sequence,
)

from conftest import (
    deepest_witness_clearance,
    diagonal_plane_clearance,
    spec_window_and_closed_form,
    turned_plane_spec_against_k6,
)

WINDOWS_BY_DIMENSION = {2: 12.0, 3: 8.0, 4: 6.0}
# entries whose interior is empty at the nominal window because every
# vertex has a coordinate of magnitude >= L - margin (1+2*sqrt2 = 3.83 for
# the J18/J20 factors of O18/O20, 1+3*sqrt2 = 5.24 for O103); regularity
# is decided at the smallest conclusive integer window instead
REGULARITY_WINDOWS = {"O18": 7.0, "O20": 7.0, "O103": 9.0}

CATALOG_IDS = [
    "P1", "P3", "K6", "K9",
    "J1", "J3", "J6", "J9", "J16", "J18", "J20",
    "O1", "O3", "O6", "O9", "O16", "O18", "O20",
    "O39", "O42", "O45", "O63", "O66", "O78", "O103",
]


def _report(number, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s) {detail}")


def test_criterion_1_oracle_equals_formula():
    start = time.perf_counter()
    failures = []
    for n in range(1, 11):
        oracle = polyomino_oracle(n, 2)
        formula = c2_formula(n)
        if oracle != formula:
            failures.append(f"n={n}: oracle {oracle} != formula {formula}")
    elapsed = time.perf_counter() - start
    _report(1, not failures and elapsed < 60, elapsed,
            "exhaustive polyomino oracle equals floor(2(n - sqrt n)) for n=1..10")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_2_quasi_square_achieves_formula():
    start = time.perf_counter()
    failures = []
    for n in range(1, 401):
        omino, packing = quasi_square_packing(n)
        graph = build_contact_graph(packing)
        if graph.edge_count != c2_formula(n):
            failures.append(f"n={n}: contacts {graph.edge_count} != {c2_formula(n)}")
        if contains_triangle(graph) is not None:
            failures.append(f"n={n}: triangle found")
        if certify_total_separability(packing).status != "WindowCertified":
            failures.append(f"n={n}: not window-certified")
    elapsed = time.perf_counter() - start
    _report(2, not failures and elapsed < 60, elapsed,
            "quasi-square packings achieve the formula, triangle-free, certified, n=1..400")
    assert not failures, failures[:5]
    assert elapsed < 60


def test_criterion_3_box_equality_at_perfect_powers():
    start = time.perf_counter()
    failures = []
    for d in (2, 3, 4):
        for k in (2, 3, 4):
            n = k**d
            omino, packing = box_packing(n, d)
            achieved = build_contact_graph(packing).edge_count
            target = d * (n - k ** (d - 1))
            if not (achieved == cd_upper_bound(n, d) == target):
                failures.append(
                    f"d={d} k={k}: achieved {achieved}, bound {cd_upper_bound(n, d)}, "
                    f"closed form {target}"
                )
    if cd_upper_bound(8, 3) != 12 or 12 != 2 ** (3 - 1) * 3:
        failures.append("cd_upper_bound(8,3) != 2^(d-1)*d")
    elapsed = time.perf_counter() - start
    _report(3, not failures and elapsed < 10, elapsed,
            "box packings attain floor(d(k^d - k^(d-1))) exactly at perfect powers")
    assert not failures, failures
    assert elapsed < 10


def test_criterion_4_catalog_regularity():
    start = time.perf_counter()
    entries = load_catalog()
    failures = []
    for eid in CATALOG_IDS:
        entry = entries[eid]
        nominal = WINDOWS_BY_DIMENSION[entry.dimension]
        broken = check_entry_invariants(generate_named(eid, nominal), entry)
        if eid in REGULARITY_WINDOWS:
            # every invariant but regularity at the nominal window, then the
            # full suite at the smallest window with a nonempty interior
            expected = [
                f"regularity inconclusive (k=None), expected regular (k={entry.regularity})"
            ]
            if broken != expected:
                failures.append(f"{eid}: nominal-window checks failed: {broken}")
            broken = check_entry_invariants(generate_named(eid, REGULARITY_WINDOWS[eid]), entry)
        if broken:
            failures.append(f"{eid}: {broken}")
    elapsed = time.perf_counter() - start
    _report(4, not failures and elapsed < 300, elapsed,
            f"all {len(CATALOG_IDS)} constructible entries valid, contact distance 2, "
            f"triangle-free, certified, interior k-regular")
    assert not failures, failures
    assert elapsed < 300


def test_criterion_5_separability_measure_values():
    start = time.perf_counter()
    sqrt3 = math.sqrt(3.0)
    grid = Packing([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    tangent3 = Packing([[0.0, 0.0], [2.0, 0.0], [1.0, sqrt3]])
    mixed = Packing([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [1.0, sqrt3]])
    values = (
        certify_total_separability(grid).sep,
        certify_total_separability(tangent3).sep,
        certify_total_separability(mixed).sep,
    )
    expected = (Fraction(1), Fraction(0), Fraction(1, 4))
    elapsed = time.perf_counter() - start
    _report(5, values == expected, elapsed,
            f"sep values {tuple(map(str, values))} == (1, 0, 1/4) exactly")
    assert values == expected


def test_criterion_6_limit_approximants():
    start = time.perf_counter()
    p1 = sep_measure_sequence(partial(generate_named, "P1"), [6, 10, 14])
    tri = sep_measure_sequence(partial(generate_named, "TRI"), [6, 10, 14])
    ok = p1.values == (Fraction(1),) * 3 and tri.values == (Fraction(0),) * 3
    elapsed = time.perf_counter() - start
    _report(6, ok, elapsed,
            "sep over L=6,10,14: square lattice constant 1, triangular lattice constant 0")
    assert p1.values == (Fraction(1), Fraction(1), Fraction(1))
    assert tri.values == (Fraction(0), Fraction(0), Fraction(0))


def test_criterion_7_diagonal_construction():
    start = time.perf_counter()
    failures = []
    # d = 2: the diagonal planes graze at the radius 1, so the window is
    # certified; d = 3, 4: they cut sibling-branch spheres, and the
    # deepest witness sits at the closed-form clearance (1/3, 0)
    for d, expected, expected_status in [
        (2, 20, "WindowCertified"),
        (3, 72, "ViolationFound"),
        (4, 272, "ViolationFound"),
    ]:
        result = diagonal_construction(d, 1)
        if result.packing.n_spheres != expected:
            failures.append(f"d={d}: {result.packing.n_spheres} spheres != {expected}")
        graph = build_contact_graph(result.packing)
        verdict = interior_regularity_check(result, graph)
        if verdict.status != "regular":
            failures.append(f"d={d}: saturated degree check {verdict}")
        if not abs(min_contact_distance(graph, result.packing) - 2.0) <= 1e-9:
            failures.append(f"d={d}: min distance off")
        clearance = diagonal_plane_clearance(d)
        if (clearance > 1.0 - 1e-9) != (expected_status == "WindowCertified"):
            failures.append(
                f"d={d}: closed-form diagonal-plane clearance {clearance:.9f} "
                f"disagrees with the expected {expected_status}"
            )
        report = certify_total_separability(result.packing, full_audit=True, graph=graph)
        if report.status != expected_status:
            failures.append(
                f"d={d}: certification {report.status}, sep {report.sep}; "
                f"expected {expected_status} at the closed-form "
                f"diagonal-plane clearance {clearance:.9f}"
            )
        elif len(report.violations):
            worst = deepest_witness_clearance(result.packing, report.violations)
            if abs(worst - clearance) > 1e-9:
                failures.append(
                    f"d={d}: deepest witness clearance {worst:.9f} != "
                    f"closed form {clearance:.9f}"
                )
    # the family is one orbit spec: at d = 2 it is K6 turned by 45 degrees,
    # and the closed form is its window within ulps (bit for bit at d = 4)
    motif, k6_motif, u = turned_plane_spec_against_k6(diagonal_spec(2))
    if not np.array_equal(motif, k6_motif):
        failures.append("d=2: the turned spec's motif differs from K6's")
    if np.abs(u - np.rint(u)).max() > 1e-12 or abs(round(np.linalg.det(np.rint(u)))) != 1:
        failures.append(f"d=2: the turned spec's lattice is not K6's: U = {u.tolist()}")
    for d, depth in [(2, 3), (3, 2), (4, 2)]:
        window, closed, match = spec_window_and_closed_form(d, depth)
        ulps = np.abs(window - closed[match]) / np.spacing(np.abs(closed[match]))
        if not np.array_equal(np.sort(match), np.arange(len(closed))) or ulps.max() > 32:
            failures.append(f"d={d} depth {depth}: the spec window is not the closed form")
        elif d == 4 and not np.array_equal(window, closed):
            failures.append("d=4 depth 2: the spec window is not bit-identical")
    elapsed = time.perf_counter() - start
    _report(7, not failures and elapsed < 120, elapsed,
            "diagonal construction: counts 20/72/272, degree d+1, min distance 2, "
            "certified at d=2, violations at the closed-form clearance "
            "1/3 and 0 at d=3/4, d=2 spec = K6 turned 45 deg (integer U, |det U| = 1), "
            "closed form = spec window within 32 ulps")
    assert not failures, failures
    assert elapsed < 120


def test_criterion_8_product_law():
    start = time.perf_counter()
    factor = generate_named("P3", 6)
    product = generate_named("O39", 6)
    n = factor.n_spheres

    # the product's canonical order is i-major over (i, k) factor indices
    expected_centers = np.hstack(
        [np.repeat(factor.centers, n, axis=0), np.tile(factor.centers, (n, 1))]
    )
    order_ok = np.array_equal(product.centers, expected_centers)

    factor_edges = {(int(i), int(j)) for i, j in build_contact_graph(factor).edges}
    expected_edges = set()
    for i, j in factor_edges:
        for k in range(n):
            expected_edges.add(tuple(sorted((i * n + k, j * n + k))))
            expected_edges.add(tuple(sorted((k * n + i, k * n + j))))
    product_edges = {(int(i), int(j)) for i, j in build_contact_graph(product).edges}

    graph = build_contact_graph(product)
    regular = is_k_regular(graph, product, 6)
    ok = order_ok and product_edges == expected_edges and regular.is_regular
    elapsed = time.perf_counter() - start
    _report(8, ok, elapsed,
            "P3 x P3 contact graph is the Cartesian product of the factors; "
            "interior degree 6")
    assert order_ok
    assert product_edges == expected_edges
    assert regular.is_regular
