from functools import partial

import numpy as np
import pytest

import sepack
from sepack import (
    ContactGraph,
    OrbitSpec,
    Packing,
    Window,
    build_contact_graph,
    certify_total_separability,
    decode_packing,
    diagonal_spec,
    interior_regularity_check,
    is_k_regular,
    min_contact_distance,
)
from sepack import catalog
from sepack.contact_numbers import (
    Polyomino,
    box_packing,
    c2_formula,
    cd_upper_bound,
    choose_box,
    enumerate_fixed_polyforms,
    polyomino_oracle,
    quasi_square_packing,
)
from sepack.diagonal import diagonal_construction
from sepack.errors import (
    InvalidPackingError,
    MalformedInputError,
    SepackError,
    SizeLimitError,
)
from sepack.generators import (
    TRIANGULAR,
    generate_named,
    orbit_generate,
    signed_permutation_orbit,
)
from sepack.separability import sep_measure_sequence

from conftest import (
    bad_packing_files,
    random_rotation,
    traced_peak,
    transformed,
    within_seconds,
)


class TestWindow:
    def test_cube(self):
        w = Window.cube(12, 2, margin=3)
        assert w.dimension == 2
        assert np.all(w.lower == -12) and np.all(w.upper == 12)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(MalformedInputError):
            Window([0.0, 0.0], [1.0, 0.0])

    def test_rejects_negative_margin(self):
        with pytest.raises(MalformedInputError):
            Window([0.0], [1.0], margin=-1)

    @pytest.mark.parametrize(
        "lower, upper, margin",
        [
            ([-np.inf], [1.0], 0.0),
            ([0.0], [np.inf], 0.0),
            ([0.0, np.nan], [1.0, 1.0], 0.0),
            ([0.0], [1.0], np.inf),
            ([0.0], [1.0], np.nan),
        ],
    )
    def test_rejects_nonfinite(self, lower, upper, margin):
        with pytest.raises(MalformedInputError, match="finite"):
            Window(lower, upper, margin)

    def test_interior_mask(self):
        w = Window([0.0, 0.0], [10.0, 10.0], margin=3)
        assert w.interior_mask(np.array([[5.0, 5.0]]))[0]
        assert not w.interior_mask(np.array([[1.0, 5.0]]))[0]


class TestPacking:
    def test_canonical_sort(self):
        p = Packing([[2.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(
            p.centers, np.array([[0.0, -1.0], [0.0, 0.0], [2.0, 0.0]])
        )

    def test_rejects_ragged_centers(self):
        with pytest.raises(MalformedInputError):
            Packing([[0.0, 0.0], [1.0, 2.0, 3.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedInputError):
            Packing([[0.0, np.inf]])

    def test_centers_immutable(self):
        p = Packing([[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            p.centers[0, 0] = 5.0

    def test_sorted_centers_skip_the_sort(self, monkeypatch):
        # equal rows and a signed zero are in order as they stand
        centers = np.array([[-1.0, 3.0], [0.0, -0.0], [0.0, 0.0], [0.0, 2.0], [1.0, -5.0]])
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        p = Packing(centers)
        assert sorts == []
        assert p.centers.tobytes() == centers.tobytes()
        # the packing holds a read-only copy; the caller's array stays writable
        assert p.centers is not centers and centers.flags.writeable
        centers[0, 0] = 7.0
        assert p.centers[0, 0] == -1.0

    def test_shuffled_centers_come_out_canonical(self, rng, monkeypatch):
        grid = np.array([[x, y, z] for x in range(4) for y in range(-2, 2) for z in (0.5, 1.5)])
        shuffled = grid[rng.permutation(len(grid))]
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        p = Packing(shuffled)
        assert sorts == [1]
        assert np.array_equal(p.centers, grid)
        assert p.centers.flags.c_contiguous


class TestOverlapCheck:
    """The overlap verdict is build_contact_graph's: it raises on the first
    overlapping pair."""

    def test_exact_tangency_ok(self):
        assert build_contact_graph(Packing([[0.0, 0.0], [2.0, 0.0]])).edge_count == 1

    def test_overlap_reports_pair_and_distance(self):
        with pytest.raises(InvalidPackingError) as caught:
            build_contact_graph(Packing([[0.0, 0.0], [1.0, 0.0]]))
        assert caught.value.pair == (0, 1)
        assert caught.value.distance == pytest.approx(1.0)

    def test_empty_and_single_ok(self):
        assert build_contact_graph(Packing(np.zeros((0, 2)))).edge_count == 0
        assert build_contact_graph(Packing([[0.0, 0.0]])).edge_count == 0

    def test_invariant_under_isometry(self, rng):
        p = generate_named("K6", 8)
        contacts = build_contact_graph(p).edge_count
        for _ in range(5):
            q = transformed(p, random_rotation(2, rng), rng.uniform(-9, 9, 2))
            assert build_contact_graph(q).edge_count == contacts


class TestInteriorBand:
    """The interior vertices, those is_k_regular judges by default, are the
    window's interior_mask."""

    def test_margin_band(self):
        w = Window([0.0, 0.0], [10.0, 10.0], margin=3)
        p = Packing([[5.0, 5.0], [1.0, 5.0]], w)
        inside = p.centers[w.interior_mask(p.centers)]
        assert [5.0, 5.0] in inside.tolist()
        assert [1.0, 5.0] not in inside.tolist()

    def test_p1_window_interior_is_inner_grid(self):
        p = generate_named("P1", 12)
        got = p.centers[p.window.interior_mask(p.centers)]
        expected = np.array(
            sorted(
                [x, y]
                for x in range(-12, 13, 2)
                for y in range(-12, 13, 2)
                if abs(x) <= 9 and abs(y) <= 9
            ),
            dtype=float,
        )
        assert np.allclose(got, expected)


class _VersionTwoCatalog:
    """Stands in for ``importlib.resources``: the catalog file of a later format."""

    def files(self, package):
        return self

    def joinpath(self, name):
        return self

    def read_text(self):
        return '{"format_version": 2, "entries": []}'


def _p1_graph_and_packing():
    # P1 at L = 4: 25 spheres, the graph first, as is_k_regular takes them
    p = generate_named("P1", 4)
    return build_contact_graph(p), p


def _load_later_catalog():
    # the cached load_catalog keeps the packaged catalog; its wrapped
    # function reads the stand-in
    original = catalog.resources
    catalog.resources = _VersionTwoCatalog()
    try:
        catalog.load_catalog.__wrapped__()
    finally:
        catalog.resources = original


def _diagonal_check_with_the_depth_0_graph():
    # 8 vertices for the 24 spheres of depth 1
    graph = build_contact_graph(diagonal_construction(2, 0).packing)
    interior_regularity_check(diagonal_construction(2, 1), graph)


_TWO = [[0.0, 0.0], [2.0, 0.0]]

# one row per argument that a public name reads as a number; the row id
# starts with the name
VALUE_ERROR_CASES = {
    "c2_formula": lambda: c2_formula(0),
    "cd_upper_bound-n": lambda: cd_upper_bound(0, 2),
    "cd_upper_bound-d": lambda: cd_upper_bound(1, 1),
    "Polyomino": lambda: Polyomino(2, [(0, 0, 0)]),
    "Polyomino-box": lambda: Polyomino(2, [(0, 0), (2**32, 2**32)]),
    "Polyomino-int64": lambda: Polyomino(2, [(0, 0), (2**63, 0)]),
    "Polyomino-ragged": lambda: Polyomino(2, [(0, 0), (1,)]),
    "Polyomino-negative-d": lambda: Polyomino(-1, []),
    "Polyomino-zero-d": lambda: Polyomino(0, [()]),
    "choose_box": lambda: choose_box(0, 2),
    "box_packing-d40": lambda: box_packing(5, 40),
    "quasi_square_packing": lambda: quasi_square_packing(0),
    "enumerate_fixed_polyforms": lambda: enumerate_fixed_polyforms(0),
    "polyomino_oracle": lambda: polyomino_oracle(0),
    "diagonal_construction": lambda: diagonal_construction(2, -1),
    "diagonal_construction-float-d": lambda: diagonal_construction(2.5, 1),
    "quasi_square_packing-float": lambda: quasi_square_packing(2.5),
    "polyomino_oracle-float-d": lambda: polyomino_oracle(3, 2.0),
    "c2_formula-float": lambda: c2_formula(2.5),
    "box_packing-float": lambda: box_packing(5.5, 2),
    "cd_upper_bound-float-d": lambda: cd_upper_bound(5, 2.5),
    "Polyomino-float-cells": lambda: Polyomino(2, [(0.5, 0), (1.9, 0)]),
    "Polyomino-uint64": lambda: Polyomino(
        2, np.array([[0, 0], [2**64 - 1, 0]], dtype=np.uint64)
    ),
    "generate_named-window": lambda: generate_named("K6", "x"),
    "Window.cube-float-d": lambda: Window.cube(3, 2.5),
    "Window.cube-zero-d": lambda: Window.cube(3, 0),
    "is_k_regular-float-index": lambda: is_k_regular(*_p1_graph_and_packing(), indices=[0.5]),
    "is_k_regular-index-range": lambda: is_k_regular(*_p1_graph_and_packing(), indices=[25]),
    "is_k_regular-float-k": lambda: is_k_regular(*_p1_graph_and_packing(), k=2.5),
    "is_k_regular-other-packing": lambda: is_k_regular(
        _p1_graph_and_packing()[0], generate_named("P1", 8)
    ),
    "sep_measure_sequence": lambda: sep_measure_sequence(
        partial(generate_named, "P1"), [10, 6]
    ),
    "load_catalog": _load_later_catalog,
    # a value of the wrong kind: each of these built, truncated its value or
    # raised an error of numpy's or Python's before errors read every number
    "Packing-string-centers": lambda: Packing([["0", "0"], ["2", "0"]]),
    "Packing-int-label": lambda: Packing(_TWO, label=5),
    "Window-string-margin": lambda: Window([0], [1], margin="1"),
    "Window.cube-string-half-width": lambda: Window.cube("3", 2),
    "OrbitSpec-string-seed": lambda: OrbitSpec(["1"], [[2.0]]),
    "signed_permutation_orbit-strings": lambda: signed_permutation_orbit(["1", "2"]),
    "generate_named-string-window": lambda: generate_named("A", "4"),
    "sep_measure_sequence-strings": lambda: sep_measure_sequence(
        partial(generate_named, "P1"), ["4", "6"]
    ),
    "ContactGraph-float-edge": lambda: ContactGraph(3, [[0.5, 1.7]]),
    "ContactGraph-float-count": lambda: ContactGraph(2.5, [[0, 1]]),
    "diagonal_spec-float-d": lambda: diagonal_spec(2.5),
    "decode_packing-string-radius": lambda: decode_packing(bad_packing_files()["radius-string"]),
    # numpy reads a bool beside floats as a float: these built with True as 1.0
    "Packing-bool-centers": lambda: Packing([[True, 0.5], [3.0, 0.0]]),
    "Window-bool-bound": lambda: Window([True, 0.0], [2.0, 2.0]),
    "OrbitSpec-bool-seed": lambda: OrbitSpec([[True, 0.5]], [[2.0, 0.0], [0.0, 2.0]]),
    # shapes that do not fit together
    "Window-unequal-bounds": lambda: Window([0.0, 0.0], [1.0]),
    "Window-list-margin": lambda: Window([0.0], [1.0], margin=[1.0]),
    "Packing-3d-centers": lambda: Packing(np.zeros((2, 2, 2))),
    "Packing-window-dimension": lambda: Packing(_TWO, Window.cube(4, 3)),
    "OrbitSpec-centering-arity": lambda: OrbitSpec(
        [[1.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]], centering=[[0.0, 0.0, 0.0]]
    ),
    "generate_named-window-dimension": lambda: generate_named("K6", Window.cube(4, 3)),
    # numpy's bare ValueError: a matmul's mismatch, and a reduction of no values
    "orbit_generate-window-dimension": lambda: orbit_generate(TRIANGULAR, Window.cube(3, 3)),
    "OrbitSpec-empty-centering": lambda: OrbitSpec([1.0, 0.0], 3 * np.eye(2), np.zeros((0, 2))),
    # a number or None where a Window, a d-vector or a list belongs, or a
    # nested list for a flat one: each raised a bare TypeError,
    # AttributeError or IndexError
    "orbit_generate-number-window": lambda: orbit_generate(TRIANGULAR, 3),
    "orbit_generate-none-window": lambda: orbit_generate(TRIANGULAR, None),
    "signed_permutation_orbit-number": lambda: signed_permutation_orbit(5.0),
    "signed_permutation_orbit-nested": lambda: signed_permutation_orbit([[1.0, 2.0]]),
    "is_k_regular-number-indices": lambda: is_k_regular(*_p1_graph_and_packing(), indices=3),
    "is_k_regular-nested-indices": lambda: is_k_regular(*_p1_graph_and_packing(), indices=[[0]]),
    "Polyomino-number-cells": lambda: Polyomino(2, 5),
    "Polyomino-none-cells": lambda: Polyomino(2, None),
    # a graph must have one vertex per sphere, and its edges join its vertices
    "ContactGraph-edge-range": lambda: ContactGraph(3, [[0, 5]]),
    "ContactGraph-negative-edge": lambda: ContactGraph(3, [[-1, 2]]),
    # an edge list is (m, 2), and half-widths are a sequence
    "ContactGraph-three-column-edge": lambda: ContactGraph(3, [[0, 1, 2]]),
    "ContactGraph-flat-edge": lambda: ContactGraph(3, [0, 1]),
    # an edge joins two distinct vertices, and each pair once: a loop or a
    # repeat was kept, and contains_triangle read it as a triangle
    "ContactGraph-self-loop": lambda: ContactGraph(3, [[1, 1], [1, 2]]),
    "ContactGraph-repeated-edge": lambda: ContactGraph(3, [[0, 1], [1, 2], [1, 0]]),
    # numpy files a timedelta under the signed integers; int() of one failed
    "c2_formula-timedelta": lambda: c2_formula(np.timedelta64(1, "s")),
    "sep_measure_sequence-one-number": lambda: sep_measure_sequence(
        partial(generate_named, "P1"), 5
    ),
    "certify_total_separability-other-graph": lambda: certify_total_separability(
        generate_named("P1", 8), graph=_p1_graph_and_packing()[0]
    ),
    "certify_total_separability-larger-graph": lambda: certify_total_separability(
        generate_named("P1", 4), graph=build_contact_graph(generate_named("P1", 8))
    ),
    "min_contact_distance-other-packing": lambda: min_contact_distance(
        _p1_graph_and_packing()[0], generate_named("P1", 8)
    ),
    "interior_regularity_check-other-graph": _diagonal_check_with_the_depth_0_graph,
}

WRONG_KIND = {
    "Packing-string-centers", "Packing-int-label", "Window-string-margin",
    "Window.cube-string-half-width", "OrbitSpec-string-seed", "signed_permutation_orbit-strings",
    "generate_named-string-window", "sep_measure_sequence-strings", "ContactGraph-float-edge",
    "ContactGraph-float-count", "ContactGraph-three-column-edge", "ContactGraph-flat-edge",
    "sep_measure_sequence-one-number", "c2_formula-timedelta", "Packing-bool-centers",
    "Window-bool-bound", "OrbitSpec-bool-seed", "Window-unequal-bounds", "Window-list-margin",
    "Packing-3d-centers", "Packing-window-dimension", "OrbitSpec-centering-arity",
    "generate_named-window-dimension", "orbit_generate-window-dimension",
    "OrbitSpec-empty-centering", "orbit_generate-number-window", "orbit_generate-none-window",
    "signed_permutation_orbit-number", "signed_permutation_orbit-nested",
    "is_k_regular-number-indices", "is_k_regular-nested-indices", "Polyomino-number-cells",
    "Polyomino-none-cells",
}

# the public names that read no number of their own, each with the reason
NO_NUMBER_READ = {
    "CatalogEntry": "a result type, built from the packaged catalog",
    "DiagonalConstruction": "a result type",
    "RegularityVerdict": "a result type",
    "SepSequenceReport": "a result type",
    "SeparabilityReport": "a result type",
    "TOL": "a constant",
    "build_contact_graph": "takes a Packing",
    "build_verify_report": "takes a Packing and a flag",
    "check_entry_invariants": "takes a Packing and a CatalogEntry",
    "constructible_ids": "takes no argument",
    "contains_triangle": "takes a ContactGraph",
    "encode_packing": "takes a Packing",
    "load_packing": "takes a path; decode_packing reads the file's numbers",
    "product_packing": "takes two Packings and a label",
    "render_svg": "takes a Packing and two flags",
    "save_packing": "takes a Packing and a path",
}

# a module function that reads numbers but that sepack does not export
NOT_EXPORTED = {"enumerate_fixed_polyforms"}


@pytest.mark.parametrize("case", list(VALUE_ERROR_CASES))
def test_out_of_range_values_raise_a_typed_value_error(case):
    with within_seconds(10), pytest.raises(SepackError) as info:
        VALUE_ERROR_CASES[case]()
    assert isinstance(info.value, ValueError)
    if case in WRONG_KIND:
        assert isinstance(info.value, MalformedInputError)


# a dimension that sets the size of an array, each past the address space:
# counted against the budget before numpy is asked for the memory
SIZE_LIMIT_CASES = {
    "diagonal_spec": lambda: diagonal_spec(10**7),
    "Window.cube": lambda: Window.cube(3, 10**15),
}


@pytest.mark.parametrize("case", list(SIZE_LIMIT_CASES))
def test_dimensions_are_counted_before_allocation(case):
    with traced_peak() as peak, pytest.raises(SizeLimitError):
        SIZE_LIMIT_CASES[case]()
    assert peak[0] < 1_000_000


def test_every_public_name_is_in_the_table():
    named = {case.split("-")[0].split(".")[0] for case in VALUE_ERROR_CASES}
    assert (named - NOT_EXPORTED) | set(NO_NUMBER_READ) == set(sepack.__all__)
    assert not named & set(NO_NUMBER_READ)


def test_choose_box_in_forty_dimensions_returns():
    # the closed form; walking the 2^40 delta vectors never ends
    with within_seconds(10):
        sides = choose_box(5, 40)
    assert sides == (1,) * 37 + (2, 2, 2)
