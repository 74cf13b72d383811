"""The grid index (``sepack._kdtree``), the package's one pair query.

It must give the pairs of the quadratic oracle, bit for bit, on clouds
built to sit on its boundaries: pairs planted at exactly r and one ulp to
either side, duplicate points, a single point, and clusters 1e5 apart.  It
must agree with scipy's KD-tree, the query it replaced, on every window
the tests pin and every input the benchmark's catalog-audit workload
builds, and its memory and time must stay bounded where the KD-tree's
were: a large window, a sparse one and one of high dimension.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree as ScipyTree

from sepack import Packing, box_packing, build_contact_graph, generate_named
from sepack._kdtree import cKDTree
from sepack.cli import build_parser
from sepack.core import TOL, valid_pairs_within
from sepack.diagonal import diagonal_construction
from sepack.packio import build_verify_report

from conftest import brute_force_pairs_within, traced_peak, within_seconds
from perfbench.workloads import catalog_audit
from test_generators import PINNED_PACKINGS


def _square(x, y) -> float:
    """The squared distance, summed in axis order: the index's arithmetic."""
    square = 0.0
    for a, b in zip(x, y):
        square += (a - b) * (a - b)
    return square


@st.composite
def _clouds(draw):
    """Points in d = 1 .. 6 and a reach r > 0 on a pair's boundary."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    points = rng.integers(-3, 4, (n, d)) * 1.0 if lattice else rng.uniform(-3, 3, (n, d))
    if draw(st.booleans()):  # duplicate points
        points = np.concatenate([points, points[rng.integers(0, n, 3)]])
    if draw(st.booleans()):  # two clusters 1e5 apart
        points[: len(points) // 2] += 1e5
    if lattice:  # integer points: pairs at exactly 1, 2 or 3
        r = float(draw(st.sampled_from([1.0, 2.0, 3.0])))
    else:  # the distance of a drawn pair, one ulp below it or above it
        i, j = rng.integers(0, len(points), 2)
        r = float(np.sqrt(_square(points[i], points[j]))) or 1.0
    r = [np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)][draw(st.integers(0, 2))]
    return points, r


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_clouds())
def test_the_index_matches_the_quadratic_oracle(case):
    points, r = case
    for queries in (None, points[::-2], points[:3] + 0.5):
        pairs, squares = cKDTree(points, r, queries)
        expected, sums = brute_force_pairs_within(points, r, queries)
        assert np.array_equal(pairs, expected) and pairs.dtype == np.intp
        assert squares.tobytes() == sums.tobytes()


def test_empty_and_single_point_inputs():
    empty, one, two = np.zeros((0, 3)), np.zeros((1, 3)), np.zeros((2, 3))
    for points, queries in [(empty, None), (one, None), (two, empty), (empty, two)]:
        pairs, squares = cKDTree(points, 1.0, queries)
        assert pairs.shape == (0, 2) and squares.shape == (0,)


def _scipy_pairs(points, r):
    """scipy's pairs within r, in lexicographic order."""
    pairs = ScipyTree(points).query_pairs(r=r, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _assert_scipy_agrees(p: Packing):
    for reach in (2.0 + TOL, 3.0):
        pairs, dists = valid_pairs_within(p, reach)
        expected = _scipy_pairs(p.centers, reach)
        assert np.array_equal(pairs, expected)
        assert np.array_equal(dists, np.linalg.norm(np.subtract(*p.centers[expected.T]), axis=1))


@pytest.mark.parametrize("name", sorted(PINNED_PACKINGS))
def test_scipy_agrees_on_the_pinned_windows(name):
    _assert_scipy_agrees(generate_named(name, 6 if name == "O103" else 4))


CATALOG_AUDIT_INPUTS = sorted(
    " ".join(argv) for chain in catalog_audit() for argv in chain
    if argv[0] in ("gen", "construct-diagonal")
)


@pytest.mark.parametrize("item", CATALOG_AUDIT_INPUTS)
def test_scipy_agrees_on_the_catalog_audit_inputs(item):
    args = build_parser().parse_args(item.split())
    if args.command == "gen":
        _assert_scipy_agrees(generate_named(args.name, args.window, margin=args.margin))
    else:
        _assert_scipy_agrees(diagonal_construction(args.d, args.depth).packing)


def test_scipy_agrees_where_the_keys_need_coarse_cells(rng):
    # 60,000 points over +-1e5 in 4-D at r = 1e-10: cells of side r would
    # number 2e15 an axis, and prefix id * radix + cell would leave int64;
    # the cells widen until the keys fit
    points = rng.uniform(-1e5, 1e5, (60_000, 4))
    points[1::2] = points[::2] + rng.uniform(-4e-11, 4e-11, (30_000, 4))
    pairs, _ = cKDTree(points, 1e-10)
    assert len(pairs) >= 1_000
    assert np.array_equal(pairs, _scipy_pairs(points, 1e-10))
    queries = points[:50] + 3e-11
    hits = ScipyTree(points).query_ball_point(queries, 1e-10)
    expected = [[q, j] for q, found in enumerate(hits) for j in sorted(found)]
    assert cKDTree(points, 1e-10, queries)[0].tolist() == expected


def test_p1_contact_graph_memory():
    # P1 at L = 300: 90,601 spheres, 180,600 contacts; the KD-tree's graph
    # build peaked at 11.6 MB
    p = generate_named("P1", 300)
    with traced_peak() as peak:
        graph = build_contact_graph(p)
    assert graph.edge_count == 180_600
    assert peak[0] <= 12_000_000


def _spread_spheres():
    """400 spheres on a grid of spacing 4 over +-1e5 in 4-D: too many to
    measure every pair at once, and their cells span 1e5 a side."""
    points = np.random.default_rng(1).uniform(-1e5, 1e5, (400, 4))
    return Packing(np.round(points / 4) * 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: box_packing(10, 20)[1],
        lambda: Packing([[0.0] * 4, [1e5, -1e5, 1e5, -1e5]]),
        _spread_spheres,
    ],
    ids=["box-10-in-20-D", "two-spheres-1e5-apart-4-D", "400-spheres-over-1e5-4-D"],
)
def test_sparse_and_high_dimensional_verify(make):
    # no table of the 3^d neighbour cells, and no array sized by the cells
    p = make()
    with within_seconds(1), traced_peak() as peak:
        report = build_verify_report(p)
    assert report["sphere_count"] == p.n_spheres
    assert peak[0] < 1_000_000
