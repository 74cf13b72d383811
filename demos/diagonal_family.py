"""The diagonal-cube family: (d+1)-regular packings grown from cubes.

The family is one orbit spec, diagonal_spec(d): the cube corners
{-1, 1}^d on the lattice (2 + 2/sqrt(d)) * B_d, B_d with rows 1, 2e_1,
..., 2e_(d-1).  In the plane that spec, turned by 45 degrees, is the
truncated square tiling K6 (printed below: the same motif, and K6's
lattice times an integer matrix U of determinant -1), and every tangent
line clears or exactly grazes the other circles.  In higher dimensions
the packing stays (d+1)-regular and overlap-free, but certification
finds genuine tangent-plane violations: the critical clearances that
equal the radius exactly at d=2 drop below it for d >= 3, to 1/3 at
d=3, 0 at d=4 (a sphere centre lies on a diagonal tangent plane) and
1/5 at d=5.  The demo prints the measured sep values rather than
papering over them.  PAPER.md holds only the paper's abstract, so it
does not settle whether this recipe is the paper's family for d >= 3.
"""

import math

import numpy as np

from sepack import (
    OrbitSpec,
    build_contact_graph,
    certify_total_separability,
    diagonal_construction,
    diagonal_spec,
    interior_regularity_check,
    load_catalog,
    min_contact_distance,
)


def main():
    print("growth and regularity:")
    for d, depth in [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]:
        result = diagonal_construction(d, depth)
        # one contact graph serves the degree check, the closest pair and sep
        graph = build_contact_graph(result.packing)
        verdict = interior_regularity_check(result, graph)
        report = certify_total_separability(result.packing, graph=graph)
        print(
            f"  d={d} depth={depth}: {result.n_cubes:3d} cubes, "
            f"{result.packing.n_spheres:5d} spheres, min distance "
            f"{min_contact_distance(graph, result.packing):.9f}, saturated degree "
            f"{verdict.k} ({verdict.status}), sep = {report.sep}"
        )

    print()
    print("plane case vs truncated square tiling (K6):")
    result = diagonal_construction(2, 3)
    print(f"  certification: {certify_total_separability(result.packing).status}")
    turn = np.array([[1.0, -1.0], [1.0, 1.0]]) * math.sqrt(0.5)  # 45 degrees
    spec, k6 = diagonal_spec(2), load_catalog()["K6"]
    motif = spec.motif() @ turn.T
    k6_motif = OrbitSpec(k6.seeds, k6.lattice, k6.centering).motif()
    same = np.array_equal(motif[np.lexsort(motif.T[::-1])], k6_motif)
    u = (spec.lattice @ turn.T) @ np.linalg.inv(k6.lattice)
    print(f"  turned by 45 degrees, the spec's motif equals K6's: {same}")
    print(
        f"  its lattice is U times K6's, U = {np.rint(u).astype(int).tolist()} "
        f"(off an integer matrix by {np.abs(u - np.rint(u)).max():.1e}), "
        f"det U = {round(np.linalg.det(np.rint(u)))}"
    )

    print()
    print("first higher-dimensional violation witness (d=3, depth 1):")
    result = diagonal_construction(3, 1)
    report = certify_total_separability(result.packing, full_audit=True)
    i, j, s = report.violations[0]
    print(f"  sep = {report.sep}; e.g. the tangent plane of the contact")
    print(f"  {result.packing.centers[i].round(6).tolist()} - {result.packing.centers[j].round(6).tolist()}")
    print(f"  cuts into the sphere at {result.packing.centers[s].round(6).tolist()}")


if __name__ == "__main__":
    main()
