"""The diagonal-cube family: (d+1)-regular packings grown from cubes.

In the plane the construction reproduces the truncated square tiling
(verified below by comparing local distance profiles), and every tangent
line clears or exactly grazes the other circles.  In higher dimensions
the packing stays (d+1)-regular and overlap-free, but certification
finds genuine tangent-plane violations: the critical clearances that
equal the radius exactly at d=2 drop below it for d >= 3, to 1/3 at
d=3, 0 at d=4 (a sphere centre lies on a diagonal tangent plane) and
1/5 at d=5.  The demo prints the measured sep values rather than
papering over them.  PAPER.md holds only the paper's abstract, so it
does not settle whether this recipe is the paper's family for d >= 3.
"""

from sepack import (
    build_contact_graph,
    certify_total_separability,
    diagonal_construction,
    generate_named,
    interior_regularity_check,
    local_fingerprint,
    min_contact_distance,
    profile_complete_indices,
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
    core = profile_complete_indices(result, 6.0)
    diag = local_fingerprint(result.packing, 6.0, core)
    k6 = local_fingerprint(generate_named("K6", 16, margin=8.0), 6.0)
    worst = max(abs(a - b) for p in diag for a, b in zip(p, k6[0]))
    print(
        f"  {len(diag)} complete local profiles, all equal to the K6 profile "
        f"to within {worst:.2e}"
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
