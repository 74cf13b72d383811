"""Tour of the packing catalog.

Generates a window of every constructible entry, checks the catalog
invariants against its verify report (no overlap, interior regularity
with the catalog's k, no triangle, window-certified separability), and
prints one line per entry.
"""

import time

from sepack import check_entry_invariants, generate_named, load_catalog

WINDOWS = {2: 12.0, 3: 8.0, 4: 6.0}
# these entries need a wider window before any sphere is interior at
# margin 3 (every vertex has a coordinate of magnitude > L - 3 otherwise)
WIDE = {"O18": 7.0, "O20": 7.0, "O103": 9.0}


def main():
    print(f"{'id':5s} {'tessellation':58s} {'d':>2s} {'k':>2s} {'n':>6s}  verdict")
    print("-" * 92)
    for entry in load_catalog().values():
        if not entry.constructible:
            print(
                f"{entry.id:5s} {entry.display_name:58s} {entry.dimension:2d} "
                f"{entry.regularity:2d} {'-':>6s}  catalog-only (no construction)"
            )
            continue
        half_width = WIDE.get(entry.id, WINDOWS[entry.dimension])
        start = time.perf_counter()
        packing = generate_named(entry.id, half_width)
        broken = check_entry_invariants(packing, entry)
        verdict = f"PROBLEM: {'; '.join(broken)}" if broken else "all invariants hold"
        print(
            f"{entry.id:5s} {entry.display_name:58s} {entry.dimension:2d} "
            f"{entry.regularity:2d} {packing.n_spheres:6d}  {verdict} "
            f"({time.perf_counter() - start:.2f}s, L={half_width:g})"
        )


if __name__ == "__main__":
    main()
