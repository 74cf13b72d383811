"""Contact numbers: closed formulas, achieving constructions, and the
exhaustive oracle.

In the plane the maximum over totally separable packings of n circles is
floor(2(n - sqrt n)), achieved by quasi-square polyominoes with inscribed
circles; in R^d the bound floor(d(n - n^((d-1)/d))) is tight at perfect
d-th powers, achieved by near-cubical boxes.
"""

from sepack import (
    box_packing,
    c2_formula,
    cd_upper_bound,
    polyomino_oracle,
    quasi_square_packing,
)


def main():
    print("plane (d=2): formula vs quasi-square construction vs exhaustive oracle")
    print(f"{'n':>3s} {'formula':>8s} {'achieved':>9s} {'oracle':>7s}")
    for n in range(1, 11):
        omino, _ = quasi_square_packing(n)
        print(
            f"{n:3d} {c2_formula(n):8d} {omino.shared_faces:9d} "
            f"{polyomino_oracle(n, 2):7d}"
        )

    print()
    print("higher dimensions: bound vs box construction (equality at k^d)")
    print(f"{'n':>4s} {'d':>2s} {'bound':>6s} {'achieved':>9s} {'box':>10s}")
    for n, d in [(8, 3), (12, 3), (27, 3), (30, 3), (16, 4), (81, 4), (100, 4)]:
        omino, _ = box_packing(n, d)
        sides = "x".join(map(str, (omino.cells.max(axis=0) + 1).tolist()))
        print(
            f"{n:4d} {d:2d} {cd_upper_bound(n, d):6d} {omino.shared_faces:9d} {sides:>10s}"
        )

    print()
    print("the 2x2x2 cube: boundary-edge count 2^(d-1) * d =", 2 ** (3 - 1) * 3)
    print("matches cd_upper_bound(8, 3) =", cd_upper_bound(8, 3))


if __name__ == "__main__":
    main()
