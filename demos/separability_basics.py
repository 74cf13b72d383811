"""The separability measure on small hand-checkable configurations.

Three circles pairwise tangent are the canonical obstruction: each
contact's tangent line passes through the third circle.  Adding a fourth
circle on the line shows a partially separable configuration with
sep = 1/4, and the 2x2 grid is fully separable.
"""

import math

from sepack import Packing, certify_total_separability

SQRT3 = math.sqrt(3.0)


def show(name, points):
    p = Packing(points)
    report = certify_total_separability(p, full_audit=True)
    print(f"{name}: sep = {report.sep} ({report.clean_edges}/{report.total_edges} clean)")
    for i, j, sphere in report.violations:
        print(
            f"   contact {p.centers[i].tolist()} - {p.centers[j].tolist()}: "
            f"tangent line enters the circle at {p.centers[sphere].tolist()}"
        )
    print()


def main():
    show("2x2 square grid", [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    show("three mutually tangent circles", [[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]])
    show(
        "triangle plus one collinear circle",
        [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [1.0, SQRT3]],
    )


if __name__ == "__main__":
    main()
