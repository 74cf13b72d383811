"""The benchmark's workloads, written as chains of ``sepack`` CLI commands.

A chain is a list of commands that share files: a generator writes a
packing and the next commands read it.  The workload seed shuffles the
order of chains only, never their contents, so every item runs on the same
input in every run.  An item is one command; its id is the command line
itself, which keys its golden record.

Sizes follow the catalog tour's half-widths; the larger inputs are trimmed
where noted so that one pass of a workload takes several seconds on a
2-core machine and a run holds several passes.  perfbench/README.md lists
every input with its n, m and number of tangent directions.
"""

from __future__ import annotations

# the 25 constructible catalog ids and their dimensions
CATALOG_IDS = {
    2: ("P1", "P3", "K6", "K9"),
    3: ("J1", "J3", "J6", "J9", "J16", "J18", "J20"),
    4: ("O1", "O3", "O6", "O9", "O16", "O18", "O20", "O39", "O42", "O45",
        "O63", "O66", "O78", "O103"),
}
# half-widths of demos/catalog_tour.py: these entries need a wider window
# before any sphere is interior at margin 3
CATALOG_WINDOWS = {2: 12, 3: 8, 4: 6}
CATALOG_WIDE = {"O18": 7, "O20": 7, "O103": 9}

GEN_COMMANDS = ("gen", "construct-diagonal", "contact-opt")
VERIFY_COMMANDS = ("verify", "measure")


def _gen_verify(name: str, half_width: int, full_audit: bool = False) -> list:
    stem = f"{name}-L{half_width}"
    verify = ["verify", f"{stem}.json", "--report", f"{stem}.report.json"]
    if full_audit:
        verify.insert(2, "--full-audit")
    return [
        ["gen", "--name", name, "--window", str(half_width), "--out", f"{stem}.json"],
        verify,
    ]


def _diagonal(d: int, depth: int, full_audit: bool = False) -> list:
    stem = f"diagonal-d{d}-depth{depth}{'-audit' if full_audit else ''}"
    verify = ["verify", f"{stem}.json", "--report", f"{stem}.report.json"]
    if full_audit:
        verify.insert(2, "--full-audit")
    return [
        ["construct-diagonal", "--d", str(d), "--depth", str(depth), "--out", f"{stem}.json"],
        verify,
    ]


def catalog_sweep() -> list:
    chains = []
    for dimension, ids in CATALOG_IDS.items():
        for name in ids:
            half_width = CATALOG_WIDE.get(name, CATALOG_WINDOWS[dimension])
            chain = _gen_verify(name, half_width)
            if dimension == 2:
                stem = f"{name}-L{half_width}"
                chain.append(
                    ["render", f"{stem}.json", "--out", f"{stem}.svg", "--edges", "--tangents"]
                )
            chains.append(chain)
    chains.extend(_diagonal(d, 2) for d in (2, 3, 4))
    return chains


def certify_large() -> list:
    # trimmed from P1/K9 at L=120 and J1 at L=16 so a pass fits a few
    # seconds; the dense certifier still takes most of the time
    return [_gen_verify("P1", 100), _gen_verify("K9", 100), _gen_verify("J1", 14)]


def violation_audit() -> list:
    # TRI trimmed from L=60 to L=40: every edge stays dirty
    tri = _gen_verify("TRI", 40, full_audit=True)
    tri.append(["measure", "TRI-L40.json"])
    return [tri, _diagonal(3, 4, full_audit=True), _diagonal(4, 2, full_audit=True)]


def contact_numbers() -> list:
    # the polycube oracle is trimmed from n <= 7 to n <= 6 (n = 7 alone
    # takes about 3.5 s at the seed)
    chains = []
    for d, top in ((2, 9), (3, 6)):
        for n in range(1, top + 1):
            chains.append([["contact-opt", "--n", str(n), "--d", str(d), "--oracle",
                            "--out", f"oracle-d{d}-n{n}.json"]])
    for d in (2, 3, 4):
        for n in range(10, 401, 13):
            stem = f"contact-d{d}-n{n}"
            chains.append([
                ["contact-opt", "--n", str(n), "--d", str(d), "--out", f"{stem}.json"],
                ["verify", f"{stem}.json", "--report", f"{stem}.report.json"],
            ])
    return chains


# The four groups of chains run as two workloads, so that each run is long enough to
# be steady on a shared 2-core machine (timing noise there is about 10% of a
# 25-second run's median).  Each pairing keeps a contrast: catalog-audit
# holds the dirty-edge audits and certify-oracle the large clean certifies,
# and generation and the polyform oracle land in different workloads.


def catalog_audit() -> list:
    """catalog-sweep plus violation-audit: generation (O103 above all)
    dominates gen_s, the full audits and their reports dominate verify_s."""
    return catalog_sweep() + violation_audit()


def certify_oracle() -> list:
    """certify-large plus contact-numbers: the polyform oracle dominates
    gen_s, the dense certifier on clean windows dominates verify_s."""
    return certify_large() + contact_numbers()


WORKLOADS = {
    "catalog-audit": catalog_audit,
    "certify-oracle": certify_oracle,
}


def chains(workload: str) -> list:
    """The workload's chains in canonical order."""
    return WORKLOADS[workload]()


def item_id(argv) -> str:
    return " ".join(argv)
