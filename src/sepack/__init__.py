"""Totally separable unit-sphere packings.

Construction of finite windows of the regular totally separable packings
generated by convex uniform tessellations in dimensions 2-4, tangent-
hyperplane certification of total separability and its sep measure,
contact-number formulas with their achieving polyomino constructions,
and the diagonal-cube family of (d+1)-regular packings.
"""

from .catalog import CatalogEntry, constructible_ids, load_catalog
from .contact import (
    ContactGraph,
    RegularityVerdict,
    build_contact_graph,
    contains_triangle,
    is_k_regular,
    min_contact_distance,
)
from .contact_numbers import (
    Polyomino,
    box_packing,
    c2_formula,
    cd_upper_bound,
    choose_box,
    polyomino_oracle,
    quasi_square_packing,
)
from .core import TOL, Packing, Window
from .diagonal import (
    DiagonalConstruction,
    diagonal_construction,
    diagonal_spec,
    interior_regularity_check,
)
from .generators import (
    OrbitSpec,
    generate_named,
    orbit_generate,
    product_packing,
    signed_permutation_orbit,
)
from .packio import (
    build_verify_report,
    check_entry_invariants,
    decode_packing,
    encode_packing,
    load_packing,
    save_packing,
)
from .separability import (
    SeparabilityReport,
    SepSequenceReport,
    certify_total_separability,
    sep_measure_sequence,
)
from .svgfig import render_svg

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ContactGraph",
    "DiagonalConstruction",
    "OrbitSpec",
    "Packing",
    "Polyomino",
    "RegularityVerdict",
    "SepSequenceReport",
    "SeparabilityReport",
    "TOL",
    "Window",
    "box_packing",
    "build_contact_graph",
    "build_verify_report",
    "c2_formula",
    "cd_upper_bound",
    "certify_total_separability",
    "check_entry_invariants",
    "choose_box",
    "constructible_ids",
    "contains_triangle",
    "decode_packing",
    "diagonal_construction",
    "diagonal_spec",
    "encode_packing",
    "generate_named",
    "interior_regularity_check",
    "is_k_regular",
    "load_catalog",
    "load_packing",
    "min_contact_distance",
    "orbit_generate",
    "polyomino_oracle",
    "product_packing",
    "quasi_square_packing",
    "render_svg",
    "save_packing",
    "sep_measure_sequence",
    "signed_permutation_orbit",
]
