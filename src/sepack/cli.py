"""Command-line surface tying the modules together.

Every command exits nonzero on error; reports and packing files are
plain JSON documents suitable for shell pipelines.

The argument parser is built once per process, on the first ``main`` call,
and reused: parsing never changes it, and each call gets a fresh
``argparse.Namespace``, so no state passes from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import contact_numbers, diagonal, generators, packio, svgfig
from .errors import SepackError
from .separability import certify_total_separability, sep_measure_sequence


def _cmd_gen(args) -> int:
    p = generators.generate_named(args.name, args.window, margin=args.margin)
    packio.save_packing(p, args.out)
    print(f"wrote {args.out}: {args.name}, {p.n_spheres} spheres, d={p.dimension}")
    return 0


def _cmd_construct_diagonal(args) -> int:
    result = diagonal.diagonal_construction(args.d, args.depth)
    packio.save_packing(result.packing, args.out)
    print(
        f"wrote {args.out}: diagonal d={args.d} depth={args.depth}, "
        f"{result.packing.n_spheres} spheres over {result.n_cubes} cubes"
    )
    return 0


def _cmd_contact_opt(args) -> int:
    n, d = args.n, args.d
    if d == 2:
        omino, packing = contact_numbers.quasi_square_packing(n)
        target = contact_numbers.c2_formula(n)
        target_kind = "formula"
    else:
        omino, packing = contact_numbers.box_packing(n, d)
        target = contact_numbers.cd_upper_bound(n, d)
        target_kind = "upper bound"
    achieved = omino.shared_faces
    # the oracle runs before the file is written, so a size over its limit
    # fails without leaving a file behind
    oracle = contact_numbers.polyomino_oracle(n, d) if args.oracle else None
    packio.save_packing(packing, args.out)
    print(f"wrote {args.out}: n={n} d={d}")
    print(f"achieved contacts: {achieved}")
    print(f"{target_kind}: {target}")
    if oracle is not None:
        print(f"oracle: {oracle}")
    return 0


def _cmd_verify(args) -> int:
    p = packio.load_packing(args.file)
    report = packio.build_verify_report(p, full_audit=args.full_audit)
    packio.write_report(report, args.report)
    sep = report["separability"]
    print(
        f"{args.file}: {report['sphere_count']} spheres, "
        f"{report['contact_count']} contacts, "
        f"regularity={report['regularity']['status']} (k={report['regularity']['k']}), "
        f"triangle={'none' if report['triangle'] is None else report['triangle']}, "
        f"separability={sep['status']} sep={sep['sep']}"
    )
    print(f"report written to {args.report}")
    return 0


def _cmd_measure(args) -> int:
    p = packio.load_packing(args.file)
    report = certify_total_separability(p)
    print(f"sep = {report.sep} ({float(report.sep):.6f})")
    # a window without contacts has nothing to measure
    print(f"status = {report.status if report.total_edges else 'NoEdges'}")
    return 0


def _cmd_sep_sequence(args) -> int:
    windows = [float(w) for w in args.windows.split(",")]
    report = sep_measure_sequence(functools.partial(generators.generate_named, args.name), windows)
    for half_width, value in zip(report.windows, report.values):
        print(f"L={half_width:g}: sep = {value} ({float(value):.6f})")
    print(f"stable to 3 decimals over last two windows: {report.stable_3dp}")
    print(f"monotone: {report.monotone}")
    return 0


def _cmd_formulas(args) -> int:
    if args.d == 2:
        print(f"c2_formula({args.n}) = {contact_numbers.c2_formula(args.n)}")
    print(
        f"cd_upper_bound({args.n}, {args.d}) = "
        f"{contact_numbers.cd_upper_bound(args.n, args.d)}"
    )
    return 0


def _cmd_render(args) -> int:
    p = packio.load_packing(args.file)
    doc = svgfig.render_svg(
        p, show_edges=args.edges, show_tangents=args.tangents
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepack",
        description="Generate, verify and measure totally separable sphere packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a window of a named catalog packing")
    g.add_argument("--name", required=True, help="catalog id (P1, K6, J16, O39, ...)")
    g.add_argument("--window", type=float, required=True, help="half-width L of [-L, L]^d")
    g.add_argument("--margin", type=float, default=3.0, help="interior margin (default 3)")
    g.add_argument("--out", required=True, help="output packing file")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("construct-diagonal", help="diagonal-cube construction in R^d")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct_diagonal)

    o = sub.add_parser(
        "contact-opt",
        help="contact-maximizing construction (quasi-square for d=2, box otherwise)",
    )
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--oracle", action="store_true", help="run the exhaustive oracle")
    o.add_argument("--out", required=True)
    o.set_defaults(func=_cmd_contact_opt)

    v = sub.add_parser("verify", help="verify a packing file and emit a report")
    v.add_argument("file")
    v.add_argument("--full-audit", action="store_true", dest="full_audit")
    v.add_argument("--report", required=True)
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("measure", help="print the separability measure of a file")
    m.add_argument("file")
    m.set_defaults(func=_cmd_measure)

    s = sub.add_parser("sep-sequence", help="sep over growing windows (limit approximants)")
    s.add_argument("--name", required=True)
    s.add_argument("--windows", required=True, help="comma-separated half-widths, e.g. 6,10,14")
    s.set_defaults(func=_cmd_sep_sequence)

    f = sub.add_parser("formulas", help="print the contact-number formula and bound")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--d", type=int, required=True)
    f.set_defaults(func=_cmd_formulas)

    r = sub.add_parser("render", help="render a 2-D packing to SVG")
    r.add_argument("file")
    r.add_argument("--out", required=True)
    r.add_argument("--edges", action="store_true", help="draw contact edges")
    r.add_argument("--tangents", action="store_true", help="draw tangent lines at contacts")
    r.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SepackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
