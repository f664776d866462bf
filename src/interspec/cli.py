"""Batch driver.

Subcommands load operator/family JSON specs, run scans and checks, and emit
CSV/JSON reports. Exit codes: 0 success, 1 tolerance-contract failure in
check mode, 2 spec/argument parse error, 3 precondition violation (the
message names the violated contract).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, GridSpec, RunConfig
from .errors import InterspecError, NoBoundStateError, PreconditionError, SpecParseError
from .expressions import compile_expression, format_complex, parse_complex
from .extensions import (DeltaInteraction, UnitIntervalQuadrature,
                         bound_state_estimate, krein_difference_check,
                         momentum_union_resolvent)
from .gallery import BUILDERS, GalleryEntry
from .geneig import delta_eigenpair, expansion_check, parseval_gap
from .operators import operator_from_json
from .resolvent import (branch_report, neumann_continue, resolvent_solve,
                        union_spectrum_scan)
from .spaces import Basis, CoefficientVector, ScaleFamily


def _load_operands(args) -> tuple:
    """The operator and the family that ``args`` name. Only a named gallery
    entry is built, and once when both name the same entry."""
    built: dict = {}

    def gallery_entry(ref: str) -> GalleryEntry:
        name = ref.split(":", 1)[1]
        if name not in built:
            if name not in BUILDERS:
                raise SpecParseError(f"unknown gallery entry {name!r}; "
                                     f"known: {sorted(BUILDERS)}")
            built[name] = BUILDERS[name]()
        return built[name]

    op = gallery_entry(args.operator).operator if args.operator.startswith("gallery:") \
        else operator_from_json(args.operator)
    family = gallery_entry(args.family).family if args.family.startswith("gallery:") \
        else ScaleFamily.from_json(args.family)
    return op, family


def _load_config(path: Optional[str]) -> RunConfig:
    return RunConfig.from_json(path) if path else DEFAULT_CONFIG


def _parse_alpha(text: str) -> complex:
    """Bare reals are boundary angles in radians; literals with i are values."""
    if "i" in text or "j" in text:
        return parse_complex(text)
    angle = float(text)
    if not math.isfinite(angle):
        raise SpecParseError(f"boundary angle {text!r} is not finite")
    return cmath.exp(1j * angle)


def _csv_target(out: Optional[str]):
    """The --out file opened for CSV writing, or stdout left open."""
    return open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)


def _emit_json(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    op, family = _load_operands(args)
    grid = GridSpec.parse(args.grid)
    smap = union_spectrum_scan(op, family, grid, cfg)
    os.makedirs(args.out, exist_ok=True)
    smap.write_csv(os.path.join(args.out, "spectrum.csv"))
    smap.write_json(os.path.join(args.out, "spectrum.json"), config=cfg)
    if args.plot_data:
        # x / y / numeric status per pair, gnuplot-friendly
        order = ["resolvent", "regular-defect", "not-regular", "no-extension",
                 "inconclusive"]
        with open(args.plot_data, "w", encoding="utf-8") as handle:
            handle.write("# re im status(0=resolvent 1=regular-defect "
                         "2=not-regular 3=no-extension 4=inconclusive) pair\n")
            for pi, label in enumerate(smap.pair_labels):
                for li, lam in enumerate(smap.lambdas):
                    code = order.index(smap.cells[pi][li].status)
                    handle.write(f"{lam.real!r} {lam.imag!r} {code} {label}\n")
                handle.write("\n")
    if smap.duality_checked and smap.duality_mismatches:
        sys.stderr.write(f"duality cross-check: {len(smap.duality_mismatches)} "
                         f"mismatching cells\n")
        return 1
    return 0


def _cmd_branches(args) -> int:
    cfg = _load_config(args.config)
    op, family = _load_operands(args)
    lam = parse_complex(getattr(args, "lambda"))
    report = branch_report(op, family, lam, cfg)
    _emit_json(report.to_json_dict(), args.out)
    return 0


def _cmd_neumann(args) -> int:
    cfg = _load_config(args.config)
    op, family = _load_operands(args)
    e_index, f_index = args.pair.split(",")
    e = family.space_at(e_index.strip())
    f = family.space_at(f_index.strip())
    lam0 = parse_complex(args.lambda0)
    lam = parse_complex(getattr(args, "lambda"))
    continuation = neumann_continue(op, lam0, lam, e, f, cfg)
    probe = CoefficientVector.unit(op.basis, 0, cfg.n0)
    via_series = continuation(probe)
    direct = resolvent_solve(op, lam, e, f, probe, cfg).vector
    n = max(via_series.n, direct.n)
    gap = float(np.max(np.abs(via_series.padded(n) - direct.padded(n))))
    _emit_json({
        "lambda0": [lam0.real, lam0.imag],
        "lambda": [lam.real, lam.imag],
        "pair": [e.label, f.label],
        "radius": continuation.radius,
        "terms": continuation.terms,
        "max_coefficient_gap_vs_direct": gap,
        "config": cfg.to_dict(),
    }, args.out)
    return 0 if gap <= 1e-8 else 1


def _cmd_krein(args) -> int:
    cfg = _load_config(args.config)
    quad = UnitIntervalQuadrature(args.nodes)
    alpha = _parse_alpha(args.alpha)
    beta = _parse_alpha(args.beta)
    lam = parse_complex(getattr(args, "lambda"))
    g_fn = compile_expression(args.g, ("x",))
    g = np.asarray(g_fn(quad.nodes), dtype=complex)
    check = krein_difference_check(alpha, beta, lam, g, quad, cfg)
    if args.nodes_out:
        with open(args.nodes_out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "re_difference", "im_difference",
                             "re_formula", "im_formula"])
            for x, d, f_val in zip(quad.nodes, check.difference, check.formula):
                writer.writerow([repr(float(x)), repr(d.real), repr(d.imag),
                                 repr(f_val.real), repr(f_val.imag)])
    bound = 1e-10 * float(np.max(np.abs(g))) if np.max(np.abs(g)) > 0 else 1e-10
    _emit_json({
        "alpha": format_complex(alpha),
        "beta": format_complex(beta),
        "lambda": [lam.real, lam.imag],
        "nodes": args.nodes,
        "residual": check.residual,
        "bound": bound,
        "passed": check.residual <= bound,
        "config": cfg.to_dict(),
    }, args.out)
    return 0 if check.residual <= bound else 1


def _cmd_momentum_cover(args) -> int:
    alphas = [_parse_alpha(a) for a in args.alphas.split(",")]
    grid = GridSpec.parse(args.grid)
    rows = momentum_union_resolvent(alphas, grid.points())
    covered = True
    with _csv_target(args.out) as handle:
        writer = csv.writer(handle)
        writer.writerow(["re_lambda", "im_lambda", "covered", "admissible_alphas"])
        for row in rows:
            writer.writerow([repr(row.lam.real), repr(row.lam.imag), int(row.covered),
                             ";".join(format_complex(a) for a in row.admissible)])
            covered = covered and row.covered
    return 0 if covered else 1


def _cmd_delta_bound(args) -> int:
    d = DeltaInteraction(args.alpha, args.center)
    if args.alpha >= 0:
        _emit_json({"spectrum": d.spectrum_descriptor()}, args.out)
        raise NoBoundStateError(f"no bound state for coupling alpha={args.alpha} >= 0")
    estimate = bound_state_estimate(d, box=args.L, h0=args.h0, levels=args.levels)
    _emit_json({
        "spectrum": d.spectrum_descriptor(),
        "estimate": estimate.estimate,
        "error_bar": estimate.error_bar,
        "order": estimate.order,
        "samples": [[h, e] for h, e in estimate.samples],
        "analytic": -args.alpha ** 2 / 4.0,
    }, args.out)
    return 0


def _cmd_geneig(args) -> int:
    cfg = _load_config(args.config)
    grid = GridSpec.parse(args.lambda_grid)
    # every row before the target is opened: a rejected input leaves no file;
    # only the written scalars are kept, not the length-n vectors
    rows = [(p.lam, p.residual, p.membership_norm)
            for p in (delta_eigenpair(float(lam), args.s, args.n, cfg=cfg)
                      for lam in grid.re_points())]
    with _csv_target(args.out) as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "residual", "membership_norm"])
        writer.writerows([repr(value) for value in row] for row in rows)
    worst = max((residual for _, residual, _ in rows), default=0.0)
    return 0 if worst <= cfg.ge_tol else 1


def _parse_phi(text: str, n_default: int = 40) -> CoefficientVector:
    text = text.strip()
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        return CoefficientVector.unit(Basis.HERMITE, k, max(n_default, k + 1))
    try:
        coeffs = [parse_complex(part) for part in text.split(",")]
    except SpecParseError as exc:
        raise SpecParseError(
            f"--phi expects 'e<k>' or a comma list of complex coefficients: {exc}")
    return CoefficientVector(Basis.HERMITE, np.asarray(coeffs, dtype=complex))


def _cmd_expansion(args) -> int:
    cfg = _load_config(args.config)
    phi = _parse_phi(args.phi)
    check = expansion_check(phi)
    gap = parseval_gap(phi)
    _emit_json({
        "modes": phi.n,
        "max_reconstruction_error": check.max_error,
        "parseval_gap": gap,
        "rapidly_decreasing": check.rapidly_decreasing,
    }, args.out)
    if not check.rapidly_decreasing:
        sys.stderr.write("warning: input tail test failed; no contract applies\n")
        return 0
    return 0 if check.max_error <= cfg.ge_tol and gap <= cfg.ge_tol else 1


def _cmd_gallery(args) -> int:
    if args.action == "list":
        for name in sorted(BUILDERS):
            sys.stdout.write(name + "\n")
        return 0
    if args.name not in BUILDERS:
        raise SpecParseError(f"unknown gallery entry {args.name!r}")
    _emit_json(BUILDERS[args.name]().to_json_dict(), None)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="interspec",
        description="spectral scans and checks for operators on Hilbert scales")
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    operands, config, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    operands.add_argument("--operator", required=True,
                          help="operator spec JSON path or gallery:NAME")
    operands.add_argument("--family", required=True,
                          help="family spec JSON path or gallery:NAME")
    config.add_argument("--config", default=None)
    out.add_argument("--out", default=None)

    scan = sub.add_parser("scan", parents=[operands, config],
                          help="color a lambda grid for every admissible pair")
    scan.add_argument("--grid", required=True, help="re0:re1:nRe,im0:im1:nIm")
    scan.add_argument("--out", required=True, help="output directory")
    scan.add_argument("--plot-data", default=None,
                      help="also write x/y/status columns to this file")
    scan.set_defaults(func=_cmd_scan)

    branches = sub.add_parser("branches", parents=[operands, config, out],
                              help="resolvent branches at one point")
    branches.add_argument("--lambda", required=True)
    branches.set_defaults(func=_cmd_branches)

    neumann = sub.add_parser("neumann", parents=[operands, config, out],
                             help="series continuation vs direct solve")
    neumann.add_argument("--pair", required=True, help="E,F as family indices")
    neumann.add_argument("--lambda0", required=True)
    neumann.add_argument("--lambda", required=True)
    neumann.set_defaults(func=_cmd_neumann)

    krein = sub.add_parser("krein", parents=[config, out],
                           help="resolvent-difference check for two extensions")
    krein.add_argument("--alpha", required=True, help="angle in radians or a+bi")
    krein.add_argument("--beta", required=True)
    krein.add_argument("--lambda", required=True)
    krein.add_argument("--g", required=True, help="expression in x")
    krein.add_argument("--nodes", type=int, default=256)
    krein.add_argument("--nodes-out", default=None,
                       help="CSV of node values of both sides")
    krein.set_defaults(func=_cmd_krein)

    cover = sub.add_parser("momentum-cover", parents=[out],
                           help="union coverage of extension family")
    cover.add_argument("--alphas", required=True, help="comma list of angles or a+bi")
    cover.add_argument("--grid", required=True)
    cover.set_defaults(func=_cmd_momentum_cover)

    delta = sub.add_parser("delta-bound", parents=[out], help="point-interaction bound state")
    delta.add_argument("--alpha", type=float, required=True)
    delta.add_argument("--center", type=float, default=0.0)
    delta.add_argument("--L", type=float, default=20.0)
    delta.add_argument("--h0", type=float, default=0.1)
    delta.add_argument("--levels", type=int, default=3)
    delta.set_defaults(func=_cmd_delta_bound)

    geneig = sub.add_parser("geneig", parents=[config, out],
                            help="point-evaluation eigenvector residuals")
    geneig.add_argument("--lambda-grid", required=True, help="a:b:n (real axis)")
    geneig.add_argument("--s", default="1", help="home index, e.g. 1 or 3/2")
    geneig.add_argument("--n", type=int, default=1024)
    geneig.set_defaults(func=_cmd_geneig)

    expansion = sub.add_parser("expansion", parents=[config, out],
                               help="reconstruction error of expansion")
    expansion.add_argument("--phi", required=True,
                           help="e<k> or comma list of complex coefficients")
    expansion.set_defaults(func=_cmd_expansion)

    gallery = sub.add_parser("gallery", help="list or show model operators")
    gallery.add_argument("action", choices=["list", "show"])
    gallery.add_argument("name", nargs="?", default=None)
    gallery.set_defaults(func=_cmd_gallery)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SpecParseError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return 3
    except InterspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
