"""The four workloads: what one round runs, and how its outputs are checked.

A round is a list of operations. Each operation is one call into a public
entry point of interspec (``cli.main`` for scans, the resolvent /
extensions / geneig functions for queries), timed on its own, followed by an
untimed check of its output. All lambda points come from the round's
generator, which is seeded from the run seed and the round number.

Scans on the banded and rank-sum operators use the baseline line
Im(lambda) = 0.5, Re(lambda) in [-1.5, 1.5] with jitter; the position cells
that contradict the descriptor there are counted, not avoided.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NEGATIVE = ("regular-defect", "not-regular", "no-extension")
NEUMANN_GAP = 1e-8   # the `interspec neumann` pass threshold
KREIN_NODES = 256    # `interspec krein` default quadrature size
GENEIG_N = 1024      # `interspec geneig` default truncation


@dataclass
class Outcome:
    ok: bool
    colored: int = 0
    conclusive: int = 0
    contradicting: int = 0
    bytes_written: int = 0
    cases: list = field(default_factory=list)  # (x, e, f, lam) cells that made summaries


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Context:
    mods: object
    entries: dict
    families: dict      # spec key -> ScaleFamily loaded from bench/specs
    cfg: object
    config_path: str    # RunConfig JSON handed to the CLI, or "" for defaults
    spec_paths: dict
    work: Path
    smoke: bool


def grade(descriptor, lams, statuses) -> Outcome:
    """Counts for statuses[pair][lambda] against an analytic descriptor.

    A cell contradicts the descriptor when it is `resolvent` at a point of
    the spectrum; a point outside the spectrum contradicts (once) when every
    pair is conclusively non-resolvent there.
    """
    out = Outcome(ok=True)
    for li, lam in enumerate(lams):
        column = [row[li] for row in statuses]
        out.colored += len(column)
        out.conclusive += sum(s != "inconclusive" for s in column)
        if descriptor.contains(lam):
            out.contradicting += sum(s == "resolvent" for s in column)
        elif column and all(s in NEGATIVE for s in column):
            out.contradicting += 1
    return out


def _num(v: float) -> str:
    return f"{float(v):.17g}"


def _grid_text(re0, re1, n_re, im0, im1, n_im) -> str:
    return f"{_num(re0)}:{_num(re1)}:{n_re},{_num(im0)}:{_num(im1)}:{n_im}"


def _jittered_grid(rng, re0, re1, n_re, im0, im1, n_im) -> str:
    """A fixed-shape grid translated by up to half a spacing on each axis."""
    dr = rng.uniform(-0.5, 0.5) * (re1 - re0) / (n_re - 1)
    di = rng.uniform(-0.5, 0.5) * (im1 - im0) / (n_im - 1)
    return _grid_text(re0 + dr, re1 + dr, n_re, im0 + di, im1 + di, n_im)


def _baseline_line(rng) -> str:
    """Two points on the jittered baseline line Im = 0.5."""
    im = rng.uniform(0.48, 0.52)
    return _grid_text(rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5), 2, im, im, 1)


def _single_point(lam: complex) -> str:
    # the CLI needs two real-axis points; a repeated point colors one lambda
    return _grid_text(lam.real, lam.real, 2, lam.imag, lam.imag, 1)


# ---------------------------------------------------------------------------
# operations


def scan_op(ctx: Context, slot: int, entry_name: str, family_key: str,
            grid_text: str) -> Op:
    entry = ctx.entries[entry_name]
    family = ctx.families[family_key] if family_key else entry.family
    family_ref = ctx.spec_paths[family_key] if family_key else f"gallery:{entry_name}"
    out_dir = ctx.work / f"scan-{slot}"
    argv = ["scan", "--operator", f"gallery:{entry_name}", "--family", family_ref,
            f"--grid={grid_text}", "--out", str(out_dir)]
    if ctx.config_path:
        argv += ["--config", ctx.config_path]

    def check(rc) -> Outcome:
        paths = [out_dir / "spectrum.json", out_dir / "spectrum.csv"]
        with open(paths[0], encoding="utf-8") as handle:
            data = json.load(handle)
        lams = [complex(re, im) for re, im in data["lambdas"]]
        statuses = [[cell["status"] for cell in row] for row in data["cells"]]
        out = grade(entry.expected_spectrum, lams, statuses)
        duality = data["duality"]
        out.ok = rc == 0 and duality["checked"] and not duality["mismatches"]
        out.bytes_written = sum(p.stat().st_size for p in paths)
        pairs = family.admissible_pairs()
        out.cases = [(entry.operator, pairs[pi][0], pairs[pi][1], lam)
                     for pi, row in enumerate(statuses)
                     for lam, s in zip(lams, row) if s != "no-extension"]
        return out

    return Op(f"scan {entry_name}", lambda: ctx.mods.cli.main(argv), check)


def branch_op(ctx: Context, entry_name: str, family_key: str, lam: complex) -> Op:
    """Color lambda on every pair, then the branch report over the resolvent pairs."""
    res = ctx.mods.resolvent
    entry = ctx.entries[entry_name]
    x = entry.operator
    family = ctx.families[family_key] if family_key else entry.family
    pairs = family.admissible_pairs()

    def call():
        statuses = [res.point_status(x, lam, e, f, ctx.cfg) for e, f in pairs]
        return statuses, res.branch_report(x, family, lam, ctx.cfg)

    def check(result) -> Outcome:
        statuses, _report = result
        column = [[s.status] for s in statuses]
        out = grade(entry.expected_spectrum, [lam], column)
        out.cases = [(x, e, f, lam) for (e, f), s in zip(pairs, statuses)
                     if s.status != "no-extension"]
        return out

    return Op(f"branches {entry_name}", call, check)


def neumann_op(ctx: Context, rng) -> Op:
    """`interspec neumann` on the scale generator, pair (H_1, H_0)."""
    res, spaces = ctx.mods.resolvent, ctx.mods.spaces
    entry = ctx.entries["scale-generator"]
    x = entry.operator
    e, f = entry.family.space_at(1), entry.family.space_at(0)
    # Every lambda here stabilizes at n = 2048. The witness n grows with
    # |Re lambda| (8192 near Re = -4.5), and resolvent_solve then builds a
    # dense n x n matrix even for this diagonal operator (about 1 GB at 8192),
    # so a wider region would make peak memory depend on the seed.
    lam0 = complex(rng.uniform(-1.7, -1.5), rng.uniform(-1.0, 1.0))
    # a step of 5% of the certified radius, the distance to the spectrum {1, 2, ...}
    lam = lam0 + 0.05 * abs(1.0 - lam0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    def call():
        continuation = res.neumann_continue(x, lam0, lam, e, f, ctx.cfg)
        probe = spaces.CoefficientVector.unit(x.basis, 0, ctx.cfg.n0)
        via_series = continuation(probe)
        direct = res.resolvent_solve(x, lam, e, f, probe, ctx.cfg).vector
        n = max(via_series.n, direct.n)
        return float(np.max(np.abs(via_series.padded(n) - direct.padded(n))))

    return Op("neumann scale-generator", call, lambda gap: Outcome(ok=gap <= NEUMANN_GAP))


def krein_op(ctx: Context, rng) -> Op:
    """`interspec krein` with g = cos(k x) and two random boundary phases."""
    ext = ctx.mods.extensions
    alpha = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 1.5))
    k = rng.uniform(0.5, 3.0)

    def call():
        quad = ext.UnitIntervalQuadrature(KREIN_NODES)
        g = np.cos(k * quad.nodes).astype(complex)
        result = ext.krein_difference_check(alpha, beta, lam, g, quad, ctx.cfg)
        peak = float(np.max(np.abs(g)))
        return result.residual, 1e-10 * peak if peak > 0 else 1e-10

    return Op("krein", call, lambda r: Outcome(ok=r[0] <= r[1]))


def geneig_op(ctx: Context, lam: float) -> Op:
    n = min(GENEIG_N, ctx.cfg.n_max) if ctx.smoke else GENEIG_N
    call = lambda: ctx.mods.geneig.delta_eigenpair(lam, 1, n, cfg=ctx.cfg)
    return Op("geneig", call, lambda pair: Outcome(ok=pair.residual <= ctx.cfg.ge_tol))


# ---------------------------------------------------------------------------
# rounds


def round_scan_diagonal(ctx: Context, rng) -> list:
    if ctx.smoke:
        grids = [_single_point(complex(0.3, 0.2)), _single_point(complex(2.5, 0.5))]
    else:
        grids = [_jittered_grid(rng, -0.5, 1.5, 12, -0.5, 0.5, 9),
                 _jittered_grid(rng, 0.0, 7.0, 12, -1.0, 1.0, 9)]
    return [scan_op(ctx, 0, "diagonal[1/(n+1)]", "", grids[0]),
            scan_op(ctx, 1, "scale-generator", "", grids[1])]


def round_scan_banded(ctx: Context, rng) -> list:
    grids = [_single_point(complex(-0.5, 0.5))] * 2 if ctx.smoke else \
        [_baseline_line(rng), _baseline_line(rng)]
    return [scan_op(ctx, 0, "multiplier[cos(t)]", "torus-w1", grids[0]),
            scan_op(ctx, 1, "position", "hermite-h23", grids[1])]


def round_scan_ranksum(ctx: Context, rng) -> list:
    grids = [_single_point(complex(0.7, 0.5))] * 2 if ctx.smoke else \
        [_baseline_line(rng), _baseline_line(rng)]
    return [scan_op(ctx, 0, "torus-comb-4", "torus-w1", grids[0]),
            scan_op(ctx, 1, "torus-delta", "torus-w1", grids[1])]


def round_query_solve(ctx: Context, rng) -> list:
    lam_sg = complex(rng.uniform(1.5, 6.5), rng.uniform(0.3, 1.0))
    lam_cos = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.48, 0.52))
    geneig_lams = [0.5] if ctx.smoke else \
        [float(c + rng.uniform(-0.25, 0.25)) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    return ([branch_op(ctx, "scale-generator", "", lam_sg),
             branch_op(ctx, "multiplier[cos(t)]", "torus-w1", lam_cos),
             neumann_op(ctx, rng), krein_op(ctx, rng)]
            + [geneig_op(ctx, lam) for lam in geneig_lams])


def reference_cases_banded(ctx: Context) -> list:
    """Gram-squaring case: position, H_-3 -> H_-3, lambda = 1, n = 256."""
    entry = ctx.entries["position"]
    space = entry.family.space_at(-3)
    return [(entry.operator, space, space, complex(1.0), 256)]


def reference_cases_ranksum(ctx: Context) -> list:
    """Rank-sum adjoint case: torus-delta, W_4 -> W_2, lambda = -2, n = 128."""
    entry = ctx.entries["torus-delta"]
    return [(entry.operator, entry.family.space_at(4), entry.family.space_at(2),
             complex(-2.0), 128)]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple                 # family spec keys loaded during set-up
    build_round: Callable
    reference_cases: Callable = lambda ctx: []


WORKLOADS = {w.name: w for w in (
    Workload("scan-diagonal", (), round_scan_diagonal),
    Workload("scan-banded", ("torus-w1", "hermite-h23"), round_scan_banded,
             reference_cases_banded),
    Workload("scan-ranksum", ("torus-w1",), round_scan_ranksum, reference_cases_ranksum),
    Workload("query-solve", ("torus-w1",), round_query_solve),
)}
