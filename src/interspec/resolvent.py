"""Per-pair spectral machinery on finite sections.

Statuses attached to a point lambda for a pair (E, F) with E inside F:

* ``resolvent``       both section views stay uniformly invertible across
                      doublings and the range census is stably zero;
* ``regular-defect``  bounded below, with a stable positive range census;
* ``not-regular``     the lower constant is numerically zero at some
                      truncation (conclusive, since tall sections only
                      overestimate it) or shrinks steadily across three
                      doublings (divergence proxy, reported as such);
* ``no-extension``    no certified continuous extension on the pair;
* ``inconclusive``    none of the above could be established by n_max.

Grid scans never claim set equalities: they color grid points, and the
acceptance layer compares colors against analytic membership predicates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .config import DEFAULT_CONFIG, GridSpec, RunConfig
from .errors import (CertificateBoundError, NeumannRadiusError, NotCertifiedError,
                     NotInResolventError, NotRegularError, SolveToleranceError)
from .operators import CERT_FAILED, CoefficientOperator, ContinuityCertificate, certify
from .sections import PairKernel, SectionSummary
from .spaces import (CoefficientVector, ScaleFamily, ScaleSpace, check_same_basis,
                     embedding_norm, norm)

STATUS_RESOLVENT = "resolvent"
STATUS_REGULAR_DEFECT = "regular-defect"
STATUS_NOT_REGULAR = "not-regular"
STATUS_NO_EXTENSION = "no-extension"
STATUS_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RegularPointReport:
    lam: complex
    e: ScaleSpace
    f: ScaleSpace
    c_low: float
    d_high: float
    stabilized: bool
    witness_n: int

    @property
    def regular(self) -> bool:
        return self.stabilized and self.c_low > 0


@dataclass(frozen=True)
class DefectReport:
    lam: complex
    e: ScaleSpace
    f: ScaleSpace
    defect: object  # nonnegative int or "unstable"
    singular_value_gap: float


@dataclass(frozen=True)
class CellStatus:
    status: str
    c_low: float = float("nan")
    d_high: float = float("nan")
    defect: Optional[object] = None
    witness_n: int = 0
    stabilized: bool = False


@dataclass(frozen=True)
class SolveResult:
    vector: CoefficientVector
    e_norm: float
    residual: float
    witness_n: int


# ---------------------------------------------------------------------------
# point statuses


def _s_low(summary: SectionSummary) -> float:
    """Duality-symmetric lower constant: tall and wide views swap under the
    adjoint-and-dual-pair move, so decisions built on the min stay symmetric."""
    return min(summary.c_low, summary.surj_low)


def _summaries(kernel: PairKernel, lam: complex, cfg: RunConfig,
               want_census: bool) -> list:
    """Section summaries along the doubling schedule, stopping once decided."""
    out = []
    n = cfg.scan_n0
    top = kernel.max_n()
    while n <= top and len(out) < 9:
        out.append(kernel.summary(lam, n, want_census=want_census))
        if len(out) >= 2 and _stabilized(out, cfg):
            break
        lows = [_s_low(s) for s in out]
        if (len(lows) >= 4 and all(b <= a for a, b in zip(lows, lows[1:]))
                and lows[0] >= cfg.growth_threshold * lows[-1]):
            break  # sustained shrink: the trend rule below will classify it
        n *= 2
    return out


def _stabilized(summaries: Sequence[SectionSummary], cfg: RunConfig) -> bool:
    prev, last = _s_low(summaries[-2]), _s_low(summaries[-1])
    return abs(last - prev) <= cfg.rel_tol * max(last, 1e-300)


def _scale(summary: SectionSummary, lam: complex) -> float:
    return max(summary.d_high, abs(lam), 1.0)


def point_status(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                 cfg: RunConfig = DEFAULT_CONFIG,
                 cert: Optional[ContinuityCertificate] = None,
                 kernel: Optional[PairKernel] = None) -> CellStatus:
    """Classify one grid point for one pair."""
    cert = cert if cert is not None else certify(x, e, f, cfg)
    if not cert.certified:
        status = STATUS_NO_EXTENSION if cert.method == CERT_FAILED else STATUS_INCONCLUSIVE
        return CellStatus(status, witness_n=cert.witness_n)
    kernel = kernel if kernel is not None else PairKernel(x, e, f, cfg)
    summaries = _summaries(kernel, lam, cfg, want_census=False)
    last = summaries[-1]

    def census_pair():
        # censuses are fetched lazily; most cells never need one
        lo = kernel.summary(lam, summaries[-2].n, want_census=True) \
            if len(summaries) >= 2 else None
        hi = kernel.summary(lam, last.n, want_census=True)
        stable = (lo is not None and lo.census is not None
                  and lo.census == hi.census)
        return (hi.census if stable else "unstable")

    # a vanishing lower bound at any truncation is conclusive
    for s in summaries:
        if min(s.c_low, s.surj_low) <= cfg.regular_eps * _scale(s, lam):
            if s.c_low <= cfg.regular_eps * _scale(s, lam):
                return CellStatus(STATUS_NOT_REGULAR, s.c_low, s.d_high,
                                  witness_n=s.n, stabilized=True)
            # injective but visibly non-surjective: report the census
            defect = census_pair()
            status = STATUS_REGULAR_DEFECT if defect not in (0, "unstable") \
                else STATUS_INCONCLUSIVE
            return CellStatus(status, last.c_low, last.d_high, defect,
                              witness_n=last.n, stabilized=_stabilized(summaries, cfg))

    if len(summaries) >= 2 and _stabilized(summaries, cfg):
        defect = census_pair()
        if defect == 0:
            return CellStatus(STATUS_RESOLVENT, last.c_low, last.d_high, 0,
                              witness_n=last.n, stabilized=True)
        if defect == "unstable":
            return CellStatus(STATUS_INCONCLUSIVE, last.c_low, last.d_high, defect,
                              witness_n=last.n, stabilized=True)
        return CellStatus(STATUS_REGULAR_DEFECT, last.c_low, last.d_high, defect,
                          witness_n=last.n, stabilized=True)

    lows = [_s_low(s) for s in summaries]
    if (len(lows) >= 4 and all(b <= a for a, b in zip(lows, lows[1:]))
            and lows[0] >= cfg.growth_threshold * lows[-1]):
        return CellStatus(STATUS_NOT_REGULAR, last.c_low, last.d_high,
                          witness_n=last.n, stabilized=False)
    return CellStatus(STATUS_INCONCLUSIVE, last.c_low, last.d_high,
                      witness_n=last.n, stabilized=False)


def regular_point(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG,
                  cert: Optional[ContinuityCertificate] = None) -> RegularPointReport:
    """Best two-sided constants of the weighted section of X - lambda on (E, F)."""
    cert = cert if cert is not None else certify(x, e, f, cfg)
    if not cert.certified:
        raise NotCertifiedError(
            f"regular_point requires a certified extension on ({e.label}, {f.label})")
    kernel = PairKernel(x, e, f, cfg)
    summaries = _summaries(kernel, lam, cfg, want_census=False)
    last = summaries[-1]
    stabilized = len(summaries) >= 2 and _stabilized(summaries, cfg)
    if math.isfinite(cert.norm_bound):
        bound = cert.norm_bound + abs(lam) * embedding_norm(e, f, cfg)
        if not last.d_high <= bound * (1 + 1e-9) + 1e-12:
            raise CertificateBoundError(
                f"section norm {last.d_high:.6g} at n={last.n} exceeds the certificate "
                f"bound {bound:.6g} on ({e.label}, {f.label})")
    return RegularPointReport(lam, e, f, last.c_low, last.d_high, stabilized, last.n)


def defect_number(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG) -> DefectReport:
    """Stable census of near-kernel directions of the wide section in F."""
    report = regular_point(x, lam, e, f, cfg)
    if not report.regular or report.c_low <= cfg.regular_eps * max(report.d_high, 1.0):
        raise NotRegularError("defect defined only at regular points")
    kernel = PairKernel(x, e, f, cfg)
    s1 = kernel.summary(lam, report.witness_n, want_census=True)
    s2 = kernel.summary(lam, min(2 * report.witness_n, kernel.max_n()), want_census=True)
    if s1.census is None or s2.census is None or s1.census != s2.census:
        defect: object = "unstable"
    else:
        defect = s2.census
    gap = s2.surj_low / max(cfg.defect_eps * s2.d_high, 1e-300)
    return DefectReport(lam, e, f, defect, float(gap))


# ---------------------------------------------------------------------------
# solves


def truncated_resolvent_apply(x: CoefficientOperator, lam: complex,
                              eta: CoefficientVector, n: int) -> CoefficientVector:
    """Solve the square truncated system (X_n - lambda) xi = eta.

    Diagonal representations invert the symbol entrywise (the same floating
    expression as the analytic inverse); everything else goes through LU.
    """
    check_same_basis(x, eta)
    symbol = x.rep.symbol(x.basis, n)
    if symbol is not None:
        return CoefficientVector(x.basis, eta.padded(n) / (symbol - lam))
    mat = x.matrix(n).astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    xi = scipy.linalg.solve(mat, eta.padded(n))
    return CoefficientVector(x.basis, xi)


def resolvent_solve(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                    eta: CoefficientVector, cfg: RunConfig = DEFAULT_CONFIG,
                    status: Optional[CellStatus] = None) -> SolveResult:
    """Apply the per-pair resolvent to eta with a residual contract in F."""
    check_same_basis(x, e, f, eta)
    status = status if status is not None else point_status(x, lam, e, f, cfg)
    if status.status != STATUS_RESOLVENT:
        raise NotInResolventError(
            f"lambda={lam} has status {status.status!r} on ({e.label}, {f.label})",
            report=status)
    eta_f = norm(eta, f)
    n = max(status.witness_n, eta.n)
    while True:
        xi = truncated_resolvent_apply(x, lam, eta, n)
        rows = n + (x.position_bandwidth() or 0)
        resid_vec = x.matrix(rows, n) @ xi.coeffs - lam * xi.padded(rows) - eta.padded(rows)
        residual = norm(CoefficientVector(x.basis, resid_vec), f)
        if residual <= cfg.solve_tol * max(eta_f, 1e-300):
            return SolveResult(xi, norm(xi, e), residual, n)
        if n >= cfg.n_max:
            raise SolveToleranceError(
                f"residual {residual:.3e} above solve_tol*|eta|_F at n_max={cfg.n_max}")
        n = min(2 * n, cfg.n_max)


def solver_handle(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG,
                  status: Optional[CellStatus] = None) -> Callable:
    """Closure applying R_lambda^(E,F)(X) to coefficient vectors."""
    frozen_status = status if status is not None else point_status(x, lam, e, f, cfg)

    def apply(vec: CoefficientVector) -> CoefficientVector:
        return resolvent_solve(x, lam, e, f, vec, cfg, status=frozen_status).vector

    apply.pair = (e, f)  # type: ignore[attr-defined]
    apply.lam = lam      # type: ignore[attr-defined]
    return apply


# ---------------------------------------------------------------------------
# Neumann continuation


@dataclass(frozen=True)
class NeumannContinuation:
    center: complex
    target: complex
    radius: float
    terms: int
    apply: Callable

    def __call__(self, vec: CoefficientVector) -> CoefficientVector:
        return self.apply(vec)


def _weighted_op_norm(mat: np.ndarray, domain: ScaleSpace, target: ScaleSpace) -> float:
    n = mat.shape[0]
    wt = target.weights(n)
    wd = domain.weights(n)
    return float(np.linalg.svd(mat * wt[:, None] / wd[None, :], compute_uv=False)[0])


def neumann_continue(x: CoefficientOperator, lam0: complex, lam: complex,
                     e: ScaleSpace, f: ScaleSpace,
                     cfg: RunConfig = DEFAULT_CONFIG,
                     check_radius: bool = True) -> NeumannContinuation:
    """Partial-sum continuation of the resolvent from lam0 toward lam.

    The disk radius is 1/|R_lam0 restricted to E|; the number of terms is
    chosen so the geometric tail bound (restriction norm to the n-1, times
    the F-to-E norm once) falls below series_tol.
    """
    if not math.isfinite(embedding_norm(e, f, cfg)):
        raise NotCertifiedError("Neumann continuation requires E embedded in F")
    status = point_status(x, lam0, e, f, cfg)
    if status.status != STATUS_RESOLVENT:
        raise NotInResolventError(
            f"center lambda0={lam0} not in the ({e.label}, {f.label}) resolvent set",
            report=status)
    n = status.witness_n
    probe = max(n, 4096)
    entries = _diagonal_inverse(x, lam0, probe)
    if entries is not None:
        norm_ee = float(np.max(np.abs(entries)))
        norm_fe = float(np.max(np.abs(entries) * e.weights(probe) / f.weights(probe)))
        r0 = entries[:n]
    else:
        r0 = _resolvent_matrix(x, lam0, n)
        norm_ee = _weighted_op_norm(r0, e, e)
        norm_fe = _weighted_op_norm(r0, f, e)
    radius = 1.0 / norm_ee
    step = abs(lam - lam0)
    if check_radius and step >= radius:
        raise NeumannRadiusError(
            f"|lambda-lambda0|={step:.6g} outside Neumann radius {radius:.6g}")
    if step == 0:
        terms = 0
    else:
        q = step * norm_ee
        if q >= 1:
            terms = 64  # outside the certified disk; caller asked to force it
        else:
            # tail after K terms is bounded by norm_fe * q^(K+1) / (1 - q)
            terms = max(0, math.ceil(math.log(cfg.series_tol * (1 - q)
                                              / max(norm_fe, 1e-300)) / math.log(q)) - 1)
            terms = min(terms, 10_000)

    apply_r0 = (lambda v: r0 * v) if r0.ndim == 1 else (lambda v: r0 @ v)

    def apply(vec: CoefficientVector) -> CoefficientVector:
        acc = apply_r0(vec.padded(n))
        term = acc.copy()
        for _ in range(terms):
            term = (lam - lam0) * apply_r0(term)
            acc = acc + term
        return CoefficientVector(x.basis, acc)

    return NeumannContinuation(lam0, lam, radius, terms, apply)


def _diagonal_inverse(x: CoefficientOperator, lam: complex, n: int) -> Optional[np.ndarray]:
    """Diagonal of (X_n - lambda)^(-1) when X is diagonal, else None."""
    symbol = x.rep.symbol(x.basis, n)
    return None if symbol is None else 1.0 / (symbol - lam)


def _resolvent_matrix(x: CoefficientOperator, lam: complex, n: int) -> np.ndarray:
    inverse = _diagonal_inverse(x, lam, n)
    if inverse is not None:
        return np.diag(inverse)
    mat = x.matrix(n).astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# resolvent identities and equivalence


@dataclass(frozen=True)
class IdentityResiduals:
    difference: float        # first identity, in the F -> E operator norm
    displacement: float      # second identity
    difference_bound: float  # id_tol times the product of factor norms
    displacement_bound: float

    @property
    def passed(self) -> bool:
        return (self.difference <= self.difference_bound
                and self.displacement <= self.displacement_bound)


def resolvent_identity_residuals(x: CoefficientOperator, y: CoefficientOperator,
                                 lam: complex, mu: complex,
                                 e: ScaleSpace, f: ScaleSpace,
                                 cfg: RunConfig = DEFAULT_CONFIG,
                                 n: Optional[int] = None) -> IdentityResiduals:
    """Residuals of both resolvent identities at the working truncation."""
    for op, point in ((x, lam), (y, lam), (x, mu)):
        status = point_status(op, point, e, f, cfg)
        if status.status != STATUS_RESOLVENT:
            raise NotInResolventError(
                f"point {point} not in the pair resolvent set of {op.describe()}",
                report=status)
    n = n if n is not None else cfg.n0
    rx = _resolvent_matrix(x, lam, n)
    ry = _resolvent_matrix(y, lam, n)
    rx_mu = _resolvent_matrix(x, mu, n)
    xm = x.matrix(n)
    ym = y.matrix(n)
    # with R = (A - lam)^(-1): R(X) - R(Y) = R(X) (Y - X) R(Y)
    first = rx - ry - rx @ (ym - xm) @ ry
    second = rx - rx_mu - (lam - mu) * rx @ rx_mu
    nrm = lambda m: _weighted_op_norm(m, f, e)
    first_scale = nrm(rx) * _weighted_op_norm(xm - ym, e, f) * nrm(ry)
    second_scale = abs(lam - mu) * nrm(rx) * nrm(rx_mu) + nrm(rx) + nrm(rx_mu)
    return IdentityResiduals(nrm(first), nrm(second),
                             cfg.id_tol * max(first_scale, 1.0),
                             cfg.id_tol * max(second_scale, 1.0))


def equivalent(b: Callable, c: Callable, cfg: RunConfig = DEFAULT_CONFIG,
               probes: Optional[Sequence] = None,
               norm_space: Optional[ScaleSpace] = None) -> bool:
    """Do two solver handles agree on the probe vectors?

    Probes default to the first ``equiv_probes`` coefficient basis vectors;
    agreement is measured in the finest available norm (``norm_space``) or
    the plain l2 norm, relative to the larger output.
    """
    if probes is None:
        pair = getattr(b, "pair", None)
        if pair is None:
            raise ValueError("handles without .pair need explicit probes")
        basis = pair[0].basis
        n = cfg.equiv_probes
        probes = [CoefficientVector.unit(basis, j, n) for j in range(cfg.equiv_probes)]
    for probe in probes:
        out_b = b(probe)
        out_c = c(probe)
        if isinstance(out_b, CoefficientVector):
            n = max(out_b.n, out_c.n)
            diff = CoefficientVector(out_b.basis, out_b.padded(n) - out_c.padded(n))
            size = norm(diff, norm_space) if norm_space is not None else \
                float(np.linalg.norm(diff.coeffs))
            ref = norm(out_b, norm_space) if norm_space is not None else \
                float(np.linalg.norm(out_b.padded(n)))
        else:
            size = float(np.max(np.abs(np.asarray(out_b) - np.asarray(out_c))))
            ref = float(np.max(np.abs(np.asarray(out_b))))
        if size > cfg.eq_tol * max(ref, 1.0):
            return False
    return True


# ---------------------------------------------------------------------------
# grid scans and the union spectrum


@dataclass
class SpectrumMap:
    grid: GridSpec
    pair_labels: list
    certificates: list
    cells: list              # cells[pair_index][lambda_index] -> CellStatus
    union_resolvent: list    # booleans per lambda index
    lambdas: list
    duality_mismatches: Optional[list] = None
    duality_checked: bool = False

    def to_json_dict(self, config: Optional[RunConfig] = None) -> dict:
        data = {
            "grid": self.grid.to_dict(),
            "pairs": self.pair_labels,
            "certificates": [c.to_dict() for c in self.certificates],
            "lambdas": [[z.real, z.imag] for z in self.lambdas],
            "union_resolvent": self.union_resolvent,
            "cells": [
                [
                    {
                        "status": cell.status,
                        "c_low": _json_float(cell.c_low),
                        "d_high": _json_float(cell.d_high),
                        "defect": cell.defect if isinstance(cell.defect, int) else
                        (cell.defect or ""),
                        "witness_n": cell.witness_n,
                        "stabilized": cell.stabilized,
                    }
                    for cell in row
                ]
                for row in self.cells
            ],
            "duality": {
                "checked": self.duality_checked,
                "mismatches": self.duality_mismatches or [],
            },
        }
        if config is not None:
            data["config"] = config.to_dict()
        return data

    def write_json(self, path: str, config: Optional[RunConfig] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(config), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["re_lambda", "im_lambda", "pair", "status",
                             "c_low", "d_high", "defect", "witness_n", "union_resolvent"])
            for li, lam in enumerate(self.lambdas):
                for pi, label in enumerate(self.pair_labels):
                    cell = self.cells[pi][li]
                    writer.writerow([
                        repr(lam.real), repr(lam.imag), label, cell.status,
                        _csv_float(cell.c_low), _csv_float(cell.d_high),
                        cell.defect if isinstance(cell.defect, int) else (cell.defect or ""),
                        cell.witness_n, int(self.union_resolvent[li]),
                    ])


def _json_float(x: float) -> object:
    return x if math.isfinite(x) else repr(x)


def _csv_float(x: float) -> str:
    return repr(float(x))


def union_spectrum_scan(x: CoefficientOperator, family: ScaleFamily, grid: GridSpec,
                        cfg: RunConfig = DEFAULT_CONFIG) -> SpectrumMap:
    """Color every admissible pair at every grid point; union over pairs.

    When the family is closed under duality the scan also verifies, per cell,
    that resolvent membership of lambda for (E, F) matches membership of
    conj(lambda) for (F^x, E^x) with the adjoint operator.
    """
    lambdas = list(grid.points())
    pairs = family.admissible_pairs()
    cert_cache: dict = {}

    def cert_for(op, e, f):
        key = (op.describe(), id(op), e.index, f.index)
        if key not in cert_cache:
            cert_cache[key] = certify(op, e, f, cfg)
        return cert_cache[key]

    cells = []
    certs = []
    labels = []
    for e, f in pairs:
        cert = cert_for(x, e, f)
        certs.append(cert)
        labels.append(f"{e.label}->{f.label}")
        kernel = PairKernel(x, e, f, cfg)
        row = [point_status(x, lam, e, f, cfg, cert=cert, kernel=kernel)
               for lam in lambdas]
        cells.append(row)

    union = [any(cells[pi][li].status == STATUS_RESOLVENT for pi in range(len(pairs)))
             for li in range(len(lambdas))]

    mismatches = None
    checked = False
    if cfg.duality_check and family.closed_under_duality and pairs:
        checked = True
        mismatches = []
        adj = x.adjoint()
        for pi, (e, f) in enumerate(pairs):
            ed, fd = family.dual_of(f), family.dual_of(e)
            cert = cert_for(adj, ed, fd)
            kernel = PairKernel(adj, ed, fd, cfg)
            for li, lam in enumerate(lambdas):
                dual_status = point_status(adj, lam.conjugate(), ed, fd, cfg,
                                           cert=cert, kernel=kernel)
                primal = cells[pi][li].status == STATUS_RESOLVENT
                dual = dual_status.status == STATUS_RESOLVENT
                if primal != dual:
                    mismatches.append({
                        "lambda": [lam.real, lam.imag],
                        "pair": labels[pi],
                        "primal": cells[pi][li].status,
                        "dual": dual_status.status,
                    })

    return SpectrumMap(grid, labels, certs, cells, union, lambdas,
                       duality_mismatches=mismatches, duality_checked=checked)


# ---------------------------------------------------------------------------
# branch reports


@dataclass(frozen=True)
class BranchReport:
    lam: complex
    pair_labels: list
    equivalences: list  # [[i, j, bool], ...] over resolvent pairs

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "pairs": self.pair_labels,
            "equivalences": self.equivalences,
        }


def branch_report(x: CoefficientOperator, family: ScaleFamily, lam: complex,
                  cfg: RunConfig = DEFAULT_CONFIG) -> BranchReport:
    """Solver handles for every pair containing lambda, with pairwise equivalence."""
    handles = []
    labels = []
    for e, f in family.admissible_pairs():
        status = point_status(x, lam, e, f, cfg)
        if status.status == STATUS_RESOLVENT:
            handles.append(solver_handle(x, lam, e, f, cfg, status=status))
            labels.append(f"{e.label}->{f.label}")
    finest = family.finest if len(family) else None
    equivalences = []
    for i in range(len(handles)):
        for j in range(i + 1, len(handles)):
            same = equivalent(handles[i], handles[j], cfg, norm_space=finest)
            equivalences.append([i, j, bool(same)])
    return BranchReport(lam, labels, equivalences)
