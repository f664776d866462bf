"""Per-pair spectral machinery on finite sections.

Statuses attached to a point lambda for a pair (E, F) with E inside F:

* ``resolvent``       both section views stay uniformly invertible across
                      doublings and the range census is stably zero;
* ``regular-defect``  bounded below, with a stable positive range census;
* ``not-regular``     the pair's limit operators bound the lower constant
                      by numerically zero before any section is taken
                      (`LimitProfile`; every compact pair lands here), the
                      lower constant is numerically zero at some
                      truncation (conclusive, since tall sections only
                      overestimate it), or it shrinks steadily across three
                      doublings (divergence proxy, reported as such);
* ``no-extension``    no certified continuous extension on the pair;
* ``inconclusive``    none of the above could be established by n_max.

One decision colors a point. It applies its rules once each, first match
wins: the certificate, the limit operators, a vanishing lower constant at
some truncation, a vanishing wide-view constant plus census, a stabilized
doubling walk plus census, sustained shrink, and otherwise inconclusive.
Sections are taken along one doubling walk; the census compares the walk's
last two truncations, and "vanishing" means at most ``regular_eps`` times
max(d_high, |lambda|, 1). `point_status`, `regular_point` and
`defect_number` are views of that decision: lambda is in the (E, F)
resolvent set exactly when it is regular with defect 0.

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
import scipy.sparse
import scipy.sparse.linalg

from .config import DEFAULT_CONFIG, GridSpec, RunConfig
from .errors import (CertificateBoundError, NeumannRadiusError, NotCertifiedError,
                     NotInResolventError, NotRegularError, SolveToleranceError)
from .operators import (CERT_FAILED, CoefficientOperator, ContinuityCertificate, certify,
                        certify_pairs)
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
    defect: Optional[object] = None  # the decision's census, None when it never took one

    @property
    def regular(self) -> bool:
        """Did the decision get as far as its census step?"""
        return self.defect is not None


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


def _walk(kernel: PairKernel, lam: complex, cfg: RunConfig) -> tuple:
    """Summaries along the doubling schedule, and why the walk stopped.

    It stops at "stabilized" when the last two lower constants agree within
    ``rel_tol``, at "shrink" when they fell at every doubling and by
    ``growth_threshold`` overall across at least three, and otherwise (None)
    when the truncations run out.
    """
    out = []
    n = cfg.scan_n0
    top = kernel.max_n()
    while n <= top and len(out) < 9:
        out.append(kernel.summary(lam, n, want_census=False))
        lows = [_s_low(s) for s in out]
        if len(lows) >= 2 and abs(lows[-1] - lows[-2]) <= cfg.rel_tol * max(lows[-1], 1e-300):
            return out, "stabilized"
        if (len(lows) >= 4 and all(b <= a for a, b in zip(lows, lows[1:]))
                and lows[0] >= cfg.growth_threshold * lows[-1]):
            return out, "shrink"
        n *= 2
    return out, None


def _limit_status(kernel: PairKernel, lam: complex, cert: ContinuityCertificate,
                  cfg: RunConfig) -> Optional[CellStatus]:
    """``not-regular`` from the pair's limit operators, with no section, or None.

    Every limit operator bounds the lower norm of the weighted section from
    above (see `LimitProfile`), so a bound that lies within ``regular_eps``
    of zero together with its error bar is conclusive. The scale is the
    sections' max(d_high, |lambda|, 1), with the certificate's norm bound in
    place of d_high.
    """
    profile = kernel.limit_profile
    if profile is None:
        return None
    bound, error = profile.bound(lam)
    if bound + error > cfg.regular_eps * max(cert.norm_bound, abs(lam), 1.0):
        return None
    return CellStatus(STATUS_NOT_REGULAR, bound, witness_n=profile.witness_n)


def _decide(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
            cfg: RunConfig, cert: Optional[ContinuityCertificate],
            kernel: Optional[PairKernel]) -> tuple:
    """The one classification of lambda on (E, F), and the summaries it walked
    (none when the certificate or the limit operators decide)."""
    cert = cert if cert is not None else certify(x, e, f, cfg)
    if not cert.certified:
        status = STATUS_NO_EXTENSION if cert.method == CERT_FAILED else STATUS_INCONCLUSIVE
        return CellStatus(status, witness_n=cert.witness_n), []
    kernel = kernel if kernel is not None else PairKernel(x, e, f, cfg)
    decided = _limit_status(kernel, lam, cert, cfg)
    if decided is not None:
        return decided, []
    summaries, stop = _walk(kernel, lam, cfg)
    last = summaries[-1]
    eps = lambda s: cfg.regular_eps * max(s.d_high, abs(lam), 1.0)
    # a vanishing lower bound at any truncation is conclusive
    vanishing = next((s for s in summaries if _s_low(s) <= eps(s)), None)
    if vanishing is not None and vanishing.c_low <= eps(vanishing):
        return CellStatus(STATUS_NOT_REGULAR, vanishing.c_low, vanishing.d_high,
                          witness_n=vanishing.n, stabilized=True), summaries
    if vanishing is None and stop != "stabilized":
        status = STATUS_NOT_REGULAR if stop == "shrink" else STATUS_INCONCLUSIVE
        return CellStatus(status, last.c_low, last.d_high, witness_n=last.n), summaries
    # bounded below, and injective but visibly non-surjective or stabilized:
    # the census must agree at the walk's last two truncations
    lo = kernel.summary(lam, summaries[-2].n, want_census=True) if len(summaries) >= 2 else None
    hi = kernel.summary(lam, last.n, want_census=True)
    defect = hi.census if lo is not None and lo.census is not None \
        and lo.census == hi.census else "unstable"
    if defect == "unstable" or (defect == 0 and vanishing is not None):
        status = STATUS_INCONCLUSIVE
    else:
        status = STATUS_RESOLVENT if defect == 0 else STATUS_REGULAR_DEFECT
    return CellStatus(status, last.c_low, last.d_high, defect, witness_n=last.n,
                      stabilized=stop == "stabilized"), summaries


def point_status(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                 cfg: RunConfig = DEFAULT_CONFIG,
                 cert: Optional[ContinuityCertificate] = None,
                 kernel: Optional[PairKernel] = None) -> CellStatus:
    """Classify one grid point for one pair."""
    return _decide(x, lam, e, f, cfg, cert, kernel)[0]


def regular_point(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG,
                  cert: Optional[ContinuityCertificate] = None,
                  kernel: Optional[PairKernel] = None) -> RegularPointReport:
    """The decision's two-sided constants of the weighted section of X - lambda
    on (E, F), checked against the certificate whenever sections were taken."""
    cert = cert if cert is not None else certify(x, e, f, cfg)
    if not cert.certified:
        raise NotCertifiedError(
            f"regular_point requires a certified extension on ({e.label}, {f.label})")
    status, summaries = _decide(x, lam, e, f, cfg, cert, kernel)
    if summaries and math.isfinite(cert.norm_bound):
        last = summaries[-1]
        bound = cert.norm_bound + abs(lam) * embedding_norm(e, f, cfg)
        if not last.d_high <= bound * (1 + 1e-9) + 1e-12:
            raise CertificateBoundError(
                f"section norm {last.d_high:.6g} at n={last.n} exceeds the certificate "
                f"bound {bound:.6g} on ({e.label}, {f.label})")
    return RegularPointReport(lam, e, f, status.c_low, status.d_high, status.stabilized,
                              status.witness_n, status.defect)


def defect_number(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG) -> DefectReport:
    """The decision's census of near-kernel directions of the wide section in F."""
    kernel = PairKernel(x, e, f, cfg)
    report = regular_point(x, lam, e, f, cfg, kernel=kernel)
    if not report.regular:
        raise NotRegularError(
            f"defect defined only at regular points; lambda={lam} on ({e.label}, {f.label})")
    last = kernel.summary(lam, report.witness_n, want_census=False)
    gap = last.surj_low / max(cfg.defect_eps * last.d_high, 1e-300)
    return DefectReport(lam, e, f, report.defect, float(gap))


def _require_resolvent(status: CellStatus, lam: complex, e: ScaleSpace,
                       f: ScaleSpace) -> CellStatus:
    """``status``, after raising `NotInResolventError` unless it is ``resolvent``."""
    if status.status != STATUS_RESOLVENT:
        raise NotInResolventError(
            f"lambda={lam} has status {status.status!r} on ({e.label}, {f.label})",
            report=status)
    return status


# ---------------------------------------------------------------------------
# solves


def _factorize(x: CoefficientOperator, lam: complex, square) -> Callable:
    """Factor X_n - lambda once, from the n x n ``square`` section of X;
    returns b -> (X_n - lambda)^(-1) b.

    Diagonal representations divide by the shifted symbol (the same floating
    expression as the analytic inverse), sparse sections go through SuperLU
    and dense ones through LAPACK LU.
    """
    n = square.shape[0]
    symbol = x.rep.symbol(x.basis, n)
    if symbol is not None:
        shifted = symbol - lam
        return lambda b: b / shifted
    if scipy.sparse.issparse(square):
        return scipy.sparse.linalg.splu((square - lam * scipy.sparse.identity(n)).tocsc()).solve
    mat = square.astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    lu = scipy.linalg.lu_factor(mat, overwrite_a=True)
    return lambda b: scipy.linalg.lu_solve(lu, b)


def truncated_resolvent_apply(x: CoefficientOperator, lam: complex,
                              eta: CoefficientVector, n: int) -> CoefficientVector:
    """Solve the square truncated system (X_n - lambda) xi = eta."""
    check_same_basis(x, eta)
    return CoefficientVector(x.basis, _factorize(x, lam, x.section(n))(eta.padded(n)))


def resolvent_solve(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                    eta: CoefficientVector, cfg: RunConfig = DEFAULT_CONFIG,
                    status: Optional[CellStatus] = None) -> SolveResult:
    """Apply the per-pair resolvent to eta with a residual contract in F."""
    return _resolvent_solve(x, lam, e, f, eta, cfg, status, {})


def _resolvent_solve(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                     eta: CoefficientVector, cfg: RunConfig, status: Optional[CellStatus],
                     factors: dict) -> SolveResult:
    """``resolvent_solve`` drawing on ``factors``: n -> (solve, residual section)."""
    check_same_basis(x, e, f, eta)
    status = _require_resolvent(status if status is not None
                                else point_status(x, lam, e, f, cfg), lam, e, f)
    eta_f = norm(eta, f)
    n = max(status.witness_n, eta.n)
    while True:
        if n not in factors:
            block = x.section(n + (x.position_bandwidth() or 0), n)
            factors[n] = (_factorize(x, lam, block[:n]), block)
        solve, block = factors[n]
        rows = block.shape[0]
        xi = CoefficientVector(x.basis, solve(eta.padded(n)))
        resid_vec = block @ xi.coeffs - lam * xi.padded(rows) - eta.padded(rows)
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
    """Closure applying R_lambda^(E,F)(X) to coefficient vectors.

    The handle keeps the factorization of each truncation it visits, so every
    vector it is applied to shares one factorization per n.
    """
    frozen_status = status if status is not None else point_status(x, lam, e, f, cfg)
    factors: dict = {}

    def apply(vec: CoefficientVector) -> CoefficientVector:
        return _resolvent_solve(x, lam, e, f, vec, cfg, frozen_status, factors).vector

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
    n = _require_resolvent(point_status(x, lam0, e, f, cfg), lam0, e, f).witness_n
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
        _require_resolvent(point_status(op, point, e, f, cfg), point, e, f)
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
        """The map as one line of JSON with sorted keys.

        Only ``json.dumps`` without indent runs CPython's C encoder, about three
        times as fast as ``json.dump``. That encoder keeps every piece of its
        output until it returns (3 MB for 4860 cells on CPython 3.11), so the
        rows of cells, whose key sorts first, are encoded one at a time.
        """
        data = self.to_json_dict(config)
        cells = data.pop("cells")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"cells": [')
            for i, row in enumerate(cells):
                handle.write((", " if i else "") + json.dumps(row, sort_keys=True))
            handle.write("], " + json.dumps(data, sort_keys=True)[1:] + "\n")

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
    certs = certify_pairs(x, pairs, cfg)
    cells = []
    labels = []
    for (e, f), cert in zip(pairs, certs):
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
        dual_pairs = [(family.dual_of(f), family.dual_of(e)) for e, f in pairs]
        if adj is x:
            by_pair = dict(zip(pairs, certs))
            dual_certs = [by_pair[pair] for pair in dual_pairs]
        else:
            dual_certs = certify_pairs(adj, dual_pairs, cfg)
        for pi, ((ed, fd), cert) in enumerate(zip(dual_pairs, dual_certs)):
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
    pairs = family.admissible_pairs()
    for (e, f), cert in zip(pairs, certify_pairs(x, pairs, cfg)):
        status = point_status(x, lam, e, f, cfg, cert=cert)
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
