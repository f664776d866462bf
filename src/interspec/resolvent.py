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

One decision colors a pair's row of points. It applies its rules once
each per point, first match wins: the certificate, the limit operators, a
vanishing lower constant at some truncation, a vanishing wide-view constant
plus census, a stabilized doubling walk plus census, sustained shrink, and
otherwise inconclusive. Sections are taken along one doubling walk per
point; the census compares the walk's last two truncations, and "vanishing"
means at most ``regular_eps`` times max(d_high, |lambda|, 1). The
certificate and the limit operators answer for the whole row at once. The
walks run in lock step, each doubling summarizing every point still walking
(`Representation.summaries`; a diagonal one from blocks of the row), and
every summary carries its census. Scans decide rows, and
`point_status`, `regular_point` and `defect_number` are views of the
one-point row: lambda is in the (E, F) resolvent set exactly when it is
regular with defect 0.

A decision reads only the pair's kernel that the operator holds
(`CoefficientOperator.kernel`): its certificate, its limit profile, and the
summaries of the lambda it last walked. So queries on one operator certify
and probe each pair once, and a branch report at the lambda just colored
reads the summaries of that coloring. Another certificate goes in only
through the held kernel (``x.kernel(e, f, cfg).cert``).

Grid scans never claim set equalities: they color grid points, and the
acceptance layer compares colors against analytic membership predicates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, GridSpec, RunConfig
from .errors import (CertificateBoundError, NeumannRadiusError, NotCertifiedError,
                     NotInResolventError, NotRegularError, SolveToleranceError)
from .operators import CERT_FAILED, CoefficientOperator, certify, certify_pairs
from .sections import PairKernel
from .spaces import (CoefficientVector, ScaleFamily, ScaleSpace, check_same_basis,
                     column_norms, embedding_norm, norm)

STATUS_RESOLVENT = "resolvent"
STATUS_REGULAR_DEFECT = "regular-defect"
STATUS_NOT_REGULAR = "not-regular"
STATUS_NO_EXTENSION = "no-extension"
STATUS_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CellStatus:
    status: str
    c_low: float = float("nan")
    d_high: float = float("nan")
    defect: Optional[object] = None
    witness_n: int = 0
    stabilized: bool = False

    @property
    def regular(self) -> bool:
        """Did the decision get as far as its census step?"""
        return self.defect is not None


@dataclass(frozen=True)
class SolveResult:
    vector: CoefficientVector
    e_norm: float
    residual: float
    witness_n: int


# ---------------------------------------------------------------------------
# point statuses


_STABILIZED, _SHRINK = 1, 2  # why a doubling walk stopped; 0 when its truncations ran out


def _limit_status(kernel: PairKernel, lams: np.ndarray) -> list:
    """For each lambda of ``lams``: ``not-regular`` from the pair's limit
    operators, with no section, or None.

    Every limit operator bounds the lower norm of the weighted section from
    above (see `LimitProfile`), so a bound that lies within ``regular_eps``
    of zero together with its error bar is conclusive. The scale is the
    sections' max(d_high, |lambda|, 1), with the norm bound of the kernel's
    certificate in place of d_high. One `LimitProfile.bound` call serves the
    whole row.
    """
    profile = kernel.limit_profile
    if profile is None:
        return [None] * len(lams)
    bound, error = profile.bound(lams)
    scale = np.maximum(np.maximum(kernel.cert.norm_bound, np.hypot(lams.real, lams.imag)), 1.0)
    undecided = bound + error > kernel.cfg.regular_eps * scale
    made: dict = {}  # one cell per bound: a compact pair's row is all zeros
    return [None if skip else made.get(value) or made.setdefault(
                value, CellStatus(STATUS_NOT_REGULAR, value, witness_n=profile.witness_n))
            for skip, value in zip(undecided.tolist(), bound.tolist())]


def _walk(kernel: PairKernel, lams: np.ndarray) -> tuple:
    """The cells of ``lams`` decided by doubling walks in lock step, and for
    each the (n, d_high) of its last summary.

    A walk stops at "stabilized" when its last two lower constants agree within
    ``rel_tol``, at "shrink" when they fell at every doubling and by
    ``growth_threshold`` overall across at least three, and otherwise when the
    truncations run out. The lower constant is min(c_low, surj_low): tall and
    wide views swap under the adjoint-and-dual-pair move, so decisions built
    on it stay symmetric.
    """
    cfg, rep = kernel.cfg, kernel.x.rep
    count, abs_lam = len(lams), np.hypot(lams.real, lams.imag)
    stop, last_n, vanish_n = np.zeros((3, count), dtype=int)  # vanish_n 0: nothing vanished
    last_c, last_d, vanish_c, vanish_d, first, prev = np.zeros((6, count))
    vanish_tall, falling = np.zeros(count, dtype=bool), np.ones(count, dtype=bool)
    censuses = np.zeros((2, count), dtype=int)  # at the last two truncations
    live, n, top, taken = np.arange(count), cfg.scan_n0, rep.max_n(cfg), 0
    while n <= top and taken < 9 and live.size:
        c_low, d_high, surj_low, census = rep.summaries(kernel, lams[live], n)
        low = np.where(surj_low < c_low, surj_low, c_low)  # min(), NaN and all
        eps = cfg.regular_eps * np.maximum(np.maximum(d_high, abs_lam[live]), 1.0)
        new = (vanish_n[live] == 0) & (low <= eps)
        hit = live[new]
        vanish_n[hit], vanish_c[hit], vanish_d[hit] = n, c_low[new], d_high[new]
        vanish_tall[hit] = c_low[new] <= eps[new]
        if not taken:
            first[live] = prev[live] = low
        was = prev[live]
        stable = (np.abs(low - was) <= cfg.rel_tol * np.maximum(low, 1e-300)) & (taken > 0)
        falling[live] &= low <= was
        shrink = ~stable & falling[live] & (first[live] >= cfg.growth_threshold * low) \
            & (taken >= 3)
        prev[live], last_n[live], last_c[live], last_d[live] = low, n, c_low, d_high
        censuses[0, live], censuses[1, live] = censuses[1, live], census
        stop[live[stable]], stop[live[shrink]] = _STABILIZED, _SHRINK
        live = live[~(stable | shrink)]
        n, taken = 2 * n, taken + 1
    cells = []
    for why, n, c, d, v_n, v_c, v_d, v_tall, lo, hi in zip(
            *(a.tolist() for a in (stop, last_n, last_c, last_d, vanish_n, vanish_c, vanish_d,
                                   vanish_tall)), *censuses.tolist()):
        if v_n and v_tall:  # a vanishing lower bound at any truncation is conclusive
            cells.append(CellStatus(STATUS_NOT_REGULAR, v_c, v_d, witness_n=v_n, stabilized=True))
            continue
        if not v_n and why != _STABILIZED:
            status = STATUS_NOT_REGULAR if why == _SHRINK else STATUS_INCONCLUSIVE
            cells.append(CellStatus(status, c, d, witness_n=n))
            continue
        # bounded below, and injective but visibly non-surjective or stabilized:
        # the census must agree at the walk's last two truncations (of which a
        # walk of one summary has one)
        defect = hi if n > cfg.scan_n0 and lo == hi else "unstable"
        status = STATUS_INCONCLUSIVE if defect == "unstable" or (defect == 0 and v_n) else \
            STATUS_RESOLVENT if defect == 0 else STATUS_REGULAR_DEFECT
        cells.append(CellStatus(status, c, d, defect, witness_n=n, stabilized=why == _STABILIZED))
    return cells, list(zip(last_n.tolist(), last_d.tolist()))


def _decide(x: CoefficientOperator, lams, e: ScaleSpace, f: ScaleSpace,
            cfg: RunConfig) -> tuple:
    """The one classification of each lambda of ``lams`` on (E, F), and for each
    the (n, d_high) of the last summary it walked (None when the certificate or
    the limit operators decide, each once for the whole row). The rest, if any,
    walks in lock step. Everything is read from the pair's held kernel
    (`CoefficientOperator.kernel`).
    """
    lams = np.asarray(lams, dtype=complex)
    cert = certify(x, e, f, cfg)
    if not cert.certified:
        status = STATUS_NO_EXTENSION if cert.method == CERT_FAILED else STATUS_INCONCLUSIVE
        return [CellStatus(status, witness_n=cert.witness_n)] * len(lams), [None] * len(lams)
    kernel = x.kernel(e, f, cfg)
    cells = _limit_status(kernel, lams)
    lasts = [None] * len(lams)
    walking = [i for i, cell in enumerate(cells) if cell is None]
    if walking:
        for i, cell, last in zip(walking, *_walk(kernel, lams[walking])):
            cells[i], lasts[i] = cell, last
    return cells, lasts


def point_status(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                 cfg: RunConfig = DEFAULT_CONFIG) -> CellStatus:
    """Classify one grid point for one pair: the one-point row of the decision."""
    return _decide(x, [lam], e, f, cfg)[0][0]


def regular_point(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG) -> CellStatus:
    """The decision's cell, with the two-sided constants of the weighted section
    of X - lambda on (E, F), checked against the certificate whenever sections
    were taken."""
    cert = certify(x, e, f, cfg)
    if not cert.certified:
        raise NotCertifiedError(
            f"regular_point requires a certified extension on ({e.label}, {f.label})")
    [status], [last] = _decide(x, [lam], e, f, cfg)
    if last is not None and math.isfinite(cert.norm_bound):
        n, d_high = last
        bound = cert.norm_bound + abs(lam) * embedding_norm(e, f, cfg)
        if not d_high <= bound * (1 + 1e-9) + 1e-12:
            raise CertificateBoundError(
                f"section norm {d_high:.6g} at n={n} exceeds the certificate "
                f"bound {bound:.6g} on ({e.label}, {f.label})")
    return status


def defect_number(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG) -> CellStatus:
    """The decision's cell at a regular point, whose ``defect`` is the census of
    near-kernel directions of the wide section in F."""
    status = regular_point(x, lam, e, f, cfg)
    if not status.regular:
        raise NotRegularError(
            f"defect defined only at regular points; lambda={lam} on ({e.label}, {f.label})")
    return status


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


def truncated_resolvent_apply(x: CoefficientOperator, lam: complex,
                              eta: CoefficientVector, n: int) -> CoefficientVector:
    """Solve the square truncated system (X_n - lambda) xi = eta."""
    check_same_basis(x, eta)
    xi = x.rep.factorize(x.basis, lam, n)(eta.padded(n)[:, None])
    return CoefficientVector(x.basis, xi[:, 0])


def resolvent_solve(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                    eta: CoefficientVector, cfg: RunConfig = DEFAULT_CONFIG,
                    status: Optional[CellStatus] = None) -> SolveResult:
    """Apply the per-pair resolvent to eta with a residual contract in F: the
    one-column view of the block solve `_resolvent_solve`."""
    check_same_basis(x, eta)
    [(xi, residual, n)] = _resolvent_solve(x, lam, e, f, eta.coeffs[:, None], cfg, status,
                                           {}, {})
    return SolveResult(xi, norm(xi, e), residual, n)


def _resolvent_solve(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                     eta: np.ndarray, cfg: RunConfig, status: Optional[CellStatus],
                     factors: dict, solved: dict) -> list:
    """(solution, F-residual, truncation) of each column of ``eta`` (rows are
    coefficient slots). Each column stops at the first truncation where its
    F-residual is at most ``solve_tol`` times its F-norm; only the columns
    that miss go on to the next doubling.

    Neither the truncated system (X_n - lambda) xi = eta nor its residual
    depends on the pair: (E, F) enters only through the truncation each
    column starts from (the status's ``witness_n``) and the F-norms that
    stop it. So ``factors`` (n -> (solve, residual section)) may be shared by
    any calls on X at lambda, and ``solved`` (n -> solutions, residuals and a
    solved mask, one row per column of ``eta``) by calls on the same ``eta`` on
    several pairs, as the branches of one report do: each (n, column) is then
    factored and solved once for all of them."""
    check_same_basis(x, e, f)
    status = _require_resolvent(status if status is not None
                                else point_status(x, lam, e, f, cfg), lam, e, f)
    eta_f = column_norms(eta, f)
    results, todo = [None] * eta.shape[1], np.arange(eta.shape[1])
    n = max(status.witness_n, len(eta))
    while True:
        if n not in factors:
            block = x.section(n + (x.position_bandwidth() or 0), n)
            factors[n] = (x.rep.factorize(x.basis, lam, n, block[:n]), block)
        if n not in solved:
            rows = factors[n][1].shape[0]
            solved[n] = (np.empty((eta.shape[1], n), dtype=complex),
                         np.empty((eta.shape[1], rows), dtype=complex),
                         np.zeros(eta.shape[1], dtype=bool))
        xi_rows, resid_rows, done = solved[n]  # one row per column of eta
        new = todo[~done[todo]]
        if new.size:
            solve, block = factors[n]
            rhs = eta[:, new]
            xi = solve(np.pad(rhs, ((0, n - len(rhs)), (0, 0))))
            resid = block @ xi
            resid[:n] -= lam * xi
            resid[:len(rhs)] -= rhs
            xi_rows[new], resid_rows[new], done[new] = xi.T, resid.T, True
        residual = column_norms(resid_rows[todo].T, f)
        met = residual <= cfg.solve_tol * np.maximum(eta_f[todo], 1e-300)
        for j, r in zip(todo[met].tolist(), residual[met].tolist()):
            results[j] = (CoefficientVector(x.basis, xi_rows[j]), r, n)
        todo = todo[~met]
        if not todo.size:
            return results
        if n >= cfg.n_max:
            raise SolveToleranceError(f"residual {float(np.max(residual[~met])):.3e} above "
                                      f"solve_tol*|eta|_F at n_max={cfg.n_max}")
        n = min(2 * n, cfg.n_max)


def solver_handle(x: CoefficientOperator, lam: complex, e: ScaleSpace, f: ScaleSpace,
                  cfg: RunConfig = DEFAULT_CONFIG,
                  status: Optional[CellStatus] = None) -> Callable:
    """Closure applying R_lambda^(E,F)(X) to coefficient vectors, each the
    one-column view of the block solve `_resolvent_solve`.

    The handle keeps the factorization of each truncation it visits, so every
    vector it is applied to shares one factorization per n; each vector is
    solved afresh.
    """
    frozen_status = status if status is not None else point_status(x, lam, e, f, cfg)
    factors: dict = {}

    def apply(vec: CoefficientVector) -> CoefficientVector:
        check_same_basis(x, vec)
        return _resolvent_solve(x, lam, e, f, vec.coeffs[:, None], cfg, frozen_status,
                                factors, {})[0][0]

    apply.pair = (e, f)  # type: ignore[attr-defined]
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

    Every term applies R_lam0 = (X_n - lam0)^(-1) at the witness truncation n
    through its one factorization (`Representation.factorize`). The disk
    radius is 1/|R_lam0 restricted to E|; the number of terms is chosen so
    the geometric tail bound (restriction norm to the n-1, times the F-to-E
    norm once) falls below series_tol. Both norms come from a dense SVD of
    R_lam0, except where X has position bandwidth 0: R_lam0 is then
    diagonal, and they are maxima over its diagonal on max(n, 4096) slots,
    the factorization there applied to a column of ones.
    """
    if not math.isfinite(embedding_norm(e, f, cfg)):
        raise NotCertifiedError("Neumann continuation requires E embedded in F")
    n = _require_resolvent(point_status(x, lam0, e, f, cfg), lam0, e, f).witness_n
    solve = x.rep.factorize(x.basis, lam0, n)
    if x.position_bandwidth() == 0:
        probe = max(n, 4096)
        diagonal = np.abs(x.rep.factorize(x.basis, lam0, probe)(
            np.ones((probe, 1)))[:, 0])
        norm_ee = float(np.max(diagonal))
        norm_fe = float(np.max(diagonal * e.weights(probe) / f.weights(probe)))
    else:
        r0 = solve(np.eye(n, dtype=complex))
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

    def apply(vec: CoefficientVector) -> CoefficientVector:
        acc = term = solve(vec.padded(n)[:, None])
        for _ in range(terms):
            term = (lam - lam0) * solve(term)
            acc = acc + term
        return CoefficientVector(x.basis, acc[:, 0])

    return NeumannContinuation(lam0, lam, radius, terms, apply)


def _resolvent_matrix(x: CoefficientOperator, lam: complex, n: int) -> np.ndarray:
    """(X_n - lambda)^(-1): the factorization of X_n - lambda applied to the identity."""
    return x.rep.factorize(x.basis, lam, n)(np.eye(n, dtype=complex))


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


def _agree(out_b: np.ndarray, out_c: np.ndarray, cfg: RunConfig,
           norm_space: Optional[ScaleSpace], b_norms: Optional[np.ndarray] = None) -> np.ndarray:
    """The rule of `equivalent` for each column of two output blocks, zero past
    their ends: is the difference within ``eq_tol`` times max(1, norm of the
    column of ``out_b``), in ``norm_space`` (plain l2 when None)? ``b_norms``
    are those column norms when the caller holds them; the zeros past the end
    of ``out_b`` add nothing to them."""
    n = max(len(out_b), len(out_c))
    out_b, out_c = (out if len(out) == n else np.pad(out, ((0, n - len(out)), (0, 0)))
                    for out in (out_b, out_c))
    size = column_norms(out_b - out_c, norm_space)
    b_norms = b_norms if b_norms is not None else column_norms(out_b, norm_space)
    return ~(size > cfg.eq_tol * np.maximum(b_norms, 1.0))


def equivalent(b: Callable, c: Callable, cfg: RunConfig = DEFAULT_CONFIG,
               probes: Optional[Sequence] = None,
               norm_space: Optional[ScaleSpace] = None) -> bool:
    """Do two solver handles agree on the probe vectors?

    Probes default to the first ``equiv_probes`` coefficient basis vectors.
    Coefficient vectors are compared by `_agree`, the rule `branch_report`
    applies to its held blocks: in the finest available norm (``norm_space``)
    or plain l2, relative to max(1, norm of b's output). Other outputs compare
    by their largest entry.
    """
    if probes is None:
        pair = getattr(b, "pair", None)
        if pair is None:
            raise ValueError("handles without .pair need explicit probes")
        basis, n = pair[0].basis, cfg.equiv_probes
        probes = [CoefficientVector.unit(basis, j, n) for j in range(n)]
    for probe in probes:
        out_b = b(probe)
        out_c = c(probe)
        if isinstance(out_b, CoefficientVector):
            if not _agree(out_b.coeffs[:, None], out_c.coeffs[:, None], cfg, norm_space)[0]:
                return False
        elif np.max(np.abs(np.asarray(out_b) - np.asarray(out_c))) > \
                cfg.eq_tol * max(float(np.max(np.abs(np.asarray(out_b)))), 1.0):
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

    def write_json(self, path: str, config: Optional[RunConfig] = None) -> None:
        """The map as one line of JSON with sorted keys.

        Only ``json.dumps`` without indent runs CPython's C encoder, about three
        times as fast as ``json.dump``. That encoder keeps every piece of its
        output until it returns (3 MB for 4860 cells on CPython 3.11), so the
        rows of cells, whose key sorts first, are still written one at a time.
        Each distinct cell object is encoded once per file: a row decided by
        its certificate or its limit operators repeats one object.
        """
        rest = {
            "grid": self.grid.to_dict(),
            "pairs": self.pair_labels,
            "certificates": [c.to_dict() for c in self.certificates],
            "lambdas": [[z.real, z.imag] for z in self.lambdas],
            "union_resolvent": self.union_resolvent,
            "duality": {
                "checked": self.duality_checked,
                "mismatches": self.duality_mismatches or [],
            },
        }
        if config is not None:
            rest["config"] = config.to_dict()
        encoded = _once_per_object(lambda cell: json.dumps({
            "status": cell.status,
            "c_low": _json_float(cell.c_low),
            "d_high": _json_float(cell.d_high),
            "defect": _defect_field(cell.defect),
            "witness_n": cell.witness_n,
            "stabilized": cell.stabilized,
        }, sort_keys=True))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"cells": [')
            for i, row in enumerate(self.cells):
                handle.write((", [" if i else "[") + ", ".join(map(encoded, row)) + "]")
            handle.write("], " + json.dumps(rest, sort_keys=True)[1:] + "\n")

    def write_csv(self, path: str) -> None:
        """One line per grid point and pair, points outermost. The fields of
        each pair label and of each distinct cell object are quoted by the
        `csv` module once per file and joined into lines, written one at a
        time."""
        scratch = io.StringIO()
        fields = csv.writer(scratch, lineterminator="")

        def joined(values: list) -> str:
            scratch.seek(0)
            scratch.truncate()
            fields.writerow(values)
            return scratch.getvalue()

        cell_text = _once_per_object(lambda cell: joined([
            cell.status, _csv_float(cell.c_low), _csv_float(cell.d_high),
            _defect_field(cell.defect), cell.witness_n]))
        labels = [joined([label]) for label in self.pair_labels]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerow(["re_lambda", "im_lambda", "pair", "status",
                                         "c_low", "d_high", "defect", "witness_n",
                                         "union_resolvent"])
            for li, lam in enumerate(self.lambdas):
                head = f"{lam.real!r},{lam.imag!r},"
                tail = f",{int(self.union_resolvent[li])}\r\n"
                for label, row in zip(labels, self.cells):
                    handle.write(head + label + "," + cell_text(row[li]) + tail)


def _once_per_object(fmt: Callable) -> Callable:
    """``fmt`` with its results kept per argument object, compared by identity:
    the callers (a writer's cells, a report's held blocks) keep every argument
    alive while they use it, so no id is reused."""
    made: dict = {}

    def text(cell):
        found = made.get(id(cell))
        if found is None:
            found = made[id(cell)] = fmt(cell)
        return found

    return text


def _defect_field(defect: Optional[object]) -> object:
    return defect if isinstance(defect, int) else (defect or "")


def _json_float(x: float) -> object:
    return x if math.isfinite(x) else repr(x)


def _csv_float(x: float) -> str:
    return repr(float(x))


def union_spectrum_scan(x: CoefficientOperator, family: ScaleFamily, grid: GridSpec,
                        cfg: RunConfig = DEFAULT_CONFIG) -> SpectrumMap:
    """Color every admissible pair at every grid point; union over pairs.

    Each pair's row of grid points is decided at once (see `_decide`).
    When the family is closed under duality the scan also verifies, per cell,
    that resolvent membership of lambda for (E, F) matches membership of
    conj(lambda) for (F^x, E^x) with the adjoint operator, each dual row
    decided at conj(lambda) on the adjoint. A self-adjoint operator is its
    own adjoint, and its dual pairs are primal pairs, whose held kernels the
    dual rows read. If it is also real (`Representation.real`), its section
    at conj(lambda) is the entrywise conjugate of the one at lambda, with the
    same singular values, censuses and limit bounds, and a certificate does
    not depend on lambda; so the statuses of a dual row are those of the
    primal row of its pair at lambda, and only a pair missing from the
    primal rows is decided afresh.
    """
    lambdas = list(grid.points())
    lams = np.array(lambdas, dtype=complex)
    pairs = family.admissible_pairs()
    certs = certify_pairs(x, pairs, cfg)
    labels = [f"{e.label}->{f.label}" for e, f in pairs]
    checked = bool(cfg.duality_check and family.closed_under_duality and pairs)
    cells = [_decide(x, lams, e, f, cfg)[0] for e, f in pairs]
    union = [any(cells[pi][li].status == STATUS_RESOLVENT for pi in range(len(pairs)))
             for li in range(len(lambdas))]

    mismatches = None
    if checked:
        mismatches = []
        adj = x.adjoint()
        dual_pairs = [(family.dual_of(f), family.dual_of(e)) for e, f in pairs]
        certify_pairs(adj, dual_pairs, cfg)  # in one pass; `_decide` reads them held
        rows = dict(zip(pairs, cells)) if adj is x and x.rep.real(x.basis, cfg) else {}
        for pi, (ed, fd) in enumerate(dual_pairs):
            row = [cell.status for cell in rows.get((ed, fd))
                   or _decide(adj, lams.conj(), ed, fd, cfg)[0]]
            for li, lam in enumerate(lambdas):
                primal = cells[pi][li].status == STATUS_RESOLVENT
                dual = row[li] == STATUS_RESOLVENT
                if primal != dual:
                    mismatches.append({
                        "lambda": [lam.real, lam.imag],
                        "pair": labels[pi],
                        "primal": cells[pi][li].status,
                        "dual": row[li],
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
    """Every pair containing lambda, with the pairwise equivalence of their
    resolvent branches: that of `equivalent` over `solver_handle`s in the
    finest norm, with no probe solved twice. The branches solve the
    ``equiv_probes`` unit probes as one block (`_resolvent_solve`) and share
    each truncation's factorization, solutions and residuals, so each branch
    only takes its F-norms and stops each column at its own truncation.
    Branches whose columns stop at the same truncations hold one output block
    and are equivalent without a comparison: their outputs are the same
    numbers. Any two other held blocks are compared column by column by
    `_agree`, with the column norms of each block taken once.
    """
    branches, labels = [], []
    pairs = family.admissible_pairs()
    certify_pairs(x, pairs, cfg)  # in one pass; `point_status` reads them held
    for e, f in pairs:
        status = point_status(x, lam, e, f, cfg)
        if status.status == STATUS_RESOLVENT:
            branches.append((e, f, status))
            labels.append(f"{e.label}->{f.label}")
    held, blocks, factors, solved = [], {}, {}, {}
    probes = np.eye(cfg.equiv_probes, dtype=complex)
    for e, f, status in branches if len(branches) > 1 else ():
        results = _resolvent_solve(x, lam, e, f, probes, cfg, status, factors, solved)
        stops = tuple(n for _, _, n in results)
        if stops not in blocks:
            blocks[stops] = np.column_stack([vec.padded(max(stops)) for vec, _, _ in results])
        held.append(blocks[stops])
    finest = family.finest if len(family) else None
    norms = _once_per_object(lambda block: column_norms(block, finest))
    equivalences = [[i, j, held[i] is held[j]
                     or bool(np.all(_agree(held[i], held[j], cfg, finest, norms(held[i]))))]
                    for i in range(len(held)) for j in range(i + 1, len(held))]
    return BranchReport(lam, labels, equivalences)
