"""Generalized eigenvectors of the position multiplier in the Hermite model.

The candidate at a real point lam has coefficients phi_n(lam), the values of
the normalized Hermite functions, computed by the stable three-term upward
recurrence with the Gaussian factor folded in. Such a vector lies in the
negative rungs of the scale and is annihilated by the tridiagonal coordinate
matrix up to a single surviving term at the truncation edge, so the residual
decays as the truncation grows.

The completeness side is a computable Parseval identity: reconstructing
coefficients of a rapidly decreasing vector from its sampled transform
phi(lam) = sum c_m phi_m(lam) against Lebesgue measure on the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import legendre

from .config import DEFAULT_CONFIG, RunConfig
from .errors import FamilySpecError, InterspecError, SpecParseError
from .gallery import hermite_position
from .operators import CoefficientOperator
from .spaces import (Basis, CoefficientVector, ScaleFamily, ScaleSpace, _as_index,
                     hilbert_scale_family, norm)


def hermite_function_values(x, count: int) -> np.ndarray:
    """phi_n(x) for n < count by the upward recurrence with the Gaussian
    factor folded in; the seed underflows past |x| ~ 37.4. The rows are
    scalars for a scalar x and numpy rows for an array; either way the
    operations run in the same order, so the values are bit for bit the same."""
    x = np.asarray(x, dtype=float)
    peak = float(np.max(np.abs(x)))
    if peak * peak / 2.0 > 700.0:
        raise InterspecError(
            f"seed value underflows at |x|={peak:.3g}; safe up to |x| <= 37.4")
    if x.ndim == 0:
        x = float(x)
    seed = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    rows = [seed, math.sqrt(2.0) * x * seed]
    for n in range(1, count - 1):
        rows.append(math.sqrt(2.0 / (n + 1)) * x * rows[n]
                    - math.sqrt(n / (n + 1.0)) * rows[n - 1])
    return np.array(rows[:count], dtype=float)


@dataclass(frozen=True)
class GeneralizedEigenpair:
    lam: float
    vector: CoefficientVector
    home_space: ScaleSpace
    residual: float         # |(X - lam) chi|_target / |chi|_home at truncation
    membership_norm: float  # |chi|_home


def delta_eigenpair(lam: float, s=1, n: int = 1024,
                    family: Optional[ScaleFamily] = None,
                    cfg: RunConfig = DEFAULT_CONFIG) -> GeneralizedEigenpair:
    """Point-evaluation functional as a generalized eigenvector of the
    coordinate multiplier, certified in the rung of index -s."""
    s = _as_index(s)
    if not s >= 1:
        raise SpecParseError("home space needs index -s with s >= 1")
    if n < 1:
        raise SpecParseError(f"truncation n={n} must be at least 1")
    if lam * lam > 1.8 * n:
        raise InterspecError(
            f"truncation n={n} too short for lam={lam}; residual decays only "
            f"for |lam| <= {math.sqrt(1.8 * n):.3g}")
    family = family if family is not None else hilbert_scale_family("n+1", range(-4, 5))
    index = -s
    try:
        home = family.space_at(index)
    except FamilySpecError:  # not a rung of the family: the same weights at -s
        home = ScaleSpace(Basis.HERMITE, index, family.finest.family)
    target = family.coarsest
    chi = CoefficientVector(Basis.HERMITE, hermite_function_values(lam, n).astype(complex))
    op = hermite_position().operator
    resid_vec = op.section(n) @ chi.coeffs - lam * chi.coeffs
    membership = norm(chi, home)
    residual = norm(CoefficientVector(Basis.HERMITE, resid_vec), target) / membership
    return GeneralizedEigenpair(float(lam), chi, home, float(residual), float(membership))


def membership_norm_stabilized(lam: float, s=1, tol: float = 1e-8,
                               n_start: int = 1024, n_cap: int = 1 << 20):
    """Partial sums of the home-space norm, doubled until relative stabilization.

    Returns (norm_value, stabilized, n_used).
    """
    weight_s = float(_as_index(s))
    n = n_start
    total = _membership_partial(lam, 0, n, weight_s)
    while n < n_cap:
        inc = _membership_partial(lam, n, 2 * n, weight_s)
        total += inc
        n *= 2
        if inc <= tol * total:
            return math.sqrt(total), True, n
    return math.sqrt(total), False, n


def _membership_partial(lam: float, lo: int, hi: int, s: float) -> float:
    # recurrence restarted from 0 is cheap relative to the tail lengths used
    values = hermite_function_values(lam, hi)[lo:]
    idx = np.arange(lo, hi, dtype=float)
    weights = 1.0 / (1.0 + (idx + 1.0) ** (2.0 * s))
    return float(np.sum(values ** 2 * weights))


def smallest_stable_index(lam: float, candidates: Sequence = (1, 2, 3),
                          tol: float = 1e-8):
    """First home index -s among the candidates whose norm series stabilizes."""
    for s in candidates:
        value, ok, n_used = membership_norm_stabilized(lam, s, tol)
        if ok:
            return s, value, n_used
    return None, float("nan"), 0


# ---------------------------------------------------------------------------
# completeness checks


def lebesgue_quadrature(nodes: int = 400, half_width: float = 20.0):
    t, w = legendre.leggauss(nodes)
    return half_width * t, half_width * w


@dataclass(frozen=True)
class ExpansionCheck:
    max_error: float
    reconstructed: np.ndarray
    rapidly_decreasing: bool


def expansion_check(phi: CoefficientVector, nodes: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None) -> ExpansionCheck:
    """Reconstruct coefficients from the sampled transform against its basis.

    c_n -> integral of phi(lam) phi_n(lam) d lam, which returns c_n exactly
    in the limit by orthonormality. The contract applies to rapidly
    decreasing inputs; others only produce a warning flag.
    """
    if nodes is None or weights is None:
        nodes, weights = lebesgue_quadrature()
    coeffs = phi.coeffs
    count = max(phi.n, 8)
    table = hermite_function_values(nodes, count)
    sampled = table[: phi.n].T @ coeffs  # phi(lam) on the nodes
    reconstructed = table @ (weights * sampled)
    expected = phi.padded(count)
    max_error = float(np.max(np.abs(reconstructed - expected)))
    window = max(8, phi.n // 8)
    tail = np.abs(coeffs[max(phi.n - window, 0):]) if phi.n >= 8 else np.abs(coeffs)
    head = float(np.max(np.abs(coeffs))) if phi.n else 0.0
    rapid = bool(head == 0.0 or (len(tail) and float(np.max(tail)) <= 1e-6 * max(head, 1e-300)))
    return ExpansionCheck(max_error, reconstructed, rapid)


def parseval_gap(phi: CoefficientVector, nodes: Optional[np.ndarray] = None,
                 weights: Optional[np.ndarray] = None) -> float:
    """| integral |phi(lam)|^2 d lam - sum |c_n|^2 |."""
    if nodes is None or weights is None:
        nodes, weights = lebesgue_quadrature()
    table = hermite_function_values(nodes, max(phi.n, 1))
    sampled = table[: phi.n].T @ phi.coeffs
    lhs = float(np.sum(weights * np.abs(sampled) ** 2))
    rhs = float(np.sum(np.abs(phi.coeffs) ** 2))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# restrictions to the central space


@dataclass(frozen=True)
class RestrictionReport:
    truncation: int
    finite_column_count: int   # columns of the truncated restriction (all finite)
    stable_column_count: int   # columns whose central norm stabilizes N -> 2N
    rank: int
    symmetry_defect: float
    max_imag_eigenvalue: Optional[float]
    note: str


def restricted_operator_report(x: CoefficientOperator, n: int = 256,
                               cfg: RunConfig = DEFAULT_CONFIG) -> RestrictionReport:
    """Truncation-level proxy for the operator restricted to the central space."""
    mat = x.matrix(n)
    mat2 = x.matrix(2 * n, n)
    col_norms = np.linalg.norm(mat2[:n], axis=0)
    col_norms_2 = np.linalg.norm(mat2, axis=0)
    stable = int(np.sum(np.abs(col_norms_2 - col_norms)
                        <= cfg.rel_tol * np.maximum(col_norms_2, 1e-300)))
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > cfg.defect_eps * max(sv[0], 1e-300)))
    sym_defect = float(np.max(np.abs(mat - mat.conj().T)))
    max_imag = None
    note = "restriction studied at truncation only"
    if x.symmetric:
        eigs = np.linalg.eigvals(mat)
        max_imag = float(np.max(np.abs(eigs.imag)))
        note = ("symmetric restriction; truncated spectrum real to the "
                "reported tolerance")
    return RestrictionReport(n, n, stable, rank, sym_defect, max_imag, note)
