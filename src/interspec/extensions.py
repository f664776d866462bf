"""Self-adjoint extension circle of the momentum operator on [0, 1], plus the
delta-interaction catalog for the free Hamiltonian on the line.

Functions on [0, 1] are represented by their values at Gauss-Legendre nodes.
The resolvent of the extension with boundary phase alpha (|alpha| = 1) is an
explicit Volterra-plus-rank-one integral operator, so node counts around 128
give residuals near machine precision for smooth data:

    u(x) = e^(i lam x) u0 + i e^(i lam x) int_0^x e^(-i lam t) g(t) dt,
    u0   = i e^(i lam) (alpha - e^(i lam))^(-1) int_0^1 e^(-i lam t) g(t) dt.

Eigenvalues of the alpha extension form the lattice arg(alpha) + 2 pi k; the
resolvent-difference check compares two extensions against the closed rank-one
formula, which vanishes exactly when the phases agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (EigenvalueCollisionError, NoBoundStateError, SpecParseError)


class UnitIntervalQuadrature:
    """Gauss-Legendre nodes on [0, 1] with spectral integration/differentiation."""

    def __init__(self, n: int = 128):
        t, w = legendre.leggauss(n)
        self.n = n
        self.nodes = 0.5 * (t + 1.0)
        self.weights = 0.5 * w
        # Gauss discrete orthogonality, exact up to degree 2n - 1: the coefficients
        # of degree < n are c_k = (2k + 1)/2 sum_j w_j P_k(t_j) f_j, with no solve
        self._vander = legendre.legvander(t, n - 1)
        self._project = self._vander.T * w * (np.arange(n) + 0.5)[:, None]
        self._t = t

    def coefficients(self, samples: np.ndarray) -> np.ndarray:
        """Legendre coefficients of the interpolant of ``samples``: the Gauss
        projection, plus the projection of its interpolation residual. Alone it
        errs by about k eps |f| in coefficient k, which `derivative` scales by k^2."""
        times = lambda mat, vec: mat @ vec.real + 1j * (mat @ vec.imag)  # mat stays real
        f = np.asarray(samples, dtype=complex)
        coeffs = times(self._project, f)
        return coeffs + times(self._project, f - times(self._vander, coeffs))

    def integrate(self, samples: np.ndarray) -> complex:
        return complex(np.sum(self.weights * np.asarray(samples, dtype=complex)))

    def cumulative(self, samples: np.ndarray) -> np.ndarray:
        """x -> integral of the sampled function from 0 to x."""
        coeffs = self.coefficients(samples)
        anti = legendre.legint(coeffs, lbnd=-1.0) * 0.5
        return legendre.legval(self._t, anti)

    def derivative(self, samples: np.ndarray) -> np.ndarray:
        coeffs = self.coefficients(samples)
        if len(coeffs) == 1:
            return np.zeros_like(np.asarray(samples, dtype=complex))
        return legendre.legval(self._t, legendre.legder(coeffs)) * 2.0

    def legendre_probe(self, k: int) -> np.ndarray:
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        return legendre.legval(self._t, coeffs).astype(complex)


@dataclass(frozen=True)
class MomentumExtension:
    """Boundary condition f(1) = alpha f(0) with |alpha| = 1."""

    alpha: complex
    quad: UnitIntervalQuadrature = field(default_factory=UnitIntervalQuadrature)

    def __post_init__(self) -> None:
        if abs(abs(self.alpha) - 1.0) > 1e-9:
            raise SpecParseError(f"extension parameter must be unimodular, got {self.alpha}")

    def eigenvalues(self, k_range: Iterable[int]) -> np.ndarray:
        base = cmath.phase(self.alpha)
        return np.array([base + 2.0 * math.pi * k for k in k_range])

    def is_eigenvalue(self, lam: complex, tol: float = 1e-12) -> bool:
        return abs(cmath.exp(1j * lam) - self.alpha) <= tol


@dataclass(frozen=True)
class MomentumResolventResult:
    samples: np.ndarray
    ode_residual: float       # max |-i u' - lam u - g| over nodes
    boundary_residual: float  # |u(1) - alpha u(0)| from the spectral endpoint values


def apply_momentum_resolvent(ext: MomentumExtension, lam: complex,
                             g_samples: np.ndarray,
                             cfg: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    if ext.is_eigenvalue(lam, cfg.eig_tol):
        raise EigenvalueCollisionError(
            f"lambda={lam} is an eigenvalue of the alpha={ext.alpha} extension")
    quad = ext.quad
    g = np.asarray(g_samples, dtype=complex)
    phase = np.exp(1j * lam * quad.nodes)
    damped = np.exp(-1j * lam * quad.nodes) * g
    full = quad.integrate(damped)
    u0 = 1j * cmath.exp(1j * lam) * full / (ext.alpha - cmath.exp(1j * lam))
    partial = quad.cumulative(damped)
    return phase * (u0 + 1j * partial)


def momentum_resolvent_report(ext: MomentumExtension, lam: complex,
                              g_samples: np.ndarray,
                              cfg: RunConfig = DEFAULT_CONFIG) -> MomentumResolventResult:
    quad = ext.quad
    g = np.asarray(g_samples, dtype=complex)
    u = apply_momentum_resolvent(ext, lam, g, cfg)
    residual = -1j * quad.derivative(u) - lam * u - g
    coeffs = quad.coefficients(u)
    u_at_1 = complex(np.sum(coeffs))
    u_at_0 = complex(legendre.legval(-1.0, coeffs))
    return MomentumResolventResult(u, float(np.max(np.abs(residual))),
                                   abs(u_at_1 - ext.alpha * u_at_0))


def momentum_solver_handle(ext: MomentumExtension, lam: complex,
                           cfg: RunConfig = DEFAULT_CONFIG) -> Callable:
    def apply(samples: np.ndarray) -> np.ndarray:
        return apply_momentum_resolvent(ext, lam, samples, cfg)
    return apply


@dataclass(frozen=True)
class KreinCheck:
    residual: float
    difference: np.ndarray
    formula: np.ndarray


def krein_difference_check(alpha: complex, beta: complex, lam: complex,
                           g_samples: np.ndarray,
                           quad: Optional[UnitIntervalQuadrature] = None,
                           cfg: RunConfig = DEFAULT_CONFIG) -> KreinCheck:
    """Compare R(alpha) - R(beta) against the closed rank-one difference."""
    quad = quad if quad is not None else UnitIntervalQuadrature(cfg.quad_nodes)
    ext_a = MomentumExtension(alpha, quad)
    ext_b = MomentumExtension(beta, quad)
    g = np.asarray(g_samples, dtype=complex)
    diff = (apply_momentum_resolvent(ext_a, lam, g, cfg)
            - apply_momentum_resolvent(ext_b, lam, g, cfg))
    phase = cmath.exp(1j * lam)
    weight = quad.integrate(np.exp(-1j * lam * quad.nodes) * g)
    if alpha == beta:
        formula = np.zeros_like(g)
    else:
        factor = 1.0 / (alpha - phase) - 1.0 / (beta - phase)
        formula = factor * 1j * np.exp(1j * (quad.nodes + 1.0) * lam) * weight
    return KreinCheck(float(np.max(np.abs(diff - formula))), diff, formula)


@dataclass(frozen=True)
class CoverageRow:
    lam: complex
    admissible: tuple  # alphas whose eigenvalue lattice misses lam
    covered: bool


def momentum_union_resolvent(alphas: Sequence[complex], grid_points: Iterable[complex],
                             tol: float = 1e-9) -> list:
    """Per grid point, which extensions have it in their resolvent set."""
    extensions = [MomentumExtension(a) for a in alphas]
    rows = []
    for lam in grid_points:
        good = tuple(ext.alpha for ext in extensions if not ext.is_eigenvalue(lam, tol))
        rows.append(CoverageRow(lam, good, bool(good)))
    return rows


# ---------------------------------------------------------------------------
# delta interaction on the line


@dataclass(frozen=True)
class DeltaInteraction:
    """Point interaction of strength alpha centered at y."""

    alpha: float
    center: float = 0.0

    def spectrum_descriptor(self) -> dict:
        continuous = {"type": "half-line", "start": 0.0}
        points = [] if self.alpha >= 0 else [-self.alpha ** 2 / 4.0]
        return {
            "continuous": continuous,
            "eigenvalues": points,
            "coupling": self.alpha,
            "center": self.center,
        }

    def contains(self, lam: complex, tol: float = 1e-9) -> bool:
        if abs(lam.imag) > tol:
            return False
        if lam.real >= -tol:
            return True
        return self.alpha < 0 and abs(lam.real + self.alpha ** 2 / 4.0) <= tol


@dataclass(frozen=True)
class BoundStateEstimate:
    estimate: float
    error_bar: float
    order: float
    samples: tuple  # (h, eigenvalue) pairs


def _delta_ground_state(alpha: float, center: float, box: float, h: float) -> float:
    """Smallest eigenvalue of the finite-difference operator on [y-box, y+box]."""
    n = int(round(2.0 * box / h)) + 1
    x = center - box + h * np.arange(n)
    interior = x[1:-1]
    diag = np.full(len(interior), 2.0 / h ** 2)
    j = int(np.argmin(np.abs(interior - center)))
    diag[j] += alpha / h
    off = np.full(len(interior) - 1, -1.0 / h ** 2)
    vals = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def bound_state_estimate(d: DeltaInteraction, box: float = 20.0, h0: float = 0.1,
                         levels: int = 3) -> BoundStateEstimate:
    """Richardson-extrapolated ground-state energy for an attractive coupling."""
    if d.alpha >= 0:
        raise NoBoundStateError(
            f"no bound state: coupling alpha={d.alpha} is not attractive")
    if levels < 3:
        raise SpecParseError("Richardson extrapolation needs at least three meshes")
    if not (0 < box < math.inf and 0 < h0 < math.inf):
        raise SpecParseError(f"box={box} and mesh width h0={h0} must be finite and positive")
    samples = []
    h = h0
    for _ in range(levels):
        samples.append((h, _delta_ground_state(d.alpha, d.center, box, h)))
        h /= 2.0
    e0, e1, e2 = samples[-3][1], samples[-2][1], samples[-1][1]
    denom = e1 - e2
    if denom == 0:
        return BoundStateEstimate(e2, 0.0, float("inf"), tuple(samples))
    ratio = (e0 - e1) / denom
    order = math.log2(abs(ratio)) if ratio > 0 else 1.0
    factor = 2.0 ** order - 1.0
    extrapolated = e2 + (e2 - e1) / factor
    return BoundStateEstimate(extrapolated, abs(extrapolated - e2), order, tuple(samples))
