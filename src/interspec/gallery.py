"""Model operators in coefficient form, with analytic spectrum descriptors.

The function-space examples live here as coefficient models: line operators
in the Hermite basis (diagonal symbols, the tridiagonal position operator)
and torus operators in the Fourier basis (the delta multiplier as a rank-one
form, point combs as finite rank sums, trig-polynomial multipliers as
banded Toeplitz convolutions). Each entry carries a membership predicate for
its expected union spectrum so scans can be checked grid point by grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import SymbolGrowthError, UnsupportedSymbolError
from .expressions import compile_expression
from .operators import (Banded, CoefficientOperator, RankSum, RankSumTerm, certify,
                        operator_from_spec)
from .spaces import (Basis, ScaleFamily, exp_sqrt_pair, hilbert_scale_family,
                     sequence_power_family, sobolev_torus_family)


# ---------------------------------------------------------------------------
# spectrum descriptors


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Decidable membership predicate for an expected spectrum."""

    kind: str
    points: tuple = ()
    intervals: tuple = ()       # ((lo, hi), ...) on the real axis
    curve: Optional[tuple] = None  # sampled closed curve in the plane

    def contains(self, lam: complex, tol: float = 1e-9) -> bool:
        lam = complex(lam)
        if self.kind == "all":
            return True
        hit = False
        if self.points:
            hit = hit or min(abs(lam - p) for p in self.points) <= tol
        if self.intervals and abs(lam.imag) <= tol:
            hit = hit or any(lo - tol <= lam.real <= hi + tol
                             for lo, hi in self.intervals)
        if self.curve is not None:
            samples = np.asarray(self.curve)
            hit = hit or bool(np.min(np.abs(samples - lam)) <= tol)
        return hit

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.points:
            out["points"] = [[complex(p).real, complex(p).imag] for p in self.points]
        if self.intervals:
            out["intervals"] = [list(iv) for iv in self.intervals]
        if self.curve is not None:
            out["curve_samples"] = len(self.curve)
        return out


def all_of_complex_plane() -> SpectrumDescriptor:
    return SpectrumDescriptor("all")


def sequence_closure(symbol: str, n_spec: int = 100_000) -> SpectrumDescriptor:
    """Closure of {a_n}: sampled points plus any detected limit point.

    Monotone tails with geometrically shrinking probe gaps get their limit
    by extrapolation; anything else is represented by dense sampling alone.
    """
    fn = compile_expression(symbol, ("n",))
    values = np.asarray(fn(np.arange(n_spec, dtype=float)), dtype=complex)
    points = list(values[:4096])
    probes = values[[n_spec // 8, n_spec // 4, n_spec // 2, n_spec - 1]]
    gaps = np.abs(np.diff(probes))
    if gaps[0] > 0 and gaps[-1] <= 0.75 * gaps[-2] <= 0.75 * gaps[0]:
        rho = gaps[-1] / gaps[-2]
        limit = probes[-1] + (probes[-1] - probes[-2]) * rho / (1.0 - rho)
        points.append(complex(limit))
        points.extend(values[4096:n_spec:257])
    elif gaps[-1] <= 1e-12:
        points.append(complex(probes[-1]))
    else:
        points.extend(values[4096:n_spec:17])
    return SpectrumDescriptor("set", points=tuple(points))


def real_intervals(*spans: tuple) -> SpectrumDescriptor:
    return SpectrumDescriptor("intervals", intervals=tuple(spans))


# ---------------------------------------------------------------------------
# gallery entries


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    operator: CoefficientOperator
    family: ScaleFamily
    expected_spectrum: SpectrumDescriptor
    eigenvalues: tuple = ()
    notes: str = ""

    def to_json_dict(self) -> dict:
        rep = type(self.operator.rep).__name__.lower()
        return {
            "name": self.name,
            "basis": self.operator.basis.value,
            "rep": rep,
            "symmetric": self.operator.symmetric,
            "family": self.family.to_spec(),
            "expected_spectrum": self.expected_spectrum.describe(),
            "eigenvalues": [[complex(p).real, complex(p).imag] for p in self.eigenvalues],
            "notes": self.notes,
        }


def _polynomial_growth_exponent(values: np.ndarray) -> float:
    """Least-squares slope of log|a_n| against log(1+n) on a geometric sample."""
    idx = np.unique(np.geomspace(8, len(values) - 1, 40).astype(int))
    mags = np.abs(values[idx])
    mags = np.maximum(mags, 1e-300)
    return float(np.polyfit(np.log1p(idx), np.log(mags), 1)[0])


def hermite_diagonal(symbol: str, family_order: int = 4) -> GalleryEntry:
    """Diagonal operator on the power-weight chain of the Hermite model.

    Rejects symbols of super-polynomial growth, for which the operator does
    not act on rapidly decreasing coefficient sequences.
    """
    fn = compile_expression(symbol, ("n",))
    with np.errstate(over="ignore", invalid="ignore"):
        sample = np.asarray(fn(np.arange(1 << 14, dtype=float)), dtype=complex)
    if not np.all(np.isfinite(sample)):
        raise SymbolGrowthError(f"symbol {symbol!r} overflows on the probe range")
    head = float(np.max(np.abs(sample[: 1 << 10])) + 1.0)
    p = _polynomial_growth_exponent(sample)
    if p > 12 or float(np.max(np.abs(sample))) > head * (1 << 14) ** 12:
        raise SymbolGrowthError(
            f"symbol {symbol!r} grows super-polynomially (fitted exponent {p:.1f})")
    op = operator_from_spec({"basis": "hermite", "symmetric": bool(np.allclose(sample.imag, 0.0)),
                             "name": f"diagonal multiplier a_n = {symbol}",
                             "rep": {"type": "diagonal", "symbol": symbol}})
    family = sequence_power_family(range(-family_order, family_order + 1))
    descriptor = sequence_closure(symbol)
    return GalleryEntry(
        name=f"diagonal[{symbol}]", operator=op, family=family,
        expected_spectrum=descriptor, eigenvalues=tuple(sample[:64]),
        notes="diagonal symbol on the power-weight chain; union spectrum is the "
              "closure of the symbol values")


def scale_generator_entry(symbol: str = "n+1", order: int = 3) -> GalleryEntry:
    """The scale generator viewed on its own chain: resolvent lives on (k, k-1)."""
    op = operator_from_spec({"basis": "hermite", "symmetric": True,
                             "name": f"scale generator a_n = {symbol}",
                             "rep": {"type": "diagonal", "symbol": symbol}})
    family = hilbert_scale_family(symbol, range(-order, order + 1))
    sample = np.asarray(op.rep.values(np.arange(1 << 12, dtype=float)), dtype=complex)
    return GalleryEntry(
        name="scale-generator", operator=op, family=family,
        expected_spectrum=sequence_closure(symbol),
        eigenvalues=tuple(sample[:64]),
        notes="union resolvent equals the Hilbert-space resolvent of the generator; "
              "only adjacent-rung pairs contribute")


def hermite_position(order: int = 3) -> GalleryEntry:
    """Tridiagonal coordinate multiplier in the Hermite-function basis."""

    def entry(mr, mc):
        mr = np.asarray(mr, dtype=float)
        mc = np.asarray(mc, dtype=float)
        upper = np.sqrt((mr + 1.0) / 2.0) * (mc == mr + 1)
        lower = np.sqrt((mc + 1.0) / 2.0) * (mr == mc + 1)
        return upper + lower

    op = CoefficientOperator(Basis.HERMITE, Banded(1, entry, source="sqrt((n+1)/2) offdiag"),
                             symmetric=True, name="position multiplier")
    family = hilbert_scale_family("n+1", range(-order, order + 1))
    return GalleryEntry(
        name="position", operator=op, family=family,
        expected_spectrum=all_of_complex_plane(),
        notes="integer-index chain carries no resolvent pair for the coordinate "
              "multiplier; its Hilbert-space spectrum is the real line")


def torus_delta(order: int = 4) -> GalleryEntry:
    """Multiplication by the point mass at 0 as a rank-one form on Fourier modes."""
    ones = lambda m: np.ones(np.shape(m), dtype=complex)
    op = CoefficientOperator(Basis.FOURIER,
                             RankSum((RankSumTerm(ones, ones, "ones", "ones"),)),
                             symmetric=True, name="point-mass multiplier")
    family = sobolev_torus_family(range(-order, order + 1))
    return GalleryEntry(
        name="torus-delta", operator=op, family=family,
        expected_spectrum=all_of_complex_plane(), eigenvalues=(0.0,),
        notes="certified only from positive into negative rungs; 0 is the unique "
              "eigenvalue, with kernel of codimension one at every truncation")


def torus_comb(points: int, order: int = 4) -> GalleryEntry:
    """Finite comb of point masses at equally spaced torus angles."""
    if points < 1:
        raise UnsupportedSymbolError("comb needs at least one sampling point")
    terms = []
    for j in range(points):
        theta = 2.0 * math.pi * j / points
        vec = (lambda m, t=theta: np.exp(-1j * t * np.asarray(m, dtype=float)))
        terms.append(RankSumTerm(vec, vec, f"point({theta:.6f})", f"point({theta:.6f})"))
    op = CoefficientOperator(Basis.FOURIER, RankSum(tuple(terms)), symmetric=True,
                             name=f"comb multiplier ({points} points)")
    family = sobolev_torus_family(range(-order, order + 1))
    return GalleryEntry(
        name=f"torus-comb-{points}", operator=op, family=family,
        expected_spectrum=all_of_complex_plane(), eigenvalues=(0.0,),
        notes="finite surrogate of the point comb; eigenvalue 0 with kernel "
              "cut out by vanishing at the sampling angles")


def torus_multiplication(symbol: str, order: int = 2, samples: int = 10_000,
                         max_bandwidth: int = 16) -> GalleryEntry:
    """Multiplication by a trigonometric polynomial h as a Toeplitz band.

    The symbol is given as an expression in the angle variable ``t``; its
    Fourier coefficients are read off an FFT and must sit on modes up to
    ``max_bandwidth``, everything beyond at the double-precision noise floor.
    One cutoff, 3e-14 * max(scale, 1) for the largest coefficient modulus
    ``scale``, zeroes every real or imaginary part at or below it, and the
    support is what stays nonzero; so a real even symbol such as cos(t) has
    exactly real coefficients and its real sections take the real band
    reduction.
    """
    fn = compile_expression(symbol, ("t",))
    grid_n = 4096
    theta = 2.0 * math.pi * np.arange(grid_n) / grid_n
    values = np.asarray(fn(theta), dtype=complex)
    coeffs = np.fft.fft(values) / grid_n
    scale = float(np.max(np.abs(coeffs)))
    cutoff = 3e-14 * max(scale, 1.0)
    coeffs.real[np.abs(coeffs.real) <= cutoff] = 0.0
    coeffs.imag[np.abs(coeffs.imag) <= cutoff] = 0.0
    support = np.nonzero(coeffs)[0]
    freqs = np.where(support <= grid_n // 2, support, support - grid_n)
    bandwidth = int(np.max(np.abs(freqs))) if len(freqs) else 0
    if bandwidth > max_bandwidth:
        raise UnsupportedSymbolError(
            f"symbol {symbol!r} is not a trigonometric polynomial of degree "
            f"<= {max_bandwidth}")
    table = {int(f): complex(c) for f, c in zip(freqs, coeffs[support])}

    def entry(mr, mc):
        mr = np.asarray(mr)
        mc = np.asarray(mc)
        diff = np.asarray(mr - mc, dtype=int)
        out = np.zeros(np.broadcast(mr, mc).shape, dtype=complex)
        for offset, value in table.items():
            out = out + value * (diff == offset)
        return out

    hermitian = bool(np.max(np.abs(values.imag)) <= 1e-10 * max(scale, 1.0))
    op = CoefficientOperator(Basis.FOURIER, Banded(bandwidth, entry, source=symbol),
                             symmetric=hermitian, name=f"multiplier by {symbol}")
    family = sobolev_torus_family(range(-order, order + 1))
    # essential range by dense sampling with endpoint refinement
    fine = np.asarray(fn(np.linspace(0.0, 2.0 * math.pi, samples)), dtype=complex)
    if hermitian:
        descriptor = real_intervals((float(np.min(fine.real)), float(np.max(fine.real))))
    else:
        descriptor = SpectrumDescriptor("curve", curve=tuple(fine))
    return GalleryEntry(
        name=f"multiplier[{symbol}]", operator=op, family=family,
        expected_spectrum=descriptor,
        notes="banded Toeplitz convolution; the (0,0)-pair resolvent set is the "
              "complement of the symbol range")


# ---------------------------------------------------------------------------
# registry and family-contrast report


# name -> builder of that entry alone; the names are the entries' own
BUILDERS = {
    "diagonal[1/(n+1)]": lambda: hermite_diagonal("1/(n+1)"),
    "diagonal[n+1]": lambda: hermite_diagonal("n+1"),
    "scale-generator": lambda: scale_generator_entry("n+1"),
    "position": hermite_position,
    "torus-delta": torus_delta,
    "torus-comb-4": lambda: torus_comb(4),
    "multiplier[cos(t)]": lambda: torus_multiplication("cos(t)"),
    "multiplier[2+cos(t)]": lambda: torus_multiplication("2+cos(t)"),
}


def registry() -> dict:
    """Every gallery entry, built afresh, by name."""
    return {name: build() for name, build in BUILDERS.items()}


def position_family_contrast(cfg: RunConfig = DEFAULT_CONFIG) -> dict:
    """Certified pairs of the position multiplier under two families.

    Contrast between the integer-index chain and the same chain augmented
    with super-polynomial surrogate rungs; reported, not asserted.
    """
    entry = hermite_position()
    op = entry.operator
    rows = {}
    fine, coarse = exp_sqrt_pair()
    for label, pairs in {
        "integer-chain": entry.family.admissible_pairs(),
        "with-surrogates": entry.family.admissible_pairs()
        + [(fine, f) for f in entry.family]
        + [(fine, coarse)],
    }.items():
        certified = []
        for e, f in pairs:
            cert = certify(op, e, f, cfg)
            if cert.certified:
                certified.append(f"{e.label}->{f.label}")
        rows[label] = sorted(certified)
    return rows
