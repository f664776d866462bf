"""Scale spaces as weighted sequence spaces.

A space is one rung of a scale: a basis tag, a signed rational index and a
positive weight sequence. Norms are weighted l2 norms of coefficient
vectors, duality negates the index and inverts the weight exactly, and
continuous embeddings are decided through weight-ratio suprema.

Weight conventions:

* scale generated by a diagonal operator with eigenvalues a_n >= 1:
  w_k(n) = (1 + a_n^(2k))^(1/2) for k > 0, w_0 = 1, w_(-k) = 1/w_k;
* torus Sobolev rungs: w_k(n) = (1 + n^2)^(k/2) over signed modes;
* power rungs for rapidly decreasing sequences: w_m(n) = (1 + n)^m;
* super-polynomial surrogate rungs: w_k(n) = exp(k sqrt(n)).

Index 0 always carries the flat weight so that the central space is exactly
self-dual. Negative indices are stored as exact reciprocals of the positive
ones, which makes the duality involution an identity on floats.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import BasisMismatchError, FamilySpecError, SpecParseError
from .expressions import compile_expression


class Basis(enum.Enum):
    HERMITE = "hermite"    # Hermite-function coefficients on the line, n = 0, 1, ...
    FOURIER = "fourier"    # torus Fourier modes interleaved as 0, 1, -1, 2, -2, ...
    INTERVAL = "interval"  # Legendre-type coefficients on [0, 1]

    @classmethod
    def parse(cls, text: str) -> "Basis":
        try:
            return cls(text)
        except ValueError as exc:
            raise SpecParseError(f"unknown basis {text!r}") from exc


def modes(basis: Basis, n: int) -> np.ndarray:
    """Mode numbers addressed by the first n coefficient slots."""
    return slot_modes(basis, np.arange(n))


def slot_modes(basis: Basis, j: np.ndarray) -> np.ndarray:
    """Mode numbers addressed by the coefficient slots ``j``."""
    j = np.asarray(j)
    if basis is Basis.FOURIER:
        return np.where(j % 2 == 1, (j + 1) // 2, -(j // 2))
    return j


def mode_to_position(basis: Basis, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if basis is Basis.FOURIER:
        return np.where(m > 0, 2 * m - 1, -2 * m)
    return m


def _as_index(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**6) if isinstance(value, float) else Fraction(value)


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class DiagonalScaleWeights:
    """Hilbert-scale weights generated by a diagonal operator a_n >= 1."""

    symbol: str = "n+1"
    prefix: str = "H"
    kind: str = field(default="diagonal", init=False)

    def values(self, m: np.ndarray) -> np.ndarray:
        a = compile_expression(self.symbol, ("n",))(np.asarray(m, dtype=float))
        return np.real(a)

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if k == 0:
            return np.ones_like(m)
        if k > 0:
            a = self.values(m)
            return np.sqrt(1.0 + a ** (2.0 * float(k)))
        return 1.0 / self.weight(-k, m)

    def validate(self) -> None:
        sample = self.values(np.arange(2048, dtype=float))
        if not np.all(np.isfinite(sample)) or np.min(sample) < 1.0 - 1e-12:
            raise FamilySpecError(f"diagonal scale symbol {self.symbol!r} must satisfy a_n >= 1")

    def to_spec(self) -> dict:
        return {"type": "diagonal", "symbol": self.symbol}


@dataclass(frozen=True)
class SobolevTorusWeights:
    prefix: str = "W"
    kind: str = field(default="sobolev-torus", init=False)

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if k == 0:
            return np.ones_like(m)
        if k > 0:
            return (1.0 + m * m) ** (float(k) / 2.0)
        return 1.0 / self.weight(-k, m)

    def validate(self) -> None:
        pass

    def to_spec(self) -> dict:
        return {"type": "sobolev-torus"}


@dataclass(frozen=True)
class SequencePowerWeights:
    """Rungs (1+n)^m of the rapidly-decreasing-sequence chain."""

    prefix: str = "s"
    kind: str = field(default="sequence-power", init=False)

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if k == 0:
            return np.ones_like(m)
        if k > 0:
            return (1.0 + np.abs(m)) ** float(k)
        return 1.0 / self.weight(-k, m)

    def validate(self) -> None:
        pass

    def to_spec(self) -> dict:
        return {"type": "sequence-power"}


@dataclass(frozen=True)
class ExpSqrtWeights:
    """Super-polynomial surrogate rungs exp(k sqrt(n))."""

    prefix: str = "x"
    kind: str = field(default="exp-sqrt", init=False)

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if k == 0:
            return np.ones_like(m)
        if k > 0:
            return np.exp(float(k) * np.sqrt(np.abs(m)))
        return 1.0 / self.weight(-k, m)

    def validate(self) -> None:
        pass

    def to_spec(self) -> dict:
        return {"type": "exp-sqrt"}


@dataclass(frozen=True)
class PointwiseMaxWeights:
    """Projective (intersection) weight max(w_E, w_F) of two rungs."""

    left_family: object
    left_index: Fraction
    right_family: object
    right_index: Fraction
    prefix: str = "cap"
    kind: str = field(default="pointwise-max", init=False)

    def _nominal(self) -> Fraction:
        return max(self.left_index, self.right_index)

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        base = np.maximum(self.left_family.weight(self.left_index, m),
                          self.right_family.weight(self.right_index, m))
        if k == self._nominal():
            return base
        if k == -self._nominal():
            return 1.0 / base
        raise FamilySpecError("intersection space supports only its own index and its dual")

    def validate(self) -> None:
        pass

    def to_spec(self) -> dict:
        return {"type": "pointwise-max"}


_GENERATORS = {
    "diagonal": lambda spec: DiagonalScaleWeights(symbol=spec.get("symbol", "n+1")),
    "sobolev-torus": lambda spec: SobolevTorusWeights(),
    "sequence-power": lambda spec: SequencePowerWeights(),
    "exp-sqrt": lambda spec: ExpSqrtWeights(),
}


def generator_from_spec(spec: dict):
    kind = spec.get("type")
    if kind not in _GENERATORS:
        raise FamilySpecError(f"unknown generator type {kind!r}")
    gen = _GENERATORS[kind](spec)
    gen.validate()
    return gen


# ---------------------------------------------------------------------------
# spaces and vectors


@dataclass(frozen=True)
class ScaleSpace:
    basis: Basis
    index: Fraction
    family: object
    label: str = ""

    def __post_init__(self) -> None:
        index = _as_index(self.index)
        object.__setattr__(self, "index", index)
        if not self.label:
            object.__setattr__(self, "label", f"{self.family.prefix}_{index}")

    def weights(self, n: int) -> np.ndarray:
        return np.asarray(self.family.weight(self.index, modes(self.basis, n)), dtype=float)

    def weight_at(self, m: np.ndarray) -> np.ndarray:
        return np.asarray(self.family.weight(self.index, m), dtype=float)


@dataclass(frozen=True)
class CoefficientVector:
    """Finite truncation of a coefficient sequence; entries beyond n are zero."""

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def padded(self, n: int) -> np.ndarray:
        if n <= self.n:
            return self.coeffs[:n]
        out = np.zeros(n, dtype=complex)
        out[: self.n] = self.coeffs
        return out

    @classmethod
    def unit(cls, basis: Basis, j: int, n: int) -> "CoefficientVector":
        coeffs = np.zeros(n, dtype=complex)
        coeffs[j] = 1.0
        return cls(basis, coeffs)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoefficientVector) and self.basis is other.basis
                and np.array_equal(self.coeffs, other.coeffs))


def check_same_basis(*tagged) -> Basis:
    basis = tagged[0].basis
    for item in tagged[1:]:
        if item.basis is not basis:
            raise BasisMismatchError(
                f"basis mismatch: {basis.value} vs {item.basis.value}")
    return basis


def norm(v: CoefficientVector, space: ScaleSpace) -> float:
    """Weighted l2 norm of the stored truncation of v in the given space."""
    check_same_basis(v, space)
    w = space.weights(v.n)
    return float(np.sqrt(np.sum(np.abs(v.coeffs) ** 2 * w * w)))


def pairing(u: CoefficientVector, v: CoefficientVector) -> complex:
    """Duality pairing <u, v>, conjugate linear in the second argument."""
    check_same_basis(u, v)
    n = max(u.n, v.n)
    return complex(np.sum(u.padded(n) * np.conj(v.padded(n))))


def dual_space(space: ScaleSpace) -> ScaleSpace:
    return ScaleSpace(space.basis, -space.index, space.family)


def running_sup(values: np.ndarray, growth_threshold: float, slots=None):
    """Sup of |values| with a divergence verdict: the running maximum over the
    first 1/64, 1/8 and all of the probed slots grows by ``growth_threshold``.

    ``values`` sits on the ascending coefficient slots ``slots`` (every slot
    from 0 when None), and the probe ends just past the last of them. A NaN,
    or a first checkpoint that holds no slot, gives no divergence verdict.
    """
    mags = np.abs(values)
    n = len(mags) if slots is None else int(slots[-1]) + 1
    ends = [max(16, n >> 6), max(32, n >> 3), n]
    if slots is not None:
        ends = np.searchsorted(slots, ends)
    maxima = [float(np.max(mags[:end])) if end else float("nan") for end in ends]
    diverged = maxima[-1] >= growth_threshold * max(maxima[0], 1e-300)
    return maxima[-1], diverged


def embedding_norm(e: ScaleSpace, f: ScaleSpace, cfg: RunConfig = DEFAULT_CONFIG) -> float:
    """sup_n w_F(n)/w_E(n); finite iff E embeds continuously into F.

    The supremum is probed on the first ``cfg.symbol_probe`` coefficient
    slots; an unbounded ratio is reported as inf (see `running_sup`).
    """
    check_same_basis(e, f)
    if e == f:
        return 1.0
    sup, diverged = running_sup(f.weights(cfg.symbol_probe) / e.weights(cfg.symbol_probe),
                                cfg.growth_threshold)
    return float("inf") if diverged else sup


def intersection(e: ScaleSpace, f: ScaleSpace) -> ScaleSpace:
    """Projective realization of the intersection: pointwise max weight."""
    check_same_basis(e, f)
    fam = PointwiseMaxWeights(e.family, e.index, f.family, f.index)
    return ScaleSpace(e.basis, max(e.index, f.index), fam,
                      label=f"({e.label}&{f.label})")


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class ScaleFamily:
    basis: Basis
    spaces: tuple

    def __post_init__(self) -> None:
        spaces = tuple(sorted(self.spaces, key=lambda s: s.index, reverse=True))
        for s in spaces:
            if s.basis is not self.basis:
                raise FamilySpecError("all spaces in a family share one basis")
        object.__setattr__(self, "spaces", spaces)

    def __iter__(self) -> Iterator[ScaleSpace]:
        return iter(self.spaces)

    def __len__(self) -> int:
        return len(self.spaces)

    @property
    def closed_under_duality(self) -> bool:
        index_set = {s.index for s in self.spaces}
        return all(-k in index_set for k in index_set)

    @property
    def finest(self) -> ScaleSpace:
        return self.spaces[0]

    @property
    def coarsest(self) -> ScaleSpace:
        return self.spaces[-1]

    def space_at(self, index) -> ScaleSpace:
        index = _as_index(index)
        for s in self.spaces:
            if s.index == index:
                return s
        raise FamilySpecError(f"no space with index {index} in family")

    def dual_of(self, space: ScaleSpace) -> ScaleSpace:
        return self.space_at(-space.index)

    def admissible_pairs(self) -> list:
        """All ordered pairs (E, F) with E contained in F (index_E >= index_F)."""
        return [(e, f) for e in self.spaces for f in self.spaces if e.index >= f.index]

    def to_spec(self) -> dict:
        gen = self.spaces[0].family.to_spec() if self.spaces else {}
        return {
            "basis": self.basis.value,
            "indices": [str(s.index) for s in self.spaces],
            "generator": gen,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ScaleFamily":
        basis = Basis.parse(spec["basis"])
        gen = generator_from_spec(spec.get("generator", {}))
        if isinstance(gen, SobolevTorusWeights) and basis is not Basis.FOURIER:
            raise FamilySpecError("sobolev-torus weights require the fourier basis")
        indices = [_as_index(k) for k in spec.get("indices", [])]
        spaces = tuple(ScaleSpace(basis, k, gen) for k in indices)
        return cls(basis, spaces)

    @classmethod
    def from_json(cls, path: str) -> "ScaleFamily":
        with open(path, encoding="utf-8") as handle:
            return cls.from_spec(json.load(handle))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_spec(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def hilbert_scale_family(symbol: str = "n+1", indices: Iterable = range(-3, 4),
                         basis: Basis = Basis.HERMITE) -> ScaleFamily:
    gen = DiagonalScaleWeights(symbol=symbol)
    gen.validate()
    return ScaleFamily(basis, tuple(ScaleSpace(basis, _as_index(k), gen) for k in indices))


def sobolev_torus_family(indices: Iterable = range(-4, 5)) -> ScaleFamily:
    gen = SobolevTorusWeights()
    return ScaleFamily(Basis.FOURIER, tuple(ScaleSpace(Basis.FOURIER, _as_index(k), gen)
                                            for k in indices))


def sequence_power_family(indices: Iterable = range(-4, 5),
                          basis: Basis = Basis.HERMITE) -> ScaleFamily:
    gen = SequencePowerWeights()
    return ScaleFamily(basis, tuple(ScaleSpace(basis, _as_index(k), gen) for k in indices))


def exp_sqrt_pair(basis: Basis = Basis.HERMITE) -> tuple:
    gen = ExpSqrtWeights()
    return (ScaleSpace(basis, Fraction(1), gen), ScaleSpace(basis, Fraction(-1), gen))
