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

One `ScaleWeights` class serves all four kinds, each a label prefix and a
k > 0 formula in one table. Index 0 always carries the flat weight so that
the central space is exactly self-dual. Negative indices are stored as
exact reciprocals of the positive ones, which makes the duality involution
an identity on floats.

Each space holds its weights as a read-only prefix (`PrefixStore`) and
hashes its fields once, so equal rungs key one entry of every store. Tail
probes over ``symbol_probe`` slots (`embedding_norm`, certificates, limit
profiles) hold nothing: `probe_sups` walks the probe in blocks of at most
``PROBE_BLOCK`` slots, bit for bit the sups of the whole probe.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import BasisMismatchError, FamilySpecError, SpecParseError, json_typed
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


def sorted_modes(basis: Basis, n: int) -> np.ndarray:
    """The modes of the first n coefficient slots in increasing order: the
    contiguous range 0..n-1, or -((n-1)//2)..n//2 on the Fourier basis."""
    first = -((n - 1) // 2) if basis is Basis.FOURIER else 0
    return np.arange(first, first + n)


def mode_to_position(basis: Basis, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if basis is Basis.FOURIER:
        return np.where(m > 0, 2 * m - 1, -2 * m)
    return m


def _as_index(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value).limit_denominator(10**6) if isinstance(value, float) \
            else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        # None, "abc", "1/0", Infinity and NaN
        raise FamilySpecError(f"scale index {value!r} is not a number") from exc


# ---------------------------------------------------------------------------
# weight families


def _diagonal_values(symbol: str, m: np.ndarray) -> np.ndarray:
    """The eigenvalues a_m of a diagonal generator at the float modes ``m``."""
    return np.real(compile_expression(symbol, ("n",))(m))


# kind -> (label prefix, w_k(m) for k > 0 from float(k), the float modes m and
# the generator's symbol)
_WEIGHT_KINDS = {
    "diagonal": ("H", lambda k, m, symbol:
                 np.sqrt(1.0 + _diagonal_values(symbol, m) ** (2.0 * k))),
    "sobolev-torus": ("W", lambda k, m, symbol: (1.0 + m * m) ** (k / 2.0)),
    "sequence-power": ("s", lambda k, m, symbol: (1.0 + np.abs(m)) ** k),
    "exp-sqrt": ("x", lambda k, m, symbol: np.exp(k * np.sqrt(np.abs(m)))),
}


@dataclass(frozen=True)
class ScaleWeights:
    """The rungs of one weight kind of `_WEIGHT_KINDS`: w_0 = 1, the kind's
    formula for k > 0 and w_(-k) = 1/w_k. ``symbol`` is the a_n >= 1 of a
    diagonal generator, checked on its first 2048 modes, and None for the
    other kinds."""

    kind: str
    symbol: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _WEIGHT_KINDS:
            raise FamilySpecError(f"unknown generator type {self.kind!r}")
        if self.kind == "diagonal":
            sample = _diagonal_values(self.symbol, np.arange(2048, dtype=float))
            if not np.all(np.isfinite(sample)) or np.min(sample) < 1.0 - 1e-12:
                raise FamilySpecError(
                    f"diagonal scale symbol {self.symbol!r} must satisfy a_n >= 1")

    @property
    def prefix(self) -> str:
        return _WEIGHT_KINDS[self.kind][0]

    def weight(self, k: Fraction, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if k == 0:
            return np.ones_like(m)
        if k > 0:
            return _WEIGHT_KINDS[self.kind][1](float(k), m, self.symbol)
        return 1.0 / self.weight(-k, m)

    def to_spec(self) -> dict:
        spec = {"type": self.kind}
        if self.symbol is not None:
            spec["symbol"] = self.symbol
        return spec


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

    def to_spec(self) -> dict:
        return {"type": "pointwise-max"}


def generator_from_spec(spec: dict) -> ScaleWeights:
    kind = json_typed(spec, dict, "family generator").get("type")
    return ScaleWeights(kind, spec.get("symbol", "n+1") if kind == "diagonal" else None)


# ---------------------------------------------------------------------------
# spaces and vectors


class PrefixStore(dict):
    """Read-only arrays held by key, each as long as the longest prefix asked
    of it so far. `view` hands out prefix views; a longer request evaluates
    only the missing slots [lo, hi) through ``fill(lo, hi)`` and appends
    them, and an ``accumulate`` ufunc (np.add for running sums) continues
    from the last held row. An elementwise evaluation of a suffix is bit for
    bit the suffix of the whole evaluation, and an accumulation adds row by
    row down axis 0, so growing changes no value."""

    def view(self, key, n: int, fill: Callable, accumulate=None) -> np.ndarray:
        held = self.get(key)
        lo = 0 if held is None else len(held)
        if lo < n:
            new = fill(lo, n)
            if accumulate is not None:
                new = accumulate.accumulate(new, axis=0) if held is None else \
                    accumulate.accumulate(np.concatenate((held[-1:], new)), axis=0)[1:]
            held = self[key] = new if held is None else np.concatenate((held, new))
            held.flags.writeable = False
        return held[:n]


@dataclass(frozen=True)
class ScaleSpace:
    basis: Basis
    index: Fraction
    family: object
    label: str = ""
    _held: PrefixStore = field(default_factory=PrefixStore, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = _as_index(self.index)
        object.__setattr__(self, "index", index)
        if not self.label:
            object.__setattr__(self, "label", f"{self.family.prefix}_{index}")
        # the hash of the compared fields, taken once: rungs key the held stores
        object.__setattr__(self, "_hash", hash((self.basis, index, self.family, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def weights(self, n: int) -> np.ndarray:
        """Weights on the first n slots, a read-only view of the held prefix."""
        return self._held.view("weights", n, lambda lo, hi: self.weight_at(
            slot_modes(self.basis, np.arange(lo, hi))))

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


def column_norms(block: np.ndarray, space: Optional[ScaleSpace]) -> np.ndarray:
    """The norm in ``space`` (plain l2 when None) of each column of ``block``."""
    weights = space.weights(len(block)) if space is not None else 1.0
    terms = np.abs(block.T, order="C")  # each column sums |x|^2 w w, in place, as a row
    terms *= terms
    terms *= weights
    terms *= weights
    return np.sqrt(np.sum(terms, axis=1))


def norm(v: CoefficientVector, space: ScaleSpace) -> float:
    """Weighted l2 norm of the stored truncation of v: one column of `column_norms`."""
    check_same_basis(v, space)
    return float(column_norms(v.coeffs[:, None], space)[0])


def pairing(u: CoefficientVector, v: CoefficientVector) -> complex:
    """Duality pairing <u, v>, conjugate linear in the second argument."""
    check_same_basis(u, v)
    n = max(u.n, v.n)
    return complex(np.sum(u.padded(n) * np.conj(v.padded(n))))


def dual_space(space: ScaleSpace) -> ScaleSpace:
    return ScaleSpace(space.basis, -space.index, space.family)


PROBE_BLOCK = 1 << 15  # slots per block of `probe_sups`
_PAIR_CHUNK = 1 << 14  # slots per product in `probe_sups`
_BOUND_MARGIN = 1.0 + 1e-14  # relative slack of the chunk bound of `probe_sups`
_TINY = float(np.finfo(float).tiny)  # its absolute slack, for products that underflow


def _checkpoints(n: int) -> tuple:
    """Ends of the three prefixes whose maxima `running_sup` compares."""
    return max(16, n >> 6), max(32, n >> 3), n


def running_sup(values: np.ndarray, growth_threshold: float, slots=None):
    """Sup of |values| with a divergence verdict: the running maximum over the
    first 1/64, 1/8 and all of the probed slots grows by ``growth_threshold``.

    ``values`` sits on the ascending coefficient slots ``slots`` (every slot
    from 0 when None), and the probe ends just past the last of them. A NaN,
    or a first checkpoint that holds no slot, gives no divergence verdict.
    """
    mags = np.abs(values)
    n = len(mags) if slots is None else int(slots[-1]) + 1
    ends = _checkpoints(n)
    if slots is not None:
        ends = np.searchsorted(slots, ends)
    maxima = [float(np.max(mags[:end])) if end else float("nan") for end in ends]
    diverged = maxima[-1] >= growth_threshold * max(maxima[0], 1e-300)
    return maxima[-1], diverged


def _pair_chunk_max(a: Optional[np.ndarray], wf: np.ndarray, we: np.ndarray) -> float:
    """max |a w_F / w_E| over one chunk of `probe_sups`, where ``a`` is None
    (no symbol), |symbol| (a real one) or a complex symbol. Weights are >= 0
    or NaN, and so is their ratio r, so on the real path |a| r is bit for
    bit |a r| and r needs no modulus."""
    r = wf / we
    if a is None:
        return np.max(r)
    if np.iscomplexobj(a):
        return np.max(np.abs(a * r))
    r *= a
    return np.max(r)


def probe_sups(basis: Basis, probe: int, pairs: list, growth_threshold: float,
               symbol: Optional[np.ndarray] = None) -> list:
    """`running_sup` of ``symbol`` * w_F / w_E (of w_F / w_E when ``symbol`` is
    None) over the first ``probe`` slots, one (sup, diverged) per (E, F) in
    ``pairs``, bit for bit that of `running_sup` over the whole probe, NaN
    included.

    The slots are walked in blocks of at most ``PROBE_BLOCK`` whose edges
    include the checkpoints, and each block in chunks of at most
    ``_PAIR_CHUNK``. Every value is the elementwise expression of a
    whole-probe evaluation, and the maximum of the chunk maxima is the
    maximum. Each rung is evaluated once per block for all the pairs it
    serves, except that a `ScaleWeights` rung -k whose rung k is probed too
    is the reciprocal of rung k's block, which is how `ScaleWeights.weight`
    forms it. Per chunk:

    * an E = F pair whose weight is finite and nonzero on the chunk has ratio
      exactly 1.0 there, so one chunk maximum serves every such pair: max |a|
      (1.0 without a symbol, and the product taken once for a complex one);
    * every other element is at most
      B = A * (max w_F / min w_E) * (1 + 1e-14) + 2^-1022, where A is
      max |a| for a real symbol, max |Re a| + max |Im a| for a complex one
      and 1 without. On the real path rounding is monotone, so B bounds each
      computed element with no margin at all; on the complex path the factor
      covers the few roundings of the product and its modulus, and the
      smallest normal float those of products that underflow. If B is below
      the pair's running maximum of its computed chunk maxima, the chunk
      cannot change the maximum of any prefix that `running_sup` compares,
      since each prefix starts at slot 0 and so holds the earlier chunks:
      0 is recorded and the ratio is not formed. A NaN, infinite or zero
      weight, or a NaN or infinite symbol, makes B NaN or infinite, which
      never skips, and a NaN chunk maximum makes the running maximum NaN,
      which stops every later skip.
    """
    edges = sorted({*range(0, probe, PROBE_BLOCK), *(min(c, probe) for c in _checkpoints(probe))})
    rungs = list(dict.fromkeys(space for pair in pairs for space in pair))
    at = {space: i for i, space in enumerate(rungs)}
    ei, fi = (np.array([at[pair[side]] for pair in pairs], dtype=int) for side in (0, 1))
    positive = {(space.family, space.index): i for i, space in enumerate(rungs) if space.index > 0}
    mirrored = {i: positive[space.family, -space.index] for i, space in enumerate(rungs)
                if isinstance(space.family, ScaleWeights)
                and (space.family, -space.index) in positive}
    complex_symbol = np.iscomplexobj(symbol)
    running = np.zeros(len(pairs))  # per pair: the max of its computed chunk maxima
    maxima, ends = [], []
    for lo, hi in zip(edges, edges[1:]):
        m = slot_modes(basis, np.arange(lo, hi)).astype(float)
        w = {i: space.weight_at(m) for i, space in enumerate(rungs) if i not in mirrored}
        del m  # here and below: at most one block of weights is alive
        w.update({i: 1.0 / w[pos] for i, pos in mirrored.items()})
        for a, b in ((a, min(a + _PAIR_CHUNK, hi)) for a in range(lo, hi, _PAIR_CHUNK)):
            part = [w[i][a - lo:b - lo] for i in range(len(rungs))]
            low = np.array([np.min(v) for v in part])
            high = np.array([np.max(v) for v in part])
            if symbol is None:
                mag, top = None, 1.0
            elif complex_symbol:
                mag = symbol[a:b]
                top = np.max(np.abs(mag.real)) + np.max(np.abs(mag.imag))
            else:
                mag = np.abs(symbol[a:b])
                top = np.max(mag)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                bound = top * (high[fi] / low[ei]) * _BOUND_MARGIN + _TINY
            ones = (ei == fi) & (low[ei] > 0.0) & (high[ei] < np.inf)
            row = np.zeros(len(pairs))
            if ones.any():  # top is max |a| (1.0 without a symbol) but on the complex path
                e = ei[np.argmax(ones)]
                row[ones] = _pair_chunk_max(mag, part[e], part[e]) if complex_symbol else top
            for p in np.flatnonzero(~ones & ~(bound < running)):
                row[p] = _pair_chunk_max(mag, part[fi[p]], part[ei[p]])
            np.maximum(running, row, out=running)
            maxima.append(row)
            ends.append(b - 1)
        del w, part
    maxima = np.array(maxima)
    return [running_sup(maxima[:, p], growth_threshold, np.array(ends)) for p in range(len(pairs))]


def embedding_norm(e: ScaleSpace, f: ScaleSpace, cfg: RunConfig = DEFAULT_CONFIG) -> float:
    """sup_n w_F(n)/w_E(n); finite iff E embeds continuously into F.

    The supremum is probed on the first ``cfg.symbol_probe`` coefficient
    slots; an unbounded ratio is reported as inf (see `probe_sups`).
    """
    check_same_basis(e, f)
    if e == f:
        return 1.0
    [(sup, diverged)] = probe_sups(e.basis, cfg.symbol_probe, [(e, f)], cfg.growth_threshold)
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
        basis = Basis.parse(json_typed(spec, dict, "family spec")["basis"])
        gen = generator_from_spec(spec.get("generator", {}))
        if gen.kind == "sobolev-torus" and basis is not Basis.FOURIER:
            raise FamilySpecError("sobolev-torus weights require the fourier basis")
        indices = json_typed(spec.get("indices", []), list, "family indices")
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
    gen = ScaleWeights("diagonal", symbol)
    return ScaleFamily(basis, tuple(ScaleSpace(basis, _as_index(k), gen) for k in indices))


def sobolev_torus_family(indices: Iterable = range(-4, 5)) -> ScaleFamily:
    gen = ScaleWeights("sobolev-torus")
    return ScaleFamily(Basis.FOURIER, tuple(ScaleSpace(Basis.FOURIER, _as_index(k), gen)
                                            for k in indices))


def sequence_power_family(indices: Iterable = range(-4, 5),
                          basis: Basis = Basis.HERMITE) -> ScaleFamily:
    gen = ScaleWeights("sequence-power")
    return ScaleFamily(basis, tuple(ScaleSpace(basis, _as_index(k), gen) for k in indices))


def exp_sqrt_pair(basis: Basis = Basis.HERMITE) -> tuple:
    gen = ScaleWeights("exp-sqrt")
    return (ScaleSpace(basis, Fraction(1), gen), ScaleSpace(basis, Fraction(-1), gen))
