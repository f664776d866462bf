"""Coefficient-matrix operators, continuity certificates and the partial product.

An operator is stored as a rule producing matrix entries over mode numbers:
diagonal symbol, banded entry function, a sum of rank-one terms, or a dense
generator. Truncation at n means the leading n x n principal submatrix in
coefficient-slot order, so truncations are nested.

The rest of the library reaches a representation only through the
`Representation` protocol, whose defaults treat the matrix as dense.

``certify`` decides membership in C(E, F) through a three-valued outcome:
certified (analytic-exact or truncation-stabilized), failed (norm grows
without bound across doublings), or inconclusive. A finite truncation can
never prove unboundedness, so the failure rule is an explicit divergence
proxy: growth by ``growth_threshold`` across three doublings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .errors import ProductUndefinedError, SpecParseError
from .expressions import compile_expression
from .sections import _DENSE_ALWAYS, PairKernel, SectionSummary
from .spaces import (Basis, CoefficientVector, ScaleFamily, ScaleSpace,
                     check_same_basis, dual_space, mode_to_position, modes, running_sup)

CERT_EXACT = "analytic-exact"
CERT_STABILIZED = "truncation-stabilized"
CERT_FAILED = "failed"
CERT_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# representations


class Representation:
    """What the library asks of an operator representation.

    A representation must supply ``entries`` and ``adjoint``; the remaining
    methods default to treating the matrix as dense and may be overridden
    where the structure allows something cheaper or exact.
    """

    def entries(self, mr: np.ndarray, mc: np.ndarray) -> np.ndarray:
        """Dense block for distinct row modes ``mr`` and column modes ``mc``."""
        raise NotImplementedError

    def adjoint(self) -> "Representation":
        raise NotImplementedError

    def slot_bandwidth(self, basis: Basis) -> Optional[int]:
        """Bandwidth in coefficient-slot order; None means full rows/columns."""
        return None

    def certify(self, op: "CoefficientOperator", e: ScaleSpace, f: ScaleSpace,
                cfg: RunConfig) -> "ContinuityCertificate":
        """Closed-form certificate where one exists, else the doubling schedule."""
        return _certify_by_truncation(op, e, f, cfg)

    def summary(self, kernel: PairKernel, lam: complex, n: int,
                want_census: bool) -> SectionSummary:
        """Section summary through the strategy that suits this structure."""
        return kernel.dense_summary(lam, n, want_census)

    def norm_estimate(self, kernel: PairKernel, n: int) -> float:
        return kernel.summary(0.0, n, want_census=False).d_high

    def max_n(self, cfg: RunConfig) -> int:
        """Deepest truncation a scan may ask for."""
        return min(cfg.scan_n_max, cfg.dense_cap)

    def symbol(self, basis: Basis, n: int) -> Optional[np.ndarray]:
        """Diagonal symbol on the leading n slots, or None if not diagonal."""
        return None


@dataclass(frozen=True)
class Diagonal(Representation):
    values: Callable[[np.ndarray], np.ndarray]
    source: Optional[str] = None

    def entries(self, mr, mc):
        out = np.zeros((len(mr), len(mc)), dtype=complex)
        _, i, j = np.intersect1d(mr, mc, assume_unique=True, return_indices=True)
        out[i, j] = np.asarray(self.values(mr[i]), dtype=complex)
        return out

    def adjoint(self):
        return Diagonal(lambda m, f=self.values: np.conj(f(m)),
                        source=f"conj({self.source})" if self.source else None)

    def slot_bandwidth(self, basis):
        return 0

    def certify(self, op, e, f, cfg):
        probe = cfg.symbol_probe
        ratio = f.weights(probe) / e.weights(probe)
        bound, diverged = running_sup(self.symbol(op.basis, probe) * ratio,
                                      cfg.growth_threshold)
        return ContinuityCertificate(op.describe(), e, f, float("inf") if diverged else bound,
                                     CERT_FAILED if diverged else CERT_EXACT, probe)

    def summary(self, kernel, lam, n, want_census):
        return kernel.diagonal_summary(lam, n, want_census)

    def max_n(self, cfg):
        # closed-form singular values: deep truncations are nearly free
        return max(cfg.scan_n_max, 1 << 15)

    def symbol(self, basis, n):
        return np.asarray(self.values(modes(basis, n).astype(float)), dtype=complex)


@dataclass(frozen=True)
class Banded(Representation):
    bandwidth: int
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (row modes, col modes)
    source: Optional[str] = None

    def entries(self, mr, mc):
        grid_r, grid_c = mr[:, None], mc[None, :]
        mask = np.abs(grid_r - grid_c) <= self.bandwidth
        out = np.zeros((len(mr), len(mc)), dtype=complex)
        vals = np.asarray(self.entry(grid_r, grid_c), dtype=complex)
        out[mask] = vals[mask]
        return out

    def adjoint(self):
        return Banded(self.bandwidth, lambda mr, mc, f=self.entry: np.conj(f(mc, mr)),
                      source=f"adj({self.source})" if self.source else None)

    def slot_bandwidth(self, basis):
        return 2 * self.bandwidth + 1 if basis is Basis.FOURIER else self.bandwidth

    def summary(self, kernel, lam, n, want_census):
        if n > _DENSE_ALWAYS:
            return kernel.banded_summary(lam, n, want_census)
        return super().summary(kernel, lam, n, want_census)

    def norm_estimate(self, kernel, n):
        if n > _DENSE_ALWAYS:
            return kernel.banded_norm(n)
        return super().norm_estimate(kernel, n)

    def max_n(self, cfg):
        return cfg.scan_n_max


@dataclass(frozen=True)
class RankSumTerm:
    u: Callable[[np.ndarray], np.ndarray]  # functional vector coefficients
    v: Callable[[np.ndarray], np.ndarray]  # value vector coefficients
    u_source: Optional[str] = None
    v_source: Optional[str] = None


@dataclass(frozen=True)
class RankSum(Representation):
    terms: tuple

    def entries(self, mr, mc):
        out = np.zeros((len(mr), len(mc)), dtype=complex)
        for term in self.terms:
            out += np.outer(np.asarray(term.v(mr), dtype=complex),
                            np.conj(np.asarray(term.u(mc), dtype=complex)))
        return out

    def adjoint(self):
        return RankSum(tuple(RankSumTerm(t.v, t.u, t.v_source, t.u_source)
                             for t in self.terms))

    def certify(self, op, e, f, cfg):
        e_dual = dual_space(e)
        term_norms = []
        for term in self.terms:
            nu, verdict_u = weighted_norm_series(term.u, e_dual, cfg)
            nv, verdict_v = weighted_norm_series(term.v, f, cfg)
            if "diverged" in (verdict_u, verdict_v):
                term_norms.append(float("inf"))
            elif "inconclusive" in (verdict_u, verdict_v):
                term_norms.append(float("nan"))
            else:
                term_norms.append(nu * nv)
        if len(self.terms) == 1 and not math.isnan(term_norms[0]):
            value = term_norms[0]  # exact for one term; inf when a factor diverges
            return ContinuityCertificate(op.describe(), e, f, value,
                                         CERT_FAILED if math.isinf(value) else CERT_EXACT,
                                         cfg.symbol_probe)
        upper = float("inf") if any(math.isinf(t) or math.isnan(t) for t in term_norms) \
            else float(sum(term_norms))
        return replace(super().certify(op, e, f, cfg), upper_bound=upper)

    def summary(self, kernel, lam, n, want_census):
        if n > _DENSE_ALWAYS:
            return kernel.ranksum_summary(lam, n, want_census)
        return super().summary(kernel, lam, n, want_census)


@dataclass(frozen=True)
class DenseGenerator(Representation):
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray]
    source: Optional[str] = None

    def entries(self, mr, mc):
        return np.asarray(self.entry(mr[:, None], mc[None, :]), dtype=complex)

    def adjoint(self):
        return DenseGenerator(lambda mr, mc, f=self.entry: np.conj(f(mc, mr)),
                              source=f"adj({self.source})" if self.source else None)


@dataclass(frozen=True)
class CoefficientOperator:
    basis: Basis
    rep: Representation
    symmetric: bool = False
    name: str = ""

    def position_bandwidth(self) -> Optional[int]:
        """Bandwidth in coefficient-slot order; None means full rows/columns."""
        return self.rep.slot_bandwidth(self.basis)

    def matrix(self, rows: int, cols: Optional[int] = None) -> np.ndarray:
        cols = rows if cols is None else cols
        return self.rep.entries(modes(self.basis, rows).astype(float),
                                modes(self.basis, cols).astype(float))

    def adjoint(self) -> "CoefficientOperator":
        if self.symmetric:
            return self
        return CoefficientOperator(self.basis, self.rep.adjoint(),
                                   name=f"{self.name}^+" if self.name else "")

    def describe(self) -> str:
        kind = type(self.rep).__name__.lower()
        return self.name or f"{kind} operator on {self.basis.value} basis"


def sesq_form(x: CoefficientOperator, xi: CoefficientVector,
              eta: CoefficientVector) -> complex:
    """Sesquilinear form <X xi, eta> at the joint truncation."""
    check_same_basis(x, xi, eta)
    n = max(xi.n, eta.n)
    mat = x.matrix(n)
    return complex(np.conj(eta.padded(n)) @ (mat @ xi.padded(n)))


# ---------------------------------------------------------------------------
# continuity certificates


@dataclass(frozen=True)
class ContinuityCertificate:
    operator: str
    e: ScaleSpace
    f: ScaleSpace
    norm_bound: float
    method: str
    witness_n: int
    upper_bound: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.method in (CERT_EXACT, CERT_STABILIZED)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "pair": [self.e.label, self.f.label],
            "norm_bound": self.norm_bound,
            "method": self.method,
            "witness_n": self.witness_n,
            "upper_bound": self.upper_bound,
        }


def weighted_norm_series(vec_fn: Callable[[np.ndarray], np.ndarray], space: ScaleSpace,
                         cfg: RunConfig = DEFAULT_CONFIG):
    """Norm of an infinite coefficient vector in ``space`` by partial sums.

    Returns (value, verdict) with verdict in {"converged", "diverged",
    "inconclusive"}. Convergence adds a geometric tail estimate from the
    last two partial-sum increments.
    """
    n = 256
    m = modes(space.basis, n)
    total = float(np.sum(np.abs(vec_fn(m)) ** 2 * space.weight_at(m) ** 2))
    increments = []
    while n < cfg.symbol_probe:
        m_new = modes(space.basis, 2 * n)[n:]
        inc = float(np.sum(np.abs(vec_fn(m_new)) ** 2 * space.weight_at(m_new) ** 2))
        increments.append(inc)
        total += inc
        n *= 2
        if len(increments) >= 2:
            prev, last = increments[-2], increments[-1]
            if last <= 1e-18 * max(total, 1.0):
                return math.sqrt(total), "converged"
            rho = last / prev if prev > 0 else 0.0
            if rho < 0.75:
                tail = last * rho / (1.0 - rho)
                if tail <= cfg.rel_tol * total:
                    return math.sqrt(total + tail), "converged"
            if len(increments) >= 3 and last >= prev and increments[-3] <= prev:
                if total >= cfg.growth_threshold * max(total - prev - last, 1e-300):
                    return float("inf"), "diverged"
    return math.sqrt(total), "inconclusive"


def certify(x: CoefficientOperator, e: ScaleSpace, f: ScaleSpace,
            cfg: RunConfig = DEFAULT_CONFIG) -> ContinuityCertificate:
    """Certify (or refute, or give up on) membership of X in C(E, F)."""
    check_same_basis(x, e, f)
    return x.rep.certify(x, e, f, cfg)


def _certify_by_truncation(x: CoefficientOperator, e: ScaleSpace, f: ScaleSpace,
                           cfg: RunConfig) -> ContinuityCertificate:
    history = []
    n = cfg.n0
    while n <= cfg.n_max:
        history.append((n, PairKernel(x, e, f, cfg).norm_estimate(n)))
        if len(history) >= 2:
            (_, prev), (_, last) = history[-2], history[-1]
            if abs(last - prev) <= cfg.rel_tol * max(abs(last), 1e-300):
                return ContinuityCertificate(x.describe(), e, f, last,
                                             CERT_STABILIZED, n)
        if len(history) >= 4 and history[-1][1] >= cfg.growth_threshold * history[-4][1]:
            return ContinuityCertificate(x.describe(), e, f, float("inf"),
                                         CERT_FAILED, n)
        n *= 2
    return ContinuityCertificate(x.describe(), e, f, history[-1][1],
                                 CERT_INCONCLUSIVE, history[-1][0])


# ---------------------------------------------------------------------------
# partial product


def find_product_triple(x: CoefficientOperator, y: CoefficientOperator,
                        family: ScaleFamily, cfg: RunConfig = DEFAULT_CONFIG,
                        certifier=certify):
    """First admissible (E, F, G) with Y in C(E, F) and X in C(F, G)."""
    check_same_basis(x, y, *family.spaces)
    cache = {}

    def cert(op, a, b):
        key = (id(op), a.index, b.index)
        if key not in cache:
            cache[key] = certifier(op, a, b, cfg)
        return cache[key]

    for f_mid in family:
        for e in family:
            if not cert(y, e, f_mid).certified:
                continue
            for g in family:
                if cert(x, f_mid, g).certified:
                    return e, f_mid, g
    return None


def framework_product(x: CoefficientOperator, y: CoefficientOperator,
                      family: ScaleFamily, cfg: RunConfig = DEFAULT_CONFIG) -> CoefficientOperator:
    """Partial product X . Y relative to the family; may be undefined.

    The returned operator generates entries of the truncated matrix product
    with a fixed, deterministic inner cutoff, so the result does not depend
    on which admissible triple was found.
    """
    triple = find_product_triple(x, y, family, cfg)
    if triple is None:
        raise ProductUndefinedError(
            f"product undefined in family: no admissible interspace triple for "
            f"{x.describe()} . {y.describe()}")
    basis = x.basis
    cutoff = cfg.product_cutoff

    def entry(mr, mc):
        # entry (i, j) sums over max(cutoff, 2 (max(i, j) + 1)) inner slots,
        # a pure function of (i, j); whole-grid calls become one matmul
        shape = np.broadcast_shapes(np.shape(mr), np.shape(mc))
        mr_all, mc_all = (np.broadcast_to(m, shape).ravel() for m in (mr, mc))
        i_all, j_all = (mode_to_position(basis, m.astype(int)) for m in (mr_all, mc_all))
        top = int(max(i_all.max(), j_all.max()))
        if 2 * (top + 1) <= cutoff:
            block = x.matrix(top + 1, cutoff) @ y.matrix(cutoff, top + 1)
            return block[i_all, j_all].reshape(shape)
        out = np.empty(i_all.shape, dtype=complex)
        for idx, (i, j) in enumerate(zip(i_all, j_all)):
            inner = modes(basis, max(cutoff, 2 * (int(max(i, j)) + 1))).astype(float)
            row = x.rep.entries(mr_all[idx:idx + 1], inner)
            column = y.rep.entries(inner, mc_all[idx:idx + 1])
            out[idx] = (row @ column)[0, 0]
        return out.reshape(shape)

    name = f"({x.describe()}).({y.describe()})"
    return CoefficientOperator(basis, DenseGenerator(entry), symmetric=False, name=name)


# ---------------------------------------------------------------------------
# JSON operator specs


def operator_from_spec(spec: dict) -> CoefficientOperator:
    basis = Basis.parse(spec.get("basis", "hermite"))
    rep_spec = spec.get("rep", {})
    kind = rep_spec.get("type")
    symmetric = bool(spec.get("symmetric", False))
    name = spec.get("name", "")
    if kind == "diagonal":
        source = rep_spec["symbol"]
        fn = compile_expression(source, ("n",))
        rep = Diagonal(lambda m, f=fn: f(np.asarray(m, dtype=float)), source=source)
    elif kind == "banded":
        source = rep_spec["entry"]
        bandwidth = int(rep_spec["bandwidth"])
        fn = compile_expression(source, ("n", "m"))
        rep = Banded(bandwidth, lambda mr, mc, f=fn: f(mr, mc), source=source)
    elif kind == "ranksum":
        terms = []
        for term in rep_spec.get("terms", []):
            terms.append(RankSumTerm(_term_vector(term["u"], basis),
                                     _term_vector(term["v"], basis),
                                     u_source=str(term["u"]), v_source=str(term["v"])))
        rep = RankSum(tuple(terms))
    elif kind == "dense":
        source = rep_spec["entry"]
        fn = compile_expression(source, ("n", "m"))
        rep = DenseGenerator(lambda mr, mc, f=fn: f(mr, mc), source=source)
    else:
        raise SpecParseError(f"unknown operator rep type {kind!r}")
    return CoefficientOperator(basis, rep, symmetric=symmetric, name=name)


def _term_vector(spec, basis: Basis) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(spec, dict) and spec.get("kind") == "ones":
        return lambda m: np.ones_like(np.asarray(m, dtype=float), dtype=complex)
    if isinstance(spec, dict) and spec.get("kind") == "point":
        theta = float(spec["theta"])
        return lambda m: np.exp(-1j * theta * np.asarray(m, dtype=float))
    if isinstance(spec, dict) and spec.get("kind") == "expr":
        fn = compile_expression(spec["source"], ("n",))
        return lambda m, f=fn: np.asarray(f(np.asarray(m, dtype=float)), dtype=complex)
    if isinstance(spec, (list, tuple)):
        values = np.asarray([complex(v) if not isinstance(v, (list, tuple))
                             else complex(v[0], v[1]) for v in spec])

        def coeff_vec(m, vals=values):
            # listed by coefficient slot: look each mode's slot up
            slots = mode_to_position(basis, np.asarray(m).astype(int))
            out = np.zeros(slots.shape, dtype=complex)
            take = slots < len(vals)
            out[take] = vals[slots[take]]
            return out
        return coeff_vec
    raise SpecParseError(f"cannot interpret rank-sum term vector {spec!r}")


def operator_from_json(path: str) -> CoefficientOperator:
    import json
    with open(path, encoding="utf-8") as handle:
        return operator_from_spec(json.load(handle))
