"""Coefficient-matrix operators, continuity certificates and the partial product.

An operator is stored as a rule producing matrix entries over mode numbers:
diagonal symbol, banded entry function, a sum of rank-one terms, or a dense
generator. Truncation at n means the leading n x n principal submatrix in
coefficient-slot order, so truncations are nested.

The rest of the library reaches a representation only through the
`Representation` protocol, whose defaults treat the matrix as dense. Each
representation owns its section strategy, the singular-value summary of
W_F (X - lambda) W_E^{-1} at a truncation (`sections.SectionSummary`),
census included: dense SVDs by default (`Representation.summary`), closed
forms over a whole row of lambda for a diagonal (`Diagonal.summaries`),
and, above ``_DENSE_ALWAYS`` slots, banded Gram eigenvalues
(`Banded.summary`) or, for a rank sum with a constant shifted weight ratio,
k x k reductions on the range of its factors (`RankSum.summary`). A
strategy reads the pair's spaces and configuration from the `PairKernel` it
is handed, and the kernel keeps the summary it returns. A representation
also says whether every entry that a scan reads is real
(`Representation.real`: False by default, and from the held symbol, the
band's diagonals or the held factor stacks where overridden); the duality
pass of a real self-adjoint operator then reads its dual rows from the
primal ones.

On a diagonal operator the section depends on the pair only through
w_F / w_E, which is exactly 1.0 on every E = F pair. So a `Diagonal` holds,
per basis, truncation and configuration, the last row it computed for a
pair whose ratio is identically 1.0, and every such pair that asks at an
equal row of lambda reads it: a scan computes each truncation's E = F row
once per pass instead of once per rung, bit for bit the same.

A banded summary builds no section: `Banded.gram_bands` evaluates the
2 b + 1 diagonals of the section once, from ``entry`` and the held weights,
and assembles both Gram matrices from them straight into LAPACK band
storage, with rows and columns in mode order, where their bandwidth is 2 b
on either basis (slot order would give 4 b on the Fourier basis). A real band,
as real operators give at lambda = 0 and real symmetric ones between rungs
of weight 1 at any lambda, is reduced by dsbtrd. When the wide band equals
the tall one bit for bit, as for a real symmetric X on W_0 -> W_0, it is
reduced once and read for both views.
The singular values are bit for bit those of ``eigvals_banded`` on that band
without its all-zero outer rows (`sections._GramSpectrum`). ``section`` keeps
slot order and serves residuals and solves, which `Representation.factorize`
factors: dense LU by default, SuperLU for `Banded`, the symbol for
`Diagonal`, which builds no section.

``certify`` decides membership in C(E, F) through a three-valued outcome:
certified (analytic-exact or truncation-stabilized), failed (norm grows
without bound), or inconclusive. A finite truncation can never prove
unboundedness, so every failure rule is an explicit divergence proxy:
growth by ``growth_threshold`` of a running sup from 1/64 to 1/8 to all of
``symbol_probe`` slots (`spaces.running_sup`), or of the section norm across
three doublings.

An operator holds one `PairKernel` per (E, F, cfg), compared by equality
(`CoefficientOperator.kernel`), and each kernel holds its pair's
certificate once one is taken. Membership in C(E, F) and the limit
operators do not depend on lambda, so all the queries on one operator
certify and probe each pair once; only the section walks depend on lambda.
``certify_pairs`` certifies the pairs whose kernels hold no certificate yet
in one call to ``Representation.certify_pairs``, a representation's only
certificate method, and ``certify`` is its one-pair view. A diagonal
representation takes them all in one pass over its probe, in blocks of
slots (`spaces.probe_sups`): each rung's weights are evaluated once per
block whatever the number of pairs, and no probe-length weight array is
built; a real symbol is probed in real arithmetic. A rank sum's term norm
is ||u||_{E^x} ||v||_F, each factor of which reads one rung, so its
certificates sum each factor's weighted series once per (factor, space) in
the call. The values are bit for bit those of one pair at a time.

A `RankSum` holds, per basis, the n x r stacks of its factors u and v
(`RankSum.factors`), read-only, like a diagonal symbol: the doubling
schedule's norm estimates and the walks weight prefixes of them instead of
evaluating every term again for each pair and truncation.

A band matrix is bounded exactly when its diagonals are:
sup |a_ij| <= ||A|| <= sum_k sup_m |d_k(m)| (Schur's test; Lindner, *Infinite
Matrices and their Finite Sections*, 2006, section 1.3). So ``Banded.certify_pairs``
probes the weighted diagonals w_F(m + k) X[m + k, m] / w_E(m), X evaluated once
per call, on the sampled tail slots of the limit probes, and fails a pair, with
no section, when their running sup grows. Bounded diagonals, or a NaN among
them, decide nothing, and the doubling schedule gives the certificate and its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .config import RunConfig, DEFAULT_CONFIG
from .errors import ProductUndefinedError, SpecParseError, json_typed
from .expressions import compile_expression
from .sections import (_DENSE_ALWAYS, LimitProfile, PairKernel, SectionSummary, _GramSpectrum,
                       _constant_shift_constants, _low_rank_census, _svdvals, gram_band,
                       tail_slots)
from .spaces import (Basis, CoefficientVector, ScaleFamily, ScaleSpace, check_same_basis,
                     dual_space, mode_to_position, modes, probe_sups, running_sup, slot_modes,
                     sorted_modes)

CERT_EXACT = "analytic-exact"
CERT_STABILIZED = "truncation-stabilized"
CERT_FAILED = "failed"
CERT_INCONCLUSIVE = "inconclusive"

_ROW_BLOCK = 1 << 15  # entries per block of `Diagonal.summaries`


# ---------------------------------------------------------------------------
# representations


def _diagonal_constants(symbol: np.ndarray, ratio: np.ndarray, lams: np.ndarray,
                        defect_eps: float) -> tuple:
    """(c_low, d_high, surj_low, census) over ``lams`` of the diagonal section
    with n x 1 columns ``symbol`` and ``ratio`` = w_F / w_E, from blocks of
    |symbol - lambda| * ratio holding all n slots of at most ``_ROW_BLOCK`` / n
    lambda. Each entry is the one-lambda expression, and min, max and counts
    do not depend on the order of evaluation."""
    c_low, d_high, census = np.empty(len(lams)), np.empty(len(lams)), np.empty(len(lams), int)
    width = max(1, _ROW_BLOCK // len(symbol))
    for block in (slice(a, a + width) for a in range(0, len(lams), width)):
        vals = np.abs(symbol - lams[None, block])
        vals *= ratio
        c_low[block], d_high[block] = vals.min(axis=0), vals.max(axis=0)
        census[block] = np.count_nonzero(vals < defect_eps * d_high[block], axis=0)
    return c_low, d_high, c_low, census


class Representation:
    """What the library asks of an operator representation.

    A representation must supply ``entries`` and ``adjoint``; the remaining
    methods default to treating the matrix as dense and may be overridden
    where the structure allows something cheaper or exact. ``certify_pairs``
    is the one certificate method, and it takes all the pairs of a call.
    """

    def entries(self, mr: np.ndarray, mc: np.ndarray) -> np.ndarray:
        """Dense block for distinct row modes ``mr`` and column modes ``mc``."""
        raise NotImplementedError

    def adjoint(self) -> "Representation":
        raise NotImplementedError

    def section(self, basis: Basis, rows: int, cols: int):
        """Leading rows x cols block in slot order: dense here, sparse where
        the structure allows; solves and residuals use it."""
        return self.entries(modes(basis, rows).astype(float), modes(basis, cols).astype(float))

    def factorize(self, basis: Basis, lam: complex, n: int, square=None) -> Callable:
        """B -> (X_n - lambda)^(-1) B for n x m blocks B, factored once from the
        n x n ``square`` of ``section``, built here unless the caller holds it;
        here by LAPACK LU."""
        mat = (self.section(basis, n, n) if square is None else square).astype(complex)
        mat[np.diag_indices_from(mat)] -= lam
        lu = scipy.linalg.lu_factor(mat, overwrite_a=True)
        return lambda b: scipy.linalg.lu_solve(lu, b)

    def slot_bandwidth(self, basis: Basis) -> Optional[int]:
        """Bandwidth in coefficient-slot order; None means full rows/columns."""
        return None

    def real(self, basis: Basis, cfg: RunConfig) -> bool:
        """Is the imaginary part of every matrix entry that a scan at ``cfg``
        reads exactly 0? Weights are real, so W_F (X - conj(lambda)) W_E^{-1}
        is then the entrywise conjugate of W_F (X - lambda) W_E^{-1}, with the
        same singular values, censuses and limit bounds. Here False: dense
        entries are not probed."""
        return False

    def certify_pairs(self, op: "CoefficientOperator", pairs: list, cfg: RunConfig) -> list:
        """The certificate of each (E, F) in ``pairs``: here its doubling schedule."""
        return [_certify_by_truncation(op, e, f, cfg) for e, f in pairs]

    def summary(self, kernel: PairKernel, lam: complex, n: int) -> SectionSummary:
        """Section summary of ``kernel``'s pair at truncation n, census
        included, counted at ``kernel.cfg``; here from dense SVDs of the tall
        and wide views."""
        rows = n + self._dense_margin(kernel)
        sv_tall = _svdvals(self._dense_section(kernel, lam, rows, n))
        sv_wide = _svdvals(self._dense_section(kernel, lam, n, rows))
        return SectionSummary(n, float(sv_tall[-1]), float(sv_tall[0]), float(sv_wide[-1]),
                              int(np.sum(sv_wide < kernel.cfg.defect_eps * sv_wide[0])))

    def _dense_margin(self, kernel: PairKernel) -> int:
        pb = self.slot_bandwidth(kernel.x.basis)
        return pb if pb is not None else kernel.cfg.section_margin

    def _dense_section(self, kernel: PairKernel, lam: complex, rows: int, cols: int) -> np.ndarray:
        """The dense rows x cols block of W_F (X - lambda) W_E^{-1} in slot order."""
        mat = kernel.x.matrix(rows, cols).astype(complex)
        d = np.arange(min(rows, cols))
        mat[d, d] -= lam
        mat *= kernel.f.weights(rows)[:, None]
        mat /= kernel.e.weights(cols)[None, :]
        return mat

    def summaries(self, kernel: PairKernel, lams: np.ndarray, n: int) -> tuple:
        """(c_low, d_high, surj_low, census) arrays at truncation n over ``lams``,
        here from one `PairKernel.summary` each."""
        found = [kernel.summary(lam, n) for lam in lams.tolist()]
        return tuple(np.array([getattr(s, name) for s in found])
                     for name in ("c_low", "d_high", "surj_low", "census"))

    def norm_estimate(self, kernel: PairKernel, n: int) -> float:
        """Largest singular value of the unshifted weighted tall section, here
        from its dense SVD alone: the ``d_high`` of ``summary(kernel, 0, n)``."""
        tall = self._dense_section(kernel, 0.0, n + self._dense_margin(kernel), n)
        return float(_svdvals(tall)[0])

    def max_n(self, cfg: RunConfig) -> int:
        """Deepest truncation a scan may ask for."""
        return min(cfg.scan_n_max, cfg.dense_cap)

    def limit_profile(self, op: "CoefficientOperator", e: ScaleSpace, f: ScaleSpace,
                      cfg: RunConfig) -> Optional[LimitProfile]:
        """Limit data of W_F (X - lambda) W_E^{-1}, or None where it has no closed form."""
        return None


@dataclass(frozen=True)
class Diagonal(Representation):
    values: Callable[[np.ndarray], np.ndarray]
    source: Optional[str] = None
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entries(self, mr, mc):
        out = np.zeros((len(mr), len(mc)), dtype=complex)
        _, i, j = np.intersect1d(mr, mc, assume_unique=True, return_indices=True)
        out[i, j] = np.asarray(self.values(mr[i]), dtype=complex)
        return out

    def adjoint(self):
        return Diagonal(lambda m, f=self.values: np.conj(f(m)),
                        source=f"conj({self.source})" if self.source else None)

    def section(self, basis, rows, cols):
        return scipy.sparse.diags(self.symbol(basis, min(rows, cols)), shape=(rows, cols),
                                  format="csr")

    def factorize(self, basis, lam, n, square=None):
        shifted = (self.symbol(basis, n) - lam)[:, None]  # no section read
        return lambda b: b / shifted

    def slot_bandwidth(self, basis):
        return 0

    def real(self, basis, cfg):
        # the slots that certificates, limit probes and walks read
        return not np.any(self.symbol(basis, max(cfg.symbol_probe, self.max_n(cfg))).imag)

    def certify_pairs(self, op, pairs, cfg):
        # one blocked pass over the probe for all pairs (see the module
        # docstring); a real symbol is probed in real arithmetic, where
        # |a r| is bit for bit the modulus of the complex product (a + 0i) r
        probe = cfg.symbol_probe
        symbol = self.symbol(op.basis, probe)
        sups = probe_sups(op.basis, probe, pairs, cfg.growth_threshold,
                          symbol if np.any(symbol.imag) else symbol.real)
        return [ContinuityCertificate(op.describe(), e, f, float("inf") if diverged else bound,
                                      CERT_FAILED if diverged else CERT_EXACT, probe)
                for (e, f), (bound, diverged) in zip(pairs, sups)]

    def summary(self, kernel, lam, n):
        c_low, d_high, _, census = (v[0].item() for v in self.summaries(
            kernel, np.array([lam], dtype=complex), n))
        return SectionSummary(n, c_low, d_high, c_low, census)

    def summaries(self, kernel, lams, n):
        """Censuses included, from blocks of |symbol - lambda| w_F / w_E
        (`_diagonal_constants`). A pair whose ratio w_F / w_E is 1.0 on all n
        slots, as every E = F pair's is, has the row of any other such pair at
        equal lambda, since x * 1.0 = x: the operator holds the last such row
        per (basis, n, cfg), read-only with its lambda array, and hands it to
        every such pair that asks with an equal array. A ratio that is not
        identically 1.0 (NaN where weights overflow) is computed afresh and
        neither reads nor replaces the held row."""
        symbol = self.symbol(kernel.x.basis, n)[:, None]
        ratio = (kernel.f.weights(n) / kernel.e.weights(n))[:, None]
        eps = kernel.cfg.defect_eps
        if not np.all(ratio == 1.0):
            return _diagonal_constants(symbol, ratio, lams, eps)
        key = (kernel.x.basis, n, kernel.cfg)
        held = self._rows.get(key)
        if held is None or not np.array_equal(held[0], lams):
            held = (lams.copy(), *_diagonal_constants(symbol, ratio, lams, eps))
            for array in held:
                array.flags.writeable = False
            self._rows[key] = held
        return held[1:]

    def max_n(self, cfg):
        # closed-form singular values: deep truncations are nearly free
        return max(cfg.scan_n_max, 1 << 15)

    def symbol(self, basis, n):
        """Symbol on the first n slots of ``basis``, a read-only view into the one
        array held per basis; only a longer prefix than any asked before is
        evaluated. Certificates ask for ``symbol_probe`` slots, so once one is
        taken the operator holds that many (2 MB at the default probe)."""
        held = self._held.get(basis)
        if held is None or len(held) < n:
            held = np.array(self.values(modes(basis, n).astype(float)), dtype=complex)
            held.flags.writeable = False
            self._held[basis] = held
        return held[:n]

    def limit_profile(self, op, e, f, cfg):
        return LimitProfile.probe(op.basis, e, f, cfg, {0: self.values})


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

    def section(self, basis, rows, cols):
        # built diagonal by diagonal in slot order; slot pairs whose modes lie
        # outside the band stay as explicit zeros
        pb = self.slot_bandwidth(basis)
        m_all = modes(basis, max(rows, cols))
        data, ii, jj = [], [], []
        for off in range(-pb, pb + 1):
            j0 = max(0, -off)
            j1 = min(cols, rows - off)
            if j1 <= j0:
                continue
            j = np.arange(j0, j1)
            i = j + off
            vals = np.asarray(self.entry(m_all[i].astype(float), m_all[j].astype(float)),
                              dtype=complex)
            mask = np.abs(m_all[i] - m_all[j]) <= self.bandwidth
            data.append(np.where(mask, vals, 0.0))
            ii.append(i)
            jj.append(j)
        mat = scipy.sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(ii), np.concatenate(jj))),
            shape=(rows, cols), dtype=complex)
        return mat.tocsr()

    def factorize(self, basis, lam, n, square=None):
        # by columns: SuperLU solves a block of 64 several times slower than its columns
        square = self.section(basis, n, n) if square is None else square
        shifted = square - lam * scipy.sparse.identity(n)
        solve = scipy.sparse.linalg.splu(shifted.tocsc()).solve
        return lambda b: np.column_stack([solve(col) for col in b.T])

    def slot_bandwidth(self, basis):
        return 2 * self.bandwidth + 1 if basis is Basis.FOURIER else self.bandwidth

    def real(self, basis, cfg):
        # the diagonals of `gram_bands` at max_n, whose outer modes hold those
        # of every shallower and every dense view, and at the limit probes'
        # tail slots
        m = sorted_modes(basis, self.max_n(cfg) + max(self.slot_bandwidth(basis), 1))
        tail = slot_modes(basis, tail_slots(cfg.symbol_probe)).astype(float)
        b = self.bandwidth
        return not any(np.any(np.asarray(self.entry(at + k, at), dtype=complex).imag)
                       for k in range(-b, b + 1)
                       for at in (m[max(0, -k):len(m) - max(0, k)].astype(float), tail))

    def certify_pairs(self, op, pairs, cfg):
        # no entry of W_F X W_E^{-1} exceeds its norm: growing weighted
        # diagonals fail the pair with no section (see the module docstring)
        slots = tail_slots(cfg.symbol_probe)
        m = slot_modes(op.basis, slots).astype(float)
        band = [(k, np.asarray(self.entry(m + k, m), dtype=complex))  # once for all pairs
                for k in range(-self.bandwidth, self.bandwidth + 1)]
        mags = [np.max([np.abs(f.weight_at(m + k) * d) for k, d in band], axis=0) / e.weight_at(m)
                for e, f in pairs]
        return [ContinuityCertificate(op.describe(), e, f, float("inf"), CERT_FAILED,
                                      cfg.symbol_probe)
                if running_sup(mag, cfg.growth_threshold, slots)[1]
                else _certify_by_truncation(op, e, f, cfg) for (e, f), mag in zip(pairs, mags)]

    def gram_bands(self, kernel: PairKernel, lam: complex, n: int) -> tuple:
        """Lower band storage of S^H S, of the tall view (n + margin rows, n
        columns), and of S S^H, of the wide one, for S = W_F (X - lambda) W_E^{-1}
        at truncation n, with rows and columns in mode order.

        Both views span the first n slots and the first n + margin slots, and
        each holds a contiguous range of modes (`spaces.sorted_modes`). Sorting
        rows and columns by mode leaves the singular values as they are, and
        the Gram matrix has bandwidth 2 b, while slot order interleaves the
        signed Fourier modes and doubles it. One evaluation of the 2 b + 1
        diagonals of S over the outer modes, each entry formed as
        (X - lambda) w_F / w_E, fills both bands (`sections.gram_band`): the
        tall view reads its n columns, the wide one the diagonals of S^H,
        conj(S[c, c + k]) at column c of diagonal k.
        """
        basis, b = kernel.x.basis, self.bandwidth
        outer = n + max(self.slot_bandwidth(basis), 1)
        outer_modes = sorted_modes(basis, outer)
        shift = b + int(sorted_modes(basis, n)[0] - outer_modes[0])
        to_slots = mode_to_position(basis, outer_modes)
        wf, we = kernel.f.weights(outer)[to_slots], kernel.e.weights(outer)[to_slots]
        m = outer_modes.astype(float)
        # s[k + b, b + c] = S[c + k, c] in outer mode order, zero past either end
        s = np.zeros((2 * b + 1, outer + 2 * b), dtype=complex)
        for k in range(-b, b + 1):
            lo, hi = max(0, -k), min(outer, outer - k)
            vals = np.asarray(self.entry(m[lo:hi] + k, m[lo:hi]), dtype=complex)
            s[k + b, b + lo:b + hi] = (vals - lam if k == 0 else vals) \
                * wf[lo + k:hi + k] / we[lo:hi]
        wide = np.conj([s[b - k, shift + k:shift + k + n] for k in range(-b, b + 1)])
        return gram_band(s[:, shift:shift + n]), gram_band(wide)

    def summary(self, kernel, lam, n):
        if n <= _DENSE_ALWAYS:
            return super().summary(kernel, lam, n)
        tall_band, wide_band = self.gram_bands(kernel, lam, n)
        tall = _GramSpectrum(tall_band)
        c_low, d_high = tall.singular_value(0), tall.singular_value(-1)
        if np.array_equal(wide_band, tall_band):  # one reduction serves both views
            wide, surj_low, wide_high = tall, c_low, d_high
        else:
            wide = _GramSpectrum(wide_band)
            surj_low, wide_high = wide.singular_value(0), wide.singular_value(-1)
        census = wide.count_up_to((kernel.cfg.defect_eps * wide_high) ** 2)
        return SectionSummary(n, c_low, d_high, surj_low, census)

    def norm_estimate(self, kernel, n):
        if n <= _DENSE_ALWAYS:
            return super().norm_estimate(kernel, n)
        return _GramSpectrum(self.gram_bands(kernel, 0.0, n)[0]).singular_value(-1)

    def max_n(self, cfg):
        return cfg.scan_n_max

    def limit_profile(self, op, e, f, cfg):
        band = range(-self.bandwidth, self.bandwidth + 1)
        return LimitProfile.probe(op.basis, e, f, cfg,
                                  {k: lambda m, k=k: self.entry(m + k, m) for k in band})


@dataclass(frozen=True)
class RankSumTerm:
    u: Callable[[np.ndarray], np.ndarray]  # functional vector coefficients
    v: Callable[[np.ndarray], np.ndarray]  # value vector coefficients
    u_source: Optional[str] = None
    v_source: Optional[str] = None


@dataclass(frozen=True)
class RankSum(Representation):
    terms: tuple
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entries(self, mr, mc):
        out = np.zeros((len(mr), len(mc)), dtype=complex)
        for term in self.terms:
            out += np.outer(np.asarray(term.v(mr), dtype=complex),
                            np.conj(np.asarray(term.u(mc), dtype=complex)))
        return out

    def adjoint(self):
        return RankSum(tuple(RankSumTerm(t.v, t.u, t.v_source, t.u_source)
                             for t in self.terms))

    def certify_pairs(self, op, pairs, cfg):
        """Each term's norm is ||u||_{E^x} ||v||_F, and each factor reads one
        rung only, so every `weighted_norm_series` is summed once per
        (factor function, space) in the call, spaces compared by equality: a
        term with u is v shares its series between E^x and F = E^x."""
        series = {}

        def norm(fn, space):
            key = (fn, space)
            if key not in series:
                series[key] = weighted_norm_series(fn, space, cfg)
            return series[key]

        return [self._certify(op, e, f, cfg, norm) for e, f in pairs]

    def _certify(self, op, e, f, cfg, norm) -> "ContinuityCertificate":
        e_dual = dual_space(e)
        term_norms = []
        for term in self.terms:
            nu, verdict_u = norm(term.u, e_dual)
            nv, verdict_v = norm(term.v, f)
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
        return replace(_certify_by_truncation(op, e, f, cfg), upper_bound=upper)

    def real(self, basis, cfg):
        # every slot of the walks' sections, the dense views' margin rows included
        v, u = self.factors(basis, self.max_n(cfg) + cfg.section_margin)
        return not (np.any(v.imag) or np.any(u.imag))

    def limit_profile(self, op, e, f, cfg):
        # a bounded finite-rank operator is compact: no diagonal survives in the limit
        return LimitProfile.probe(op.basis, e, f, cfg, {})

    def _weighted_factors(self, kernel: PairKernel, lam: complex, n: int) -> tuple:
        """(d, V, U) of the square section S = diag(d) + V U^H at truncation n:
        rank-sum columns have unbounded support, so margins cannot make a tall
        view exact anyway."""
        v, u = self.factors(kernel.x.basis, n)
        wf, we = kernel.f.weights(n), kernel.e.weights(n)
        return -lam * (wf / we), v * wf[:, None], u / we[:, None]

    def factors(self, basis: Basis, n: int) -> tuple:
        """(V, U): the n x r stacks of the terms' v and u on the first n slots
        of ``basis``, read-only views into the one pair held per basis; only a
        longer prefix than any asked before is evaluated, each distinct
        function once (U is V when every term has u is v)."""
        held = self._held.get(basis)
        if held is None or len(held[0]) < n:
            m = modes(basis, n).astype(float)
            values = {}
            for fn in (f for t in self.terms for f in (t.v, t.u)):
                if fn not in values:
                    values[fn] = np.asarray(fn(m), dtype=complex)
            v = np.stack([values[t.v] for t in self.terms], axis=1)
            u = v if all(t.u is t.v for t in self.terms) else \
                np.stack([values[t.u] for t in self.terms], axis=1)
            v.flags.writeable = u.flags.writeable = False
            held = self._held[basis] = (v, u)
        return held[0][:n], held[1][:n]

    @staticmethod
    def _triangle_bound(diag: np.ndarray, vt: np.ndarray, ut: np.ndarray) -> float:
        # exactly invariant under the duality swap
        return float(np.max(np.abs(diag))
                     + np.sum(np.linalg.norm(vt, axis=0) * np.linalg.norm(ut, axis=0)))

    def norm_estimate(self, kernel, n):
        if n <= _DENSE_ALWAYS:
            return super().norm_estimate(kernel, n)
        return self._triangle_bound(*self._weighted_factors(kernel, 0.0, n))

    def summary(self, kernel, lam, n):
        if n <= _DENSE_ALWAYS:
            return super().summary(kernel, lam, n)
        diag, vt, ut = self._weighted_factors(kernel, lam, n)
        eps = kernel.cfg.defect_eps
        if lam == 0:  # S = V U^H, of rank at most r
            c_low = 0.0 if n > len(self.terms) else float("nan")
            census = _low_rank_census(diag[0], vt, ut, eps)
        else:
            exact = _constant_shift_constants(diag, vt, ut, eps)
            if exact is None:
                sv = _svdvals(np.diag(diag).astype(complex) + vt @ ut.conj().T)
                exact = float(sv[-1]), int(np.sum(sv < eps * sv[0]))
            c_low, census = exact
        return SectionSummary(n, c_low, self._triangle_bound(diag, vt, ut), c_low, census)


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
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kernel(self, e: ScaleSpace, f: ScaleSpace, cfg: RunConfig) -> PairKernel:
        """The `PairKernel` of (E, F) at ``cfg``, built once and held, with (E, F,
        cfg) compared by equality. It keeps what does not depend on lambda, the
        certificate and the limit profile, and the summaries of the current
        lambda only, so the number of lambda queried does not grow it."""
        key = (e, f, cfg)
        kernel = self._held.get(key)
        if kernel is None:
            # the kernel reads a copy that holds nothing: operator -> kernel ->
            # operator would be a cycle, which keeps a dead operator's kernels
            # until the cyclic garbage collector runs
            twin = CoefficientOperator(self.basis, self.rep, self.symmetric, self.name)
            kernel = self._held[key] = PairKernel(twin, e, f, cfg)
        return kernel

    def position_bandwidth(self) -> Optional[int]:
        """Bandwidth in coefficient-slot order; None means full rows/columns."""
        return self.rep.slot_bandwidth(self.basis)

    def matrix(self, rows: int, cols: Optional[int] = None) -> np.ndarray:
        cols = rows if cols is None else cols
        return self.rep.entries(modes(self.basis, rows).astype(float),
                                modes(self.basis, cols).astype(float))

    def section(self, rows: int, cols: Optional[int] = None):
        """The block of ``matrix(rows, cols)``, sparse where the representation allows."""
        return self.rep.section(self.basis, rows, rows if cols is None else cols)

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
    """Certify (or refute, or give up on) membership of X in C(E, F): the
    one-pair view of `certify_pairs`."""
    return certify_pairs(x, [(e, f)], cfg)[0]


def certify_pairs(x: CoefficientOperator, pairs: list,
                  cfg: RunConfig = DEFAULT_CONFIG) -> list:
    """`certify` of every (E, F) in ``pairs``. Each certificate is held on the
    pair's kernel (`CoefficientOperator.kernel`), and the pairs whose kernels
    hold none yet are certified through one call to the representation."""
    check_same_basis(x, *(space for pair in pairs for space in pair))
    kernels = [x.kernel(e, f, cfg) for e, f in pairs]
    todo = list(dict.fromkeys(k for k in kernels if k.cert is None))  # a pair listed twice is one
    if todo:
        for kernel, cert in zip(todo, x.rep.certify_pairs(x, [(k.e, k.f) for k in todo], cfg)):
            kernel.cert = cert
    return [kernel.cert for kernel in kernels]


def _certify_by_truncation(x: CoefficientOperator, e: ScaleSpace, f: ScaleSpace,
                           cfg: RunConfig) -> ContinuityCertificate:
    history = []
    kernel = x.kernel(e, f, cfg)
    n = cfg.n0
    while n <= cfg.n_max:
        history.append((n, x.rep.norm_estimate(kernel, n)))
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
                        family: ScaleFamily, cfg: RunConfig = DEFAULT_CONFIG):
    """First admissible (E, F, G) with Y in C(E, F) and X in C(F, G)."""
    check_same_basis(x, y, *family.spaces)
    for f_mid in family:
        for e in family:
            if not certify(y, e, f_mid, cfg).certified:
                continue
            for g in family:
                if certify(x, f_mid, g, cfg).certified:
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
    basis = Basis.parse(json_typed(spec, dict, "operator spec").get("basis", "hermite"))
    rep_spec = json_typed(spec.get("rep", {}), dict, "operator rep")
    kind = rep_spec.get("type")
    symmetric = json_typed(spec.get("symmetric", False), bool, "symmetric")
    name = json_typed(spec.get("name", ""), str, "operator name")
    if kind == "diagonal":
        source = rep_spec["symbol"]
        fn = compile_expression(source, ("n",))
        rep = Diagonal(lambda m, f=fn: f(np.asarray(m, dtype=float)), source=source)
    elif kind == "banded":
        source = rep_spec["entry"]
        bandwidth = rep_spec["bandwidth"]
        if isinstance(bandwidth, bool) or not isinstance(bandwidth, int) or bandwidth < 0:
            raise SpecParseError(f"bandwidth {bandwidth!r} is not an integer >= 0")
        fn = compile_expression(source, ("n", "m"))
        rep = Banded(bandwidth, lambda mr, mc, f=fn: f(mr, mc), source=source)
    elif kind == "ranksum":
        terms = []
        for term in json_typed(rep_spec.get("terms", []), list, "rank-sum terms"):
            json_typed(term, dict, "rank-sum term")
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
