"""Finite sections of weighted operator pencils and their singular-value summaries.

For a pair (E, F) and a point lambda, the object under study is the section

    S = W_F (X - lambda I) W_E^{-1}

restricted to the leading coefficient slots. Two rectangular views are used:
the tall view (extra rows) controls injectivity from below, the wide view
(extra columns) exposes range deficiency. With full column support the tall
smallest singular value can only overestimate the true lower bound, which is
what makes a small value conclusive evidence against regularity.

Per-representation strategies keep scans affordable: diagonal sections have
closed-form singular values, banded sections go through Hermitian banded
Gram eigenvalues, rank sums use a Woodbury inverse inside a Lanczos loop,
and only dense generators fall back to full SVDs. `PairKernel` holds the
strategies; the operator's representation picks one for each truncation.
`PairKernel.summary` keeps the summaries of the current lambda per
truncation, and computes a census only when one is asked for.
`PairKernel.limit_profile` holds the pair's limit operators, which bound the
lower constant of the whole infinite section from above (`LimitProfile`).

Each banded Gram matrix is reduced to tridiagonal form once (LAPACK
zhbtrd), and its smallest and largest eigenvalues and its census all come
from dstebz on that form. ``scipy.linalg.eigvals_banded`` would call zhbevx,
which repeats the O(n^2 kd) reduction for every query. scipy.linalg.lapack
wraps no zhbtrd, so it is called through the function pointer that
scipy.linalg.cython_lapack exports, with the arguments, pre-scaling and
dstebz settings that zhbevx uses. Every value and count is therefore bit for
bit what eigvals_banded returns.

The Woodbury operator applies its n x r factors with ``np.einsum`` rather
than ``@``: ARPACK calls it hundreds of times per summary, and each ``@``
with an n-length operand is a BLAS level-2 call that threaded OpenBLAS
hands to its worker threads, which costs milliseconds where the arithmetic
takes microseconds. When the shifted weight ratio is constant (E = F) the
Woodbury inverse is a I - P Q^H, and its norm comes exactly from a 2r x 2r
matrix instead of ARPACK.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .config import RunConfig
from .spaces import Basis, ScaleSpace, modes, slot_modes

_DENSE_ALWAYS = 96  # below this size dense SVD beats the structured routes
_ARPACK_MIN_N = 8  # smallest operator side served by the iterative sigma_max


@dataclass(frozen=True)
class SectionSummary:
    n: int
    c_low: float       # smallest singular value of the tall view
    d_high: float      # largest singular value of the tall view
    surj_low: float    # smallest singular value of the wide view
    census: Optional[int]  # wide-view singular values below eps * sigma_max


def _svdvals(mat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mat, compute_uv=False)


def _deterministic_sigma_max(op: scipy.sparse.linalg.LinearOperator) -> float:
    k = min(op.shape)
    if k < _ARPACK_MIN_N:
        raise ValueError("too small for iterative sigma_max")
    v0 = np.full(k, 1.0 / np.sqrt(k))
    vals = scipy.sparse.linalg.svds(op, k=1, v0=v0, return_singular_vectors=False,
                                    maxiter=600, tol=1e-10)
    return float(vals[0])


def _diag_minus_low_rank(a: np.ndarray, p: np.ndarray,
                         q: np.ndarray) -> scipy.sparse.linalg.LinearOperator:
    """diag(a) - P Q^H, with its n x r products in np.einsum (no BLAS call)."""
    p_conj, q_conj = p.conj(), q.conj()

    def matvec(z):
        z = np.asarray(z).ravel()
        return a * z - np.einsum("ik,k->i", p, np.einsum("ik,i->k", q_conj, z))

    def rmatvec(z):
        z = np.asarray(z).ravel()
        return np.conj(a) * z - np.einsum("ik,k->i", q, np.einsum("ik,i->k", p_conj, z))

    n = len(a)
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec,
                                              dtype=complex)


def _scalar_minus_low_rank_norm(a: complex, p: np.ndarray, q: np.ndarray) -> float:
    """2-norm (largest singular value) of a I - P Q^H, exactly, in O(n r^2).

    With B an orthonormal basis of k = min(n, 2r) columns whose range holds
    range(P) and range(Q), the operator acts as the k x k matrix
    a I - (B^H P)(B^H Q)^H on range(B) and as a I on its complement. A rank-r
    change of a I_k leaves at least k - r singular values at or above |a|,
    so the largest one of the k x k matrix is the operator's.
    """
    b, _ = np.linalg.qr(np.concatenate([p, q], axis=1))
    small = a * np.eye(b.shape[1]) - np.einsum("ik,il->kl", b.conj(), p) \
        @ np.einsum("ik,il->kl", b.conj(), q).conj().T
    return float(scipy.linalg.svdvals(small)[0])


def _herm_band_lower(g: scipy.sparse.spmatrix) -> np.ndarray:
    """LAPACK lower band storage of a Hermitian sparse matrix."""
    g = g.tocoo()
    n = g.shape[0]
    keep = g.row >= g.col
    rows, cols, vals = g.row[keep], g.col[keep], g.data[keep]
    bw = int(np.max(rows - cols)) if len(rows) else 0
    ab = np.zeros((bw + 1, n), dtype=complex)
    ab[rows - cols, cols] = vals
    return ab


def _capsule_address(name: str) -> int:
    """Address of the LAPACK routine ``name`` exported by scipy.linalg.cython_lapack."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


# zhbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info), every argument by address
_ZHBTRD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 12)(_capsule_address("zhbtrd"))
# zhbevx's machine constants: band matrices with max|entry| outside [RMIN, RMAX]
# are scaled into it before the reduction
_SAFMIN = float(scipy.linalg.lapack.dlamch("s"))
_SMLNUM = _SAFMIN / float(scipy.linalg.lapack.dlamch("p"))
_RMIN = np.sqrt(_SMLNUM)
_RMAX = min(np.sqrt(1.0 / _SMLNUM), 1.0 / np.sqrt(np.sqrt(_SAFMIN)))


def _band_tridiagonal(ab: np.ndarray) -> tuple:
    """(d, e, sigma): zhbtrd's tridiagonal form of sigma * H, where ``ab`` holds a
    Hermitian band matrix H in lower band storage (entries past the end of
    each column zero) and sigma is zhbevx's pre-scaling factor."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    ab = np.array(ab, dtype=complex, order="F")
    anrm = max(np.max(np.abs(ab[0].real)), np.max(np.abs(ab[1:]), initial=0.0))
    sigma = 1.0
    if 0.0 < anrm < _RMIN:
        sigma = _RMIN / anrm
    elif anrm > _RMAX:
        sigma = _RMAX / anrm
    if sigma != 1.0:
        ab.real *= sigma  # zlascl multiplies real and imaginary parts alike
        ab.imag *= sigma
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    work, q = np.empty(n, dtype=complex), np.empty(1, dtype=complex)
    n_, kd_, ldab, ldq = (ctypes.byref(ctypes.c_int(v)) for v in (n, kd, kd + 1, 1))
    info = ctypes.c_int(0)
    _ZHBTRD(b"N", b"L", n_, kd_, ab.ctypes.data, ldab, d.ctypes.data, e.ctypes.data,
            q.ctypes.data, ldq, work.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"zhbtrd failed with info={info.value}")
    return d, e[:n - 1], sigma


class _GramSpectrum:
    """Eigenvalues of a Hermitian band matrix from one reduction to tridiagonal form.

    Each query runs LAPACK dstebz on the stored tridiagonal form with the
    arguments zhbevx gives it (ORDER='E', abstol = 2 * safe minimum, pre-scaled
    bounds, results scaled back by 1/sigma). Values and counts therefore equal
    ``scipy.linalg.eigvals_banded(ab, lower=True, select="i" or "v")`` bit for
    bit, while the O(n^2 kd) band reduction runs once for any number of queries.
    """

    def __init__(self, ab: np.ndarray):
        self.d, self.e, self.sigma = _band_tridiagonal(ab)

    def _stebz(self, select: int, vl: float, vu: float, index: int) -> np.ndarray:
        abstol = 2 * _SAFMIN
        if self.sigma != 1.0:
            abstol, vl, vu = abstol * self.sigma, vl * self.sigma, vu * self.sigma
        m, w, _, _, info = scipy.linalg.lapack.dstebz(self.d, self.e, select, vl, vu,
                                                      index, index, abstol, "E")
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
        return w[:m] if self.sigma == 1.0 else w[:m] * (1.0 / self.sigma)

    def singular_value(self, index: int) -> float:
        """Square root of the index-th smallest eigenvalue (negative counts from the top)."""
        lam = self._stebz(2, 0.0, 0.0, index % len(self.d) + 1)[0]
        return float(np.sqrt(max(lam, 0.0)))

    def count_up_to(self, bound: float) -> int:
        """Number of eigenvalues in (-1, bound]."""
        return len(self._stebz(1, -1.0, bound, 1))


def _gram_spectrum(a: scipy.sparse.spmatrix) -> _GramSpectrum:
    """Band spectrum of the smaller Gram matrix of sparse ``a``, whose
    eigenvalues are the squared singular values of ``a``."""
    rows, cols = a.shape
    gram = (a.getH() @ a).tocsr() if rows >= cols else (a @ a.getH()).tocsr()
    return _GramSpectrum(_herm_band_lower(gram))


def _limit(values: np.ndarray, tails: list, growth: float) -> tuple:
    """(limit, error bar) of a sampled sequence whose samples from ``tails[i]`` on
    lie past the i-th checkpoint.

    Tail sups that shrink by ``growth`` from each checkpoint to the next give
    the decay verdict, and the limit is exactly 0. Otherwise the limit is read
    at the deepest sample, and its error bar is the largest deviation from
    that value past the middle checkpoint.
    """
    sups = [float(np.max(np.abs(values[t:]))) for t in tails]
    if all(a >= growth * b for a, b in zip(sups, sups[1:])):
        return 0.0, 0.0
    return complex(values[-1]), float(np.max(np.abs(values[tails[1]:] - values[-1])))


def _symbol_min(offsets: np.ndarray, limits: np.ndarray, shift: complex) -> float:
    """min over theta of |sum_k L_k e^(i k theta) - shift|, approached from above.

    A grid of 64 points per unit of bandwidth, then Newton steps on the
    derivative of |a|^2 from every grid point. Each value met is |a| at some
    theta, so the smallest of them never undershoots the minimum.
    """
    live = limits != 0
    offsets, limits = offsets[live], limits[live]
    width = int(np.max(np.abs(offsets), initial=0))
    if width == 0:
        return float(abs(np.sum(limits) - shift))
    theta = np.linspace(0.0, 2.0 * np.pi, 64 * width, endpoint=False)
    d1_coef, d2_coef = 1j * offsets * limits, -(offsets ** 2) * limits
    best = float("inf")
    for _ in range(8):
        phase = np.exp(1j * np.outer(theta, offsets))
        a = np.einsum("tk,k->t", phase, limits) - shift
        d1 = np.einsum("tk,k->t", phase, d1_coef)
        d2 = np.einsum("tk,k->t", phase, d2_coef)
        best = min(best, float(np.min(np.abs(a))))
        grad = 2.0 * np.real(np.conj(a) * d1)
        curv = 2.0 * (np.abs(d1) ** 2 + np.real(np.conj(a) * d2))
        convex = curv > 0
        theta = np.where(convex, theta - grad / np.where(convex, curv, 1.0), theta)
    return best


def tail_slots(probe: int) -> np.ndarray:
    """The coefficient slots that tail probes sample: 32 per dyadic block,
    geometrically spaced from max(16, probe / 512) up to probe - 1."""
    first = max(16, probe >> 9)
    blocks = max(1, int(np.log2(probe / first)))
    return np.unique(np.rint(np.geomspace(first, probe - 1, 32 * blocks)).astype(int))


class LimitProfile:
    """The lambda-independent limit data of S(lambda) = W_F (X - lambda) W_E^{-1}.

    Per mode direction (m -> +inf, and m -> -inf on the signed Fourier modes)
    it holds the limits L_k of the diagonals k of W_F X W_E^{-1} (entries
    (m + k, m)) and the limit rho of w_F / w_E. The limit operator of S in that
    direction is the Laurent operator with symbol
    a(theta) = sum_k L_k e^(i k theta) - lambda rho, and every limit operator
    S_h satisfies nu(S) <= nu(S_h) = min_theta |a(theta)|, where nu is the
    lower norm (Rabinovich, Roch & Silbermann 2004; Lindner 2006).

    Entries are evaluated on a few dozen slots per dyadic block of the tail
    up to ``symbol_probe``, never on every slot. Not a dataclass: generating
    its methods would add about a millisecond to every import.
    """

    def __init__(self, directions: tuple, witness_n: int):
        self.directions = directions  # (offsets, limits, summed error bar, rho, rho error bar)
        self.witness_n = witness_n    # deepest probed slot

    @classmethod
    def probe(cls, basis: Basis, e: ScaleSpace, f: ScaleSpace, cfg: RunConfig,
              diagonals: dict) -> "LimitProfile":
        """Profile from ``diagonals``, which maps each offset k to the function
        of column modes m giving X[m + k, m]; an empty dict means that no
        diagonal survives in the limit."""
        probe = cfg.symbol_probe
        checkpoints = (max(16, probe >> 9), max(32, probe >> 6), max(64, probe >> 3))
        slots = tail_slots(probe)
        slot_m = slot_modes(basis, slots).astype(float)
        ks = sorted(diagonals)
        offsets = np.array(ks, dtype=float)
        directions = []
        for sign in (1.0, -1.0):
            pick = np.sign(slot_m) == sign
            if not pick.any():
                continue
            m = slot_m[pick]
            tails = [int(np.searchsorted(slots[pick], c)) for c in checkpoints]
            w_e = e.weight_at(m)
            seqs = [f.weight_at(m + k) * np.asarray(diagonals[k](m), dtype=complex) / w_e
                    for k in ks]
            limits = [_limit(v, tails, cfg.growth_threshold) for v in seqs]
            rho, rho_error = _limit(f.weight_at(m) / w_e, tails, cfg.growth_threshold)
            directions.append((offsets, np.array([lim for lim, _ in limits], dtype=complex),
                               float(sum(err for _, err in limits)), rho, rho_error))
        return cls(tuple(directions), int(slots[-1]))

    def bound(self, lam: complex) -> tuple:
        """(min_theta |a(theta)|, its error bar) in the direction where their
        sum is smallest: an upper bound on the lower norm of S(lambda).
        A direction whose sum is NaN is never chosen, and (inf, inf) means
        that no direction gave a bound."""
        best = (float("inf"), float("inf"))
        for offsets, limits, error, rho, rho_error in self.directions:
            value = _symbol_min(offsets, limits, lam * rho)
            err = error + abs(lam) * rho_error
            if value + err < best[0] + best[1]:
                best = (value, err)
        return best


class PairKernel:
    """Singular-value summaries of W_F (X - lambda) W_E^{-1} for one pair."""

    def __init__(self, x, e: ScaleSpace, f: ScaleSpace, cfg: RunConfig):
        self.x = x  # a CoefficientOperator
        self.e = e
        self.f = f
        self.cfg = cfg
        self._cache_len = 0  # symbol and weight caches: see _ensure_arrays
        self._lam: Optional[complex] = None
        self._memo: dict = {}  # n -> (summary, census call), at lambda = self._lam

    # -- shared data ----------------------------------------------------

    def _ensure_arrays(self, n: int) -> None:
        if self._cache_len >= n:
            return
        self._symbol = self.x.rep.symbol(self.x.basis, n)
        self._wf = self.f.weights(n)
        self._we = self.e.weights(n)
        self._ratio = self._wf / self._we
        self._cache_len = n

    def max_n(self) -> int:
        return self.x.rep.max_n(self.cfg)

    def summary(self, lam: complex, n: int, want_census: bool = True) -> SectionSummary:
        """Section summary at truncation n, with its census when ``want_census``.

        The summaries of the current lambda are kept per n and dropped when
        lambda changes. A census asked for an n summarized before runs only
        the census step of its strategy.
        """
        if lam != self._lam:
            self._lam, self._memo = lam, {}
        if n not in self._memo:
            self._memo[n] = self.x.rep.summary(self, lam, n)
        found, census = self._memo[n]
        if want_census and found.census is None:
            found = replace(found, census=census(self.cfg))
            self._memo[n] = (found, census)
        return found

    def norm_estimate(self, n: int) -> float:
        """Largest singular value of the unshifted weighted tall section."""
        return self.x.rep.norm_estimate(self, n)

    @functools.cached_property
    def limit_profile(self) -> Optional[LimitProfile]:
        """The pair's `LimitProfile`, probed once; None when the representation has none."""
        return self.x.rep.limit_profile(self.x, self.e, self.f, self.cfg)

    # -- strategies -----------------------------------------------------
    # Each returns the summary without its census, and the call that computes
    # the census from a RunConfig. The call must not hold the kernel: a kernel
    # -> memo -> call -> kernel cycle would keep dead kernels' arrays alive
    # until the cyclic garbage collector runs.

    def diagonal_summary(self, lam: complex, n: int) -> tuple:
        self._ensure_arrays(n)
        vals = np.abs(self._symbol[:n] - lam) * self._ratio[:n]
        d_high = float(np.max(vals))
        c_low = float(np.min(vals))
        return (SectionSummary(n, c_low, d_high, c_low, None),
                lambda cfg: int(np.sum(vals < cfg.defect_eps * d_high)))

    def _sparse_shifted(self, lam: complex, rows: int, cols: int) -> scipy.sparse.csr_matrix:
        sec = self.x.section(rows, cols)
        self._ensure_arrays(max(rows, cols))
        i = np.repeat(np.arange(rows), np.diff(sec.indptr))
        j = sec.indices
        vals = np.where(i == j, sec.data - lam, sec.data) * self._wf[i] / self._we[j]
        return scipy.sparse.csr_matrix((vals, j, sec.indptr), shape=(rows, cols))

    def banded_summary(self, lam: complex, n: int) -> tuple:
        pb = self.x.position_bandwidth() or 0
        margin = max(pb, 1)
        tall = _gram_spectrum(self._sparse_shifted(lam, n + margin, n))
        wide = _gram_spectrum(self._sparse_shifted(lam, n, n + margin))

        def census(cfg: RunConfig) -> int:
            return wide.count_up_to((cfg.defect_eps * wide.singular_value(-1)) ** 2)

        return (SectionSummary(n, tall.singular_value(0), tall.singular_value(-1),
                               wide.singular_value(0), None), census)

    def banded_norm(self, n: int) -> float:
        pb = self.x.position_bandwidth() or 0
        tall = self._sparse_shifted(0.0, n + max(pb, 1), n)
        return _gram_spectrum(tall).singular_value(-1)

    def ranksum_summary(self, lam: complex, n: int) -> tuple:
        # square view: rank-sum columns have unbounded support, so margins
        # cannot make the tall view exact anyway
        rep = self.x.rep
        self._ensure_arrays(n)
        m = modes(self.x.basis, n).astype(float)
        wf, we = self._wf[:n], self._we[:n]
        vt = np.stack([np.asarray(t.v(m), dtype=complex) * wf for t in rep.terms], axis=1)
        ut = np.stack([np.asarray(t.u(m), dtype=complex) / we for t in rep.terms], axis=1)
        diag = -lam * (wf / we)
        # triangle-inequality bound, exactly invariant under the duality swap
        d_high = float(np.max(np.abs(diag))
                       + np.sum(np.linalg.norm(vt, axis=0) * np.linalg.norm(ut, axis=0)))
        if lam == 0:
            c_low = 0.0 if n > len(rep.terms) else float("nan")
        else:
            c_low = self._ranksum_sigma_min(diag, vt, ut, n)

        def census(cfg: RunConfig) -> Optional[int]:
            if n > cfg.dense_cap:
                return None
            sv = _svdvals(np.diag(diag).astype(complex) + vt @ ut.conj().T)
            return int(np.sum(sv < cfg.defect_eps * sv[0]))

        return SectionSummary(n, c_low, d_high, c_low, None), census

    def _ranksum_sigma_min(self, diag: np.ndarray, vt: np.ndarray, ut: np.ndarray,
                           n: int) -> float:
        def dense_sigma_min() -> float:
            dense = np.diag(diag).astype(complex) + vt @ ut.conj().T
            return float(_svdvals(dense)[-1])

        if n < _ARPACK_MIN_N:
            return dense_sigma_min()
        # Woodbury: S^{-1} = diag(a) - P Q^H with a = 1/diag, P = a V C^{-1},
        # Q = conj(a) U and C = I + U^H diag(a) V
        r = vt.shape[1]
        a = 1.0 / diag
        core = np.eye(r, dtype=complex) + np.einsum("ik,i,il->kl", ut.conj(), a, vt)
        try:
            core_inv = np.linalg.inv(core)
        except np.linalg.LinAlgError:
            return dense_sigma_min()
        p = np.einsum("ik,kl->il", a[:, None] * vt, core_inv)
        q = np.conj(a)[:, None] * ut
        if np.all(a == a[0]):
            # constant shift (E = F): the Krylov space is invariant with
            # dimension <= 2r + 1, where ARPACK can apply no shifts
            inv_norm = _scalar_minus_low_rank_norm(a[0], p, q)
        else:
            try:
                inv_norm = _deterministic_sigma_max(_diag_minus_low_rank(a, p, q))
            except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
                return dense_sigma_min()
        return 1.0 / inv_norm if inv_norm > 0 else float("inf")

    def dense_summary(self, lam: complex, n: int) -> tuple:
        pb = self.x.position_bandwidth()
        margin = pb if pb is not None else self.cfg.section_margin
        rows = n + margin
        self._ensure_arrays(rows + margin)
        tall = self.x.matrix(rows, n).astype(complex)
        tall[np.arange(n), np.arange(n)] -= lam
        tall *= self._wf[:rows, None]
        tall /= self._we[None, :n]
        sv_tall = _svdvals(tall)
        wide = self.x.matrix(n, rows).astype(complex)
        wide[np.arange(n), np.arange(n)] -= lam
        wide *= self._wf[:n, None]
        wide /= self._we[None, :rows]
        sv_wide = _svdvals(wide)
        return (SectionSummary(n, float(sv_tall[-1]), float(sv_tall[0]), float(sv_wide[-1]), None),
                lambda cfg: int(np.sum(sv_wide < cfg.defect_eps * sv_wide[0])))
