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
Gram eigenvalues, rank sums go through k x k reductions where they can, and
dense generators take full SVDs. Each strategy is a method of the
representation that picks it (`operators.Representation.summary`), built
from the numerical kernels of this module, and returns one complete
`SectionSummary`, census included. `PairKernel` holds what belongs to one
pair and does not depend on lambda: the pair's certificate once one is
taken (``cert``) and its limit operators, which bound the lower constant of
the whole infinite section from above (`LimitProfile`). `PairKernel.summary`
keeps the summaries of the current lambda per truncation, scalars only. An
operator holds one kernel per pair and
configuration (`CoefficientOperator.kernel`), so none of it is computed
twice. A kernel holds no weights or symbol of its own: the strategies read
prefix views of the arrays that its spaces (`ScaleSpace.weights`) and a
diagonal representation (`Diagonal.symbol`) hold, so all pairs that share a
rung, and the duality pass, evaluate each weight sequence once.

A banded section's Gram matrix (S^H S for the tall view, S S^H for the wide
one) is assembled straight into LAPACK lower band storage (`gram_band`),
diagonal by diagonal from the entries of S, with no sparse product. Rows
and columns are taken in mode order, where both views span contiguous
ranges of modes: sorting them by mode leaves the singular values as they
are, while the slot order of the Fourier basis interleaves the signed modes
and doubles the bandwidth, to 4 b instead of 2 b. Each band is reduced to
tridiagonal form once, and its smallest and largest eigenvalues and its
census all come from dstebz on that form. A band whose imaginary part is all
zero, such as the lambda = 0 section of a real operator that a certificate
takes, is reduced by dsbtrd, and any other by zhbtrd.
``scipy.linalg.eigvals_banded`` would call zhbevx (dsbevx for a real band),
which repeats the O(n^2 kd) reduction for every query. scipy.linalg.lapack
wraps neither reduction, so each is called through the function pointer
that scipy.linalg.cython_lapack exports, with the arguments, pre-scaling and
dstebz settings that zhbevx and dsbevx use. Every value and count is
therefore bit for bit what eigvals_banded returns for the band that the
route builds (its real part for a real band). The band itself agrees with
the dense Gram matrix to rounding: a few eps times |S|^H |S| per entry.

A rank-sum section S = diag(d) + V U^H is square. Its lower constant and
its census come from one dense SVD. When the shifted weight ratio d is
constant (E = F, and every lambda = 0 section), S acts as d I on the
complement of range([V, U]), so both come exactly from k x k matrices on an
orthonormal basis of that range, k <= 2r, in O(n r^2): the lower constant
from the Woodbury inverse a I - P Q^H (a = 1/d), whose P and Q span the same
range, and the census from S itself.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.linalg.lapack

from .config import RunConfig
from .spaces import Basis, ScaleSpace, slot_modes

_DENSE_ALWAYS = 96  # below this size dense SVD beats the structured routes


@dataclass(frozen=True)
class SectionSummary:
    n: int
    c_low: float       # smallest singular value of the tall view
    d_high: float      # largest singular value of the tall view
    surj_low: float    # smallest singular value of the wide view
    census: int        # wide-view singular values below defect_eps * sigma_max


def _svdvals(mat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mat, compute_uv=False)


def _low_rank_svdvals(a: complex, b: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The k singular values of a I + P Q^H on range(B), for B of k orthonormal
    columns whose range holds range(P) and range(Q): those of the k x k matrix
    a I + (B^H P)(B^H Q)^H. The operator and its adjoint map range(B) into
    itself and act as a I and conj(a) I on its complement, so its other
    singular values are |a|."""
    small = a * np.eye(b.shape[1]) + np.einsum("ik,il->kl", b.conj(), p) \
        @ np.einsum("ik,il->kl", b.conj(), q).conj().T
    return scipy.linalg.svdvals(small)


def _low_rank_census(d: complex, v: np.ndarray, u: np.ndarray, defect_eps: float,
                     b: Optional[np.ndarray] = None) -> int:
    """Singular values of d I + V U^H below ``defect_eps`` times the largest, in
    O(n r^2), from `_low_rank_svdvals` on ``b``: an orthonormal basis of
    range([V, U]), taken from [V, U] unless given."""
    if b is None:
        b = np.linalg.qr(np.concatenate([v, u], axis=1))[0]
    n, k = b.shape
    values = np.concatenate([_low_rank_svdvals(d, b, v, u), np.full(n - k, abs(d))])
    return int(np.sum(values < defect_eps * np.max(values)))


def _constant_shift_constants(diag: np.ndarray, vt: np.ndarray, ut: np.ndarray,
                              defect_eps: float) -> Optional[tuple]:
    """(smallest singular value, census) of S = diag(d) + V U^H for a constant
    d != 0 (E = F), exactly and in O(n r^2): the first as 1 / ||S^{-1}|| from
    the Woodbury inverse, the second from `_low_rank_census`, on one basis.
    None when d is not constant or the capacitance matrix is singular."""
    # Woodbury: S^{-1} = diag(a) - P Q^H with a = 1/d, P = a V C^{-1},
    # Q = conj(a) U and C = I + U^H diag(a) V; P and Q span range(V) and range(U)
    a = 1.0 / diag
    if not np.all(a == a[0]):
        return None
    core = np.eye(vt.shape[1], dtype=complex) + np.einsum("ik,i,il->kl", ut.conj(), a, vt)
    try:
        core_inv = np.linalg.inv(core)
    except np.linalg.LinAlgError:
        return None
    p = np.einsum("ik,kl->il", a[:, None] * vt, core_inv)
    q = np.conj(a)[:, None] * ut
    b = np.linalg.qr(np.concatenate([p, q], axis=1))[0]
    # a rank-r change of a I_k leaves at least k - r singular values at or
    # above |a|, so the largest of the k x k matrix is the norm of S^{-1}
    inv_norm = float(_low_rank_svdvals(a[0], b, -p, q)[0])
    return (1.0 / inv_norm if inv_norm > 0 else float("inf"),
            _low_rank_census(diag[0], vt, ut, defect_eps, b))


def _capsule_address(name: str) -> int:
    """Address of the LAPACK routine ``name`` exported by scipy.linalg.cython_lapack."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


# [zd]hbtrd(vect, uplo, n, kd, ab, ldab, d, e, q, ldq, work, info), every argument by address
_ZHBTRD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 12)(_capsule_address("zhbtrd"))
_DSBTRD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 12)(_capsule_address("dsbtrd"))
# zhbevx's and dsbevx's machine constants: band matrices with max|entry|
# outside [RMIN, RMAX] are scaled into it before the reduction
_SAFMIN = float(scipy.linalg.lapack.dlamch("s"))
_SMLNUM = _SAFMIN / float(scipy.linalg.lapack.dlamch("p"))
_RMIN = np.sqrt(_SMLNUM)
_RMAX = min(np.sqrt(1.0 / _SMLNUM), 1.0 / np.sqrt(np.sqrt(_SAFMIN)))


def gram_band(diagonals: np.ndarray) -> np.ndarray:
    """LAPACK lower band storage of A^H A for a banded A given by its
    ``diagonals``: diagonals[j, c] = A[c + j + s, c] for one fixed s, and 0
    where that row lies outside A.

    Entry (c + d, c) of A^H A is sum_j conj(A[c + j + s, c + d]) A[c + j + s, c],
    which pairs row j - d of column c + d with row j of column c: band row d
    sums p - d products per column, for p = 2 b + 1 diagonals. The diagonal
    is formed from squares, so it is real.
    """
    p, n = diagonals.shape
    ab = np.zeros((p, n), dtype=complex)
    ab[0].real = np.sum(diagonals.real ** 2 + diagonals.imag ** 2, axis=0)
    for d in range(1, min(p, n)):
        ab[d, :n - d] = np.sum(diagonals[:p - d, d:].conj() * diagonals[d:, :n - d], axis=0)
    return ab


def _band_tridiagonal(ab: np.ndarray) -> tuple:
    """(d, e, sigma): the tridiagonal form of sigma * H, where ``ab`` holds a
    Hermitian band matrix H in lower band storage (entries past the end of
    each column zero) and sigma is the pre-scaling factor of zhbevx. A band
    whose imaginary part is all zero is reduced as a real symmetric one, by
    dsbtrd with dsbevx's pre-scaling (the same factor), and any other by
    zhbtrd."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    real = not np.any(ab.imag)
    ab = np.array(ab.real if real else ab, dtype=float if real else complex, order="F")
    anrm = max(np.max(np.abs(ab[0].real)), np.max(np.abs(ab[1:]), initial=0.0))
    sigma = 1.0
    if 0.0 < anrm < _RMIN:
        sigma = _RMIN / anrm
    elif anrm > _RMAX:
        sigma = _RMAX / anrm
    if sigma != 1.0:
        ab.real *= sigma  # [zd]lascl multiplies real and imaginary parts alike
        if not real:
            ab.imag *= sigma
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    work, q = np.empty(n, dtype=ab.dtype), np.empty(1, dtype=ab.dtype)
    n_, kd_, ldab, ldq = (ctypes.byref(ctypes.c_int(v)) for v in (n, kd, kd + 1, 1))
    info = ctypes.c_int(0)
    name, reduce = ("dsbtrd", _DSBTRD) if real else ("zhbtrd", _ZHBTRD)
    reduce(b"N", b"L", n_, kd_, ab.ctypes.data, ldab, d.ctypes.data, e.ctypes.data,
           q.ctypes.data, ldq, work.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info={info.value}")
    return d, e[:n - 1], sigma


class _GramSpectrum:
    """Eigenvalues of a Hermitian band matrix from one reduction to tridiagonal form.

    Each query runs LAPACK dstebz on the stored tridiagonal form with the
    arguments zhbevx and dsbevx give it (ORDER='E', abstol = 2 * safe minimum,
    pre-scaled bounds, results scaled back by 1/sigma). Values and counts
    therefore equal ``scipy.linalg.eigvals_banded(ab, lower=True, select="i" or
    "v")`` bit for bit, with ``ab.real`` in place of a band whose imaginary part
    is all zero, while the O(n^2 kd) band reduction runs once for any number of
    queries.
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


def _symbol_min(offsets: np.ndarray, limits: np.ndarray, width: int, shift: complex) -> float:
    """min over theta of |sum_k L_k e^(i k theta) - shift|, approached from above,
    for nonzero ``limits`` whose largest |offset| is ``width`` > 0.

    A grid of 64 points per unit of bandwidth, then Newton steps on the
    derivative of |a|^2 from every grid point. Each value met is |a| at some
    theta, so the smallest of them never undershoots the minimum.
    """
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
    geometrically spaced from max(16, probe / 512), or probe - 1 if less, to
    max(probe - 1, 1), and never at or past ``probe``."""
    first = min(max(16, probe >> 9), max(probe - 1, 1))
    blocks = max(1, int(np.log2(probe / first)))
    slots = np.rint(np.geomspace(first, max(probe - 1, 1), 32 * blocks)).astype(int)
    return np.unique(np.minimum(slots, probe - 1))


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
    up to ``symbol_probe``, never on every slot. Zero limits are dropped once
    per direction, and a direction of bandwidth 0 keeps its constant symbol
    sum_k L_k, so ``bound`` costs a few scalar operations on diagonal and
    compact pairs. Not a dataclass: generating its methods would add about a
    millisecond to every import.
    """

    def __init__(self, directions: tuple, witness_n: int):
        # per direction: (nonzero offsets, their limits, bandwidth, constant
        # symbol or None, summed error bar, rho, rho error bar)
        self.directions = directions
        self.witness_n = witness_n  # slots probed: the last sampled slot plus one

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
            if tails[-1] >= len(m):
                continue  # no sample past the deepest checkpoint: no limit to read
            w_e = e.weight_at(m)
            seqs = [f.weight_at(m + k) * np.asarray(diagonals[k](m), dtype=complex) / w_e
                    for k in ks]
            limits = [_limit(v, tails, cfg.growth_threshold) for v in seqs]
            rho, rho_error = _limit(f.weight_at(m) / w_e, tails, cfg.growth_threshold)
            values = np.array([lim for lim, _ in limits], dtype=complex)
            live = values != 0
            width = int(np.max(np.abs(offsets[live]), initial=0))
            directions.append((offsets[live], values[live], width,
                               np.sum(values[live]) if width == 0 else None,
                               float(sum(err for _, err in limits)), rho, rho_error))
        return cls(tuple(directions), int(slots[-1]) + 1)

    def bound(self, lams) -> tuple:
        """(min_theta |a(theta)|, its error bar) in the direction where their
        sum is smallest: an upper bound on the lower norm of S(lambda).
        A direction whose sum is NaN is never chosen, and (inf, inf) means
        that no direction gave a bound. One lambda gives two floats, an array
        of them two arrays. Width-0 directions take the array at once, with
        lambda rho and |.| formed as Python's complex product and abs form them:
        numpy's vectorized ones may round differently in the last bit."""
        lams = np.asarray(lams, dtype=complex)
        re, im = lams.real, lams.imag
        best, best_err = np.full(lams.shape, np.inf), np.full(lams.shape, np.inf)
        for offsets, limits, width, constant, error, rho, rho_error in self.directions:
            rho = complex(rho)
            if width == 0:
                value = np.hypot(constant.real - (re * rho.real - im * rho.imag),
                                 constant.imag - (re * rho.imag + im * rho.real))
            else:
                value = np.reshape([_symbol_min(offsets, limits, width, lam * rho)
                                    for lam in np.ravel(lams).tolist()], lams.shape)
            err = error + np.hypot(re, im) * rho_error
            better = value + err < best + best_err
            best, best_err = np.where(better, value, best), np.where(better, err, best_err)
        return (best, best_err) if lams.ndim else (float(best), float(best_err))


class PairKernel:
    """The state of one pair (E, F) of an operator X that does not depend on
    lambda, and the singular-value summaries of W_F (X - lambda) W_E^{-1} at
    the current lambda."""

    def __init__(self, x, e: ScaleSpace, f: ScaleSpace, cfg: RunConfig):
        self.x = x  # a CoefficientOperator
        self.e = e
        self.f = f
        self.cfg = cfg
        self.cert = None  # held by `operators.certify_pairs` once it is taken
        self._lam: Optional[complex] = None
        self._memo: dict = {}  # n -> summary, at lambda = self._lam

    def summary(self, lam: complex, n: int, want_census: bool = True) -> SectionSummary:
        """Section summary at truncation n, census included.

        The summaries of the current lambda are kept per n and dropped when
        lambda changes. Every summary carries its census, so ``want_census``
        is accepted and ignored; only the benchmark's accuracy probe
        (`bench/probe.py`) still passes it.
        """
        if lam != self._lam:
            self._lam, self._memo = lam, {}
        found = self._memo.get(n)
        if found is None:
            found = self._memo[n] = self.x.rep.summary(self, lam, n)
        return found

    @functools.cached_property
    def limit_profile(self) -> Optional[LimitProfile]:
        """The pair's `LimitProfile`, probed once; None when the representation has none."""
        return self.x.rep.limit_profile(self.x, self.e, self.f, self.cfg)
