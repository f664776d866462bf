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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .config import RunConfig
from .spaces import ScaleSpace, modes

_DENSE_ALWAYS = 96  # below this size dense SVD beats the structured routes


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
    if k < 8:
        raise ValueError("too small for iterative sigma_max")
    v0 = np.full(k, 1.0 / np.sqrt(k))
    vals = scipy.sparse.linalg.svds(op, k=1, v0=v0, return_singular_vectors=False,
                                    maxiter=600, tol=1e-10)
    return float(vals[0])


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


def _gram_extremes(a: scipy.sparse.spmatrix, want_min: bool, want_max: bool,
                   census_threshold: Optional[float] = None):
    """(sigma_min, sigma_max, census) of sparse ``a`` via Gram band eigenvalues."""
    rows, cols = a.shape
    gram = (a.getH() @ a).tocsr() if rows >= cols else (a @ a.getH()).tocsr()
    ab = _herm_band_lower(gram)
    m = gram.shape[0]
    smin = smax = None
    if want_min:
        lo = scipy.linalg.eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))
        smin = float(np.sqrt(max(lo[0], 0.0)))
    if want_max:
        hi = scipy.linalg.eigvals_banded(ab, lower=True, select="i",
                                         select_range=(m - 1, m - 1))
        smax = float(np.sqrt(max(hi[0], 0.0)))
    census = None
    if census_threshold is not None:
        vals = scipy.linalg.eigvals_banded(ab, lower=True, select="v",
                                           select_range=(-1.0, census_threshold ** 2))
        census = int(len(vals))
    return smin, smax, census


class PairKernel:
    """Singular-value summaries of W_F (X - lambda) W_E^{-1} for one pair."""

    def __init__(self, x, e: ScaleSpace, f: ScaleSpace, cfg: RunConfig):
        self.x = x  # a CoefficientOperator
        self.e = e
        self.f = f
        self.cfg = cfg
        self._cache_len = 0  # symbol and weight caches: see _ensure_arrays

    # -- shared data ----------------------------------------------------

    def _ensure_arrays(self, n: int) -> None:
        if self._cache_len >= n:
            return
        self._symbol = self.x.rep.symbol(self.x.basis, n)
        self._ratio = self.f.weights(n) / self.e.weights(n)
        self._wf = self.f.weights(n)
        self._we = self.e.weights(n)
        self._cache_len = n

    def max_n(self) -> int:
        return self.x.rep.max_n(self.cfg)

    def summary(self, lam: complex, n: int, want_census: bool = True) -> SectionSummary:
        return self.x.rep.summary(self, lam, n, want_census)

    def norm_estimate(self, n: int) -> float:
        """Largest singular value of the unshifted weighted tall section."""
        return self.x.rep.norm_estimate(self, n)

    # -- strategies -----------------------------------------------------

    def diagonal_summary(self, lam: complex, n: int, want_census: bool) -> SectionSummary:
        self._ensure_arrays(n)
        vals = np.abs(self._symbol[:n] - lam) * self._ratio[:n]
        d_high = float(np.max(vals))
        c_low = float(np.min(vals))
        census = int(np.sum(vals < self.cfg.defect_eps * d_high)) if want_census else None
        return SectionSummary(n, c_low, d_high, c_low, census)

    def _sparse_shifted(self, lam: complex, rows: int, cols: int) -> scipy.sparse.csr_matrix:
        rep = self.x.rep
        pb = self.x.position_bandwidth() or 0
        m_all = modes(self.x.basis, max(rows, cols))
        self._ensure_arrays(max(rows, cols))
        wf = self._wf
        we = self._we
        data, ii, jj = [], [], []
        for off in range(-pb, pb + 1):
            j0 = max(0, -off)
            j1 = min(cols, rows - off)
            if j1 <= j0:
                continue
            j = np.arange(j0, j1)
            i = j + off
            vals = np.asarray(rep.entry(m_all[i].astype(float), m_all[j].astype(float)),
                              dtype=complex)
            mask = np.abs(m_all[i] - m_all[j]) <= rep.bandwidth
            vals = np.where(mask, vals, 0.0)
            if off == 0:
                vals = vals - lam
            vals = vals * wf[i] / we[j]
            data.append(vals)
            ii.append(i)
            jj.append(j)
        mat = scipy.sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(ii), np.concatenate(jj))),
            shape=(rows, cols), dtype=complex)
        return mat.tocsr()

    def banded_summary(self, lam: complex, n: int, want_census: bool) -> SectionSummary:
        pb = self.x.position_bandwidth() or 0
        margin = max(pb, 1)
        tall = self._sparse_shifted(lam, n + margin, n)
        wide = self._sparse_shifted(lam, n, n + margin)
        c_low, d_high, _ = _gram_extremes(tall, True, True)
        surj_low, surj_high, _ = _gram_extremes(wide, True, want_census)
        census = None
        if want_census:
            _, _, census = _gram_extremes(wide, False, False,
                                          census_threshold=self.cfg.defect_eps * surj_high)
        return SectionSummary(n, c_low, d_high, surj_low, census)

    def banded_norm(self, n: int) -> float:
        pb = self.x.position_bandwidth() or 0
        tall = self._sparse_shifted(0.0, n + max(pb, 1), n)
        _, smax, _ = _gram_extremes(tall, False, True)
        return smax

    def ranksum_summary(self, lam: complex, n: int, want_census: bool) -> SectionSummary:
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
        census = None
        if want_census and n <= self.cfg.dense_cap:
            dense = np.diag(diag).astype(complex) + vt @ ut.conj().T
            sv = _svdvals(dense)
            census = int(np.sum(sv < self.cfg.defect_eps * sv[0]))
        return SectionSummary(n, c_low, d_high, c_low, census)

    def _ranksum_sigma_min(self, diag: np.ndarray, vt: np.ndarray, ut: np.ndarray,
                           n: int) -> float:
        r = vt.shape[1]
        inv_diag = 1.0 / diag
        core = np.eye(r, dtype=complex) + ut.conj().T @ (inv_diag[:, None] * vt)
        try:
            core_inv = np.linalg.inv(core)
        except np.linalg.LinAlgError:
            dense = np.diag(diag).astype(complex) + vt @ ut.conj().T
            return float(_svdvals(dense)[-1])

        def inv_matvec(z):
            y = inv_diag * np.asarray(z).ravel()
            return y - inv_diag * (vt @ (core_inv @ (ut.conj().T @ y)))

        def inv_rmatvec(z):
            z = np.asarray(z).ravel()
            y = z - np.conj(inv_diag) * (ut @ (core_inv.conj().T @ (vt.conj().T @ z)))
            return np.conj(inv_diag) * y

        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=inv_matvec,
                                                rmatvec=inv_rmatvec, dtype=complex)
        try:
            inv_norm = _deterministic_sigma_max(op)
        except Exception:
            dense = np.diag(diag).astype(complex) + vt @ ut.conj().T
            return float(_svdvals(dense)[-1])
        return 1.0 / inv_norm if inv_norm > 0 else float("inf")

    def dense_summary(self, lam: complex, n: int, want_census: bool) -> SectionSummary:
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
        census = int(np.sum(sv_wide < self.cfg.defect_eps * sv_wide[0])) if want_census else None
        return SectionSummary(n, float(sv_tall[-1]), float(sv_tall[0]),
                              float(sv_wide[-1]), census)
