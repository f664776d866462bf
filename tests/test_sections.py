"""Sparse sections against dense blocks, and structured lower constants
against a dense SVD of the identical section."""

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence

from interspec import sections
from interspec.config import RunConfig
from interspec.gallery import (hermite_position, scale_generator_entry, torus_comb,
                               torus_delta, torus_multiplication)
from interspec.operators import operator_from_spec
from interspec.sections import _DENSE_ALWAYS, PairKernel
from interspec.spaces import modes

CFG = RunConfig()
SHAPES = ((40, 37), (37, 40), (64, 64), (1, 5))


@pytest.mark.parametrize("make", [lambda: scale_generator_entry().operator,
                                  lambda: hermite_position().operator,
                                  lambda: torus_multiplication("cos(t)").operator],
                         ids=["diagonal", "hermite-banded", "fourier-banded"])
def test_sparse_section_equals_dense_block(make):
    x = make()
    for rows, cols in SHAPES:
        sec = x.section(rows, cols)
        assert scipy.sparse.issparse(sec)
        assert sec.shape == (rows, cols)
        assert np.array_equal(sec.toarray(), x.matrix(rows, cols))


def test_default_section_is_the_dense_block():
    x = operator_from_spec({"basis": "hermite",
                            "rep": {"type": "dense", "entry": "1/(1+(n-m)^2)"}})
    sec = x.section(12, 9)
    assert isinstance(sec, np.ndarray)
    assert np.array_equal(sec, x.matrix(12, 9))
    assert np.array_equal(x.section(7), x.matrix(7))


def test_ranksum_lower_constant_matches_dense_svd():
    # W_4 -> W_2 has a non-constant weight ratio, where a wrong adjoint
    # matvec in the Lanczos loop shows up
    entry = torus_delta()
    x, e, f = entry.operator, entry.family.space_at(4), entry.family.space_at(2)
    lam, n = -2.0, 128
    assert n > _DENSE_ALWAYS  # served by the rank-sum route
    got = PairKernel(x, e, f, CFG).summary(lam, n, want_census=False).c_low
    mat = x.matrix(n).astype(complex) - lam * np.eye(n)
    mat = mat * f.weights(n)[:, None] / e.weights(n)[None, :]
    ref = np.linalg.svd(mat, compute_uv=False)[-1]
    assert abs(got - ref) <= 1e-6 * ref


def _dense_square_sigma_min(x, e, f, lam, n):
    mat = x.matrix(n).astype(complex) - lam * np.eye(n)
    mat = mat * f.weights(n)[:, None] / e.weights(n)[None, :]
    return np.linalg.svd(mat, compute_uv=False)[-1]


# two terms with decaying complex vectors: the section norm stays O(1), so a dense
# SVD is a reference to ~1e-15 relative (the all-ones section of torus-delta
# has norm n, and a dense SVD of it is only good to ~2e-11 at n = 1024)
DECAYING_PAIR = operator_from_spec({"basis": "fourier", "rep": {"type": "ranksum", "terms": [
    {"u": {"kind": "expr", "source": "1/(1+n^2)"}, "v": {"kind": "expr", "source": "1/(1+n^2)"}},
    {"u": {"kind": "expr", "source": "n*exp(-2*i*n)/(1+n^4)"},
     "v": {"kind": "expr", "source": "exp(i*n)/(2+n^2)"}},
]}})


@pytest.mark.parametrize("case", [("torus-comb-4", 1, -1), ("torus-comb-4", 1, 0),
                                  ("decaying-pair", 0, 1), ("decaying-pair", 1, 0)],
                         ids=lambda c: f"{c[0]}-W{c[1]}-W{c[2]}")
@pytest.mark.parametrize("lam", [0.3 + 0.5j, -1.2 + 0.5j])
@pytest.mark.parametrize("n", [128, 256])
def test_multi_term_ranksum_lower_constant_matches_dense_svd(case, lam, n):
    # several terms, so a transposed index in an n x r product changes the
    # value; torus-comb-4 has a near-symmetric capacitance matrix C, where a
    # transposed C^{-1} only shows on the decaying pair
    name, i, j = case
    x = torus_comb(4).operator if name == "torus-comb-4" else DECAYING_PAIR
    fam = torus_delta().family
    e, f = fam.space_at(i), fam.space_at(j)
    got = PairKernel(x, e, f, CFG).summary(lam, n, want_census=False).c_low
    ref = _dense_square_sigma_min(x, e, f, lam, n)
    assert abs(got - ref) <= 1e-9 * ref


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("lam", [0.3 + 0.5j, 1.5 + 0.05j])
@pytest.mark.parametrize("n", [256, 1024])
def test_constant_shift_route_is_exact_without_dense_svd(monkeypatch, index, lam, n):
    # E = F: the shifted diagonal is constant, ARPACK's Krylov space is
    # invariant, and the k x k reduction gives the answer in O(n r^2)
    def forbidden(*args, **kwargs):
        raise AssertionError("the constant-shift route must not reach this")

    space = torus_delta().family.space_at(index)
    kernel = PairKernel(DECAYING_PAIR, space, space, CFG)
    monkeypatch.setattr(sections, "_svdvals", forbidden)
    monkeypatch.setattr(sections, "_deterministic_sigma_max", forbidden)
    got = kernel.summary(lam, n, want_census=False).c_low
    monkeypatch.undo()
    ref = _dense_square_sigma_min(DECAYING_PAIR, space, space, lam, n)
    assert abs(got - ref) <= 1e-12 * ref
    if lam == 1.5 + 0.05j:
        assert got < 0.2 * abs(lam)  # set by the rank-sum terms, far below |d|


def test_constant_shift_route_matches_high_precision_on_wide_weights():
    # W_2 -> W_2 weights spread over five decades, and a dense SVD is only
    # good to ~2e-8 here. Reference: S S^H = |d|^2 I + W M W^H with
    # W = [U V] and M = [[0, d I], [conj(d) I, U^H U]], so sigma_min^2 is
    # |d|^2 + min(0, eig(M W^H W)), evaluated with 40 digits
    mp = pytest.importorskip("mpmath")
    x = torus_comb(4).operator
    space = torus_delta().family.space_at(2)
    lam, n = -1.2 + 0.5j, 1024
    got = PairKernel(x, space, space, CFG).summary(lam, n, want_census=False).c_low
    m, w = modes(x.basis, n).astype(float), space.weights(n)
    vt = np.stack([np.asarray(t.v(m), dtype=complex) * w for t in x.rep.terms], axis=1)
    ut = np.stack([np.asarray(t.u(m), dtype=complex) / w for t in x.rep.terms], axis=1)
    r = vt.shape[1]
    with mp.workdps(40):
        wmat = mp.matrix(np.concatenate([ut, vt], axis=1).tolist())
        gram = wmat.H * wmat
        d = mp.mpc(-lam)
        mmat = mp.zeros(2 * r, 2 * r)
        for i in range(r):
            mmat[i, r + i] = d
            mmat[r + i, i] = mp.conj(d)
            for j in range(r):
                mmat[r + i, r + j] = gram[i, j]
        mu = min([mp.re(z) for z in mp.eig(mmat * gram, left=False, right=False)] + [0])
        ref = float(mp.sqrt(abs(d) ** 2 + mu))
    assert abs(got - ref) <= 1e-12 * ref


def _torus_delta_kernel():
    entry = torus_delta()
    e, f = entry.family.space_at(1), entry.family.space_at(0)
    return entry.operator, e, f, PairKernel(entry.operator, e, f, CFG)


def test_ranksum_fault_in_lanczos_loop_propagates(monkeypatch):
    def broken(op):
        raise RuntimeError("matvec bug")

    _, _, _, kernel = _torus_delta_kernel()
    monkeypatch.setattr(sections, "_deterministic_sigma_max", broken)
    with pytest.raises(RuntimeError, match="matvec bug"):
        kernel.summary(0.3 + 0.5j, 128, want_census=False)


def test_ranksum_arpack_failure_falls_back_to_dense_svd(monkeypatch):
    def no_convergence(op):
        raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    x, e, f, kernel = _torus_delta_kernel()
    lam, n = 0.3 + 0.5j, 128
    monkeypatch.setattr(sections, "_deterministic_sigma_max", no_convergence)
    got = kernel.summary(lam, n, want_census=False).c_low
    assert abs(got - _dense_square_sigma_min(x, e, f, lam, n)) <= 1e-12 * got
    # below ARPACK's size floor the route goes dense without calling it
    assert abs(kernel.ranksum_summary(lam, 6, want_census=False).c_low
               - _dense_square_sigma_min(x, e, f, lam, 6)) <= 1e-12
