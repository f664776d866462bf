"""Sparse sections against dense blocks, and structured lower constants
against a dense SVD of the identical section."""

import numpy as np
import pytest
import scipy.sparse

from interspec.config import RunConfig
from interspec.gallery import (hermite_position, scale_generator_entry, torus_delta,
                               torus_multiplication)
from interspec.operators import operator_from_spec
from interspec.sections import _DENSE_ALWAYS, PairKernel

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
