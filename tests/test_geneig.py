"""Point-evaluation eigenvectors, expansion reconstruction, restrictions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interspec.config import RunConfig
from interspec.errors import InterspecError, SpecParseError
from interspec.gallery import hermite_diagonal, hermite_position, torus_delta
from interspec.geneig import (delta_eigenpair, expansion_check,
                              hermite_function_values,
                              membership_norm_stabilized, parseval_gap,
                              restricted_operator_report, smallest_stable_index)
from interspec.spaces import Basis, CoefficientVector, ScaleSpace, norm

CFG = RunConfig()


def test_hermite_values_match_quadrature_orthonormality():
    # oracle: Gauss-Hermite quadrature of phi_i phi_j equals delta_ij
    x, w = np.polynomial.hermite.hermgauss(96)
    table = hermite_function_values(x, 8)
    # quadrature weights carry e^{-x^2}; the table carries e^{-x^2/2} per factor
    gram = (table * w * np.exp(x * x)) @ table.T
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-10


def test_parity_exact():
    plus = hermite_function_values(1.37, 48)
    minus = hermite_function_values(-1.37, 48)
    signs = (-1.0) ** np.arange(48)
    assert np.array_equal(minus, signs * plus)


def test_odd_entries_vanish_at_origin():
    values = hermite_function_values(0.0, 33)
    assert np.all(values[1::2] == 0.0)
    assert values[0] == np.pi ** -0.25


def test_scalar_values_are_bit_identical_to_the_array_rows():
    # one recurrence serves both: scalar rows for a point, numpy rows for an array
    points = np.concatenate([np.linspace(-37.0, 37.0, 301), [0.0, -0.0, 1e-300, 37.4]])
    table = hermite_function_values(points, 1024)
    for i, x in enumerate(points):
        assert np.array_equal(hermite_function_values(float(x), 1024), table[:, i])
    assert hermite_function_values(0.5, 1).shape == (1,)


def test_underflow_guard():
    with pytest.raises(InterspecError):
        hermite_function_values(40.0, 16)


def test_eigenpair_residual_contract():
    for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
        pair = delta_eigenpair(lam, 1, 1024, cfg=CFG)
        assert pair.residual <= 1e-6
        assert np.isfinite(pair.membership_norm) and pair.membership_norm > 0


def test_a_float_home_index_converts_as_rung_indices_do():
    # 1.1 is the rung H_-11/10, with the weights of the exact binary 1.1
    pair = delta_eigenpair(0.5, 1.1, 512, cfg=CFG)
    assert pair.home_space.label == "H_-11/10"
    exact = ScaleSpace(Basis.HERMITE, -Fraction(1.1), pair.home_space.family)
    assert np.array_equal(pair.home_space.weights(512), exact.weights(512))
    assert pair.membership_norm == norm(pair.vector, exact)
    assert delta_eigenpair(0.5, 1.5, 512, cfg=CFG) == \
        delta_eigenpair(0.5, Fraction(3, 2), 512, cfg=CFG)


def test_eigenpair_tridiagonal_oracle():
    # oracle: apply the tridiagonal coordinate matrix and compare to lam * chi
    lam = 1.0
    n = 1024
    pair = delta_eigenpair(lam, 1, n, cfg=CFG)
    mat = hermite_position().operator.matrix(n)
    image = mat @ pair.vector.coeffs
    gap = image - lam * pair.vector.coeffs
    assert np.max(np.abs(gap[:-1])) <= 1e-12  # exact recurrence inside
    assert abs(gap[-1]) > 0                   # single surviving edge term


def test_residual_decreases_with_truncation():
    for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
        residuals = [delta_eigenpair(lam, 1, n, cfg=CFG).residual
                     for n in (256, 512, 1024)]
        assert residuals[1] <= residuals[0]
        assert residuals[2] <= residuals[1]


def test_truncation_guard_for_large_points():
    with pytest.raises(InterspecError):
        delta_eigenpair(25.0, 1, 128, cfg=CFG)


@pytest.mark.parametrize("n", [0, -4])
def test_truncation_below_one_is_a_spec_error(n):
    with pytest.raises(SpecParseError, match="at least 1"):
        delta_eigenpair(0.5, 1, n, cfg=CFG)


def test_membership_norm_stabilizes_for_s_one():
    value, ok, n_used = membership_norm_stabilized(1.0, 1, tol=1e-8)
    assert ok and n_used <= 1 << 20
    # cross-check against the direct partial sum at the final truncation
    chi = hermite_function_values(1.0, n_used)
    weights = 1.0 / (1.0 + (np.arange(n_used) + 1.0) ** 2)
    assert value == pytest.approx(float(np.sqrt(np.sum(chi ** 2 * weights))), rel=1e-12)


def test_smallest_stable_index_is_one():
    s, value, _ = smallest_stable_index(0.5, candidates=(1, 2))
    assert s == 1 and np.isfinite(value)


def test_expansion_reconstructs_basis_vectors():
    e0 = CoefficientVector.unit(Basis.HERMITE, 0, 40)
    e3 = CoefficientVector.unit(Basis.HERMITE, 3, 40)
    assert expansion_check(e0).max_error <= 1e-8
    assert expansion_check(e3).max_error <= 1e-7
    zero = CoefficientVector(Basis.HERMITE, np.zeros(8))
    assert expansion_check(zero).max_error == 0.0


def test_expansion_contract_for_32_mode_vectors():
    rng = np.random.default_rng(9)
    coeffs = np.zeros(40, dtype=complex)
    coeffs[:32] = rng.normal(size=32) + 1j * rng.normal(size=32)
    phi = CoefficientVector(Basis.HERMITE, coeffs)
    check = expansion_check(phi)
    assert check.rapidly_decreasing
    assert check.max_error <= 1e-6
    assert parseval_gap(phi) <= 1e-6 * float(np.sum(np.abs(coeffs) ** 2))


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_expansion_linearity(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=2)
    pad = np.zeros(40, dtype=complex)
    phi = pad.copy(); phi[:24] = rng.normal(size=24)
    psi = pad.copy(); psi[:24] = rng.normal(size=24)
    combo = CoefficientVector(Basis.HERMITE, a * phi + b * psi)
    err_combo = expansion_check(combo).max_error
    err_phi = expansion_check(CoefficientVector(Basis.HERMITE, phi)).max_error
    err_psi = expansion_check(CoefficientVector(Basis.HERMITE, psi)).max_error
    assert err_combo <= abs(a) * err_phi + abs(b) * err_psi + 1e-12


def test_parseval_gap_small_for_smooth_vector():
    coeffs = np.zeros(40)
    coeffs[:32] = np.exp(-np.arange(32) / 2.0)
    phi = CoefficientVector(Basis.HERMITE, coeffs)
    assert parseval_gap(phi) <= 1e-6


def test_non_rapid_tail_flagged():
    coeffs = np.full(64, 0.1)
    phi = CoefficientVector(Basis.HERMITE, coeffs)
    assert not expansion_check(phi).rapidly_decreasing


def test_restriction_position_real_spectrum():
    entry = hermite_position()
    report = restricted_operator_report(entry.operator, n=256, cfg=CFG)
    assert report.max_imag_eigenvalue is not None
    assert report.max_imag_eigenvalue <= 1e-12
    assert report.symmetry_defect == 0.0
    assert "symmetric" in report.note


def test_restriction_point_mass_rank_one():
    entry = torus_delta()
    report = restricted_operator_report(entry.operator, n=128, cfg=CFG)
    assert report.rank == 1
    assert report.finite_column_count == 128
    assert report.stable_column_count == 0  # column norms keep growing


def test_restriction_diagonal_self_adjoint():
    entry = hermite_diagonal("n+1")
    report = restricted_operator_report(entry.operator, n=128, cfg=CFG)
    assert report.symmetry_defect == 0.0
    assert report.max_imag_eigenvalue == 0.0
    assert report.rank == 128
