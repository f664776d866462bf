"""Momentum extension circle, Krein difference residuals, point interaction."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import legendre

from interspec.config import RunConfig
from interspec.errors import EigenvalueCollisionError, NoBoundStateError
from interspec.extensions import (BoundStateEstimate, DeltaInteraction,
                                  MomentumExtension, UnitIntervalQuadrature,
                                  apply_momentum_resolvent, bound_state_estimate,
                                  krein_difference_check, momentum_resolvent_report,
                                  momentum_solver_handle, momentum_union_resolvent)
from interspec.resolvent import equivalent

CFG = RunConfig()
QUAD = UnitIntervalQuadrature(128)


def test_quadrature_integrates_polynomials_exactly():
    assert QUAD.integrate(QUAD.nodes ** 5) == pytest.approx(1.0 / 6.0, rel=1e-14)
    cumulative = QUAD.cumulative(3.0 * QUAD.nodes ** 2)
    assert np.allclose(cumulative, QUAD.nodes ** 3, atol=1e-13)
    derivative = QUAD.derivative(QUAD.nodes ** 4)
    assert np.allclose(derivative, 4.0 * QUAD.nodes ** 3, atol=1e-10)


@pytest.mark.parametrize("n", [8, 128, 256])
def test_quadrature_coefficients_match_the_vandermonde_solve(n):
    # discrete orthogonality against the LU solve of the Legendre Vandermonde system
    quad = UnitIntervalQuadrature(n)
    t = 2.0 * quad.nodes - 1.0
    lu = scipy.linalg.lu_factor(legendre.legvander(t, n - 1))
    rng = np.random.default_rng(n)
    for _ in range(5):
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = scipy.linalg.lu_solve(lu, samples)
        got = quad.coefficients(samples)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [8, 128, 256])
def test_quadrature_recovers_a_legendre_series_of_degree_below_n(n):
    quad = UnitIntervalQuadrature(n)
    rng = np.random.default_rng(n + 1)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = quad.coefficients(legendre.legval(2.0 * quad.nodes - 1.0, coeffs))
    assert np.max(np.abs(got - coeffs)) <= 1e-11 * np.max(np.abs(coeffs))


def test_resolvent_closed_form_for_exponential_input():
    # oracle: for g = e^(i lam x) the damped integrand is 1, so the partial
    # integral is x and u = e^(i lam x) (u0 + i x) with u0 from the boundary
    ext = MomentumExtension(1.0 + 0j, QUAD)
    lam = math.pi
    g = np.exp(1j * lam * QUAD.nodes)
    u0 = 1j * cmath.exp(1j * lam) / (1.0 - cmath.exp(1j * lam))
    oracle = np.exp(1j * lam * QUAD.nodes) * (u0 + 1j * QUAD.nodes)
    report = momentum_resolvent_report(ext, lam, g, CFG)
    assert np.max(np.abs(report.samples - oracle)) <= 1e-12
    assert report.ode_residual <= 1e-10


def test_boundary_condition_enforced_for_random_smooth_input():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=6)
    for alpha in (1.0, 1j, cmath.exp(0.7j)):
        ext = MomentumExtension(alpha, QUAD)
        g = np.polyval(coeffs, QUAD.nodes).astype(complex)
        report = momentum_resolvent_report(ext, 0.8 + 0.3j, g, CFG)
        assert report.boundary_residual <= 1e-12 * max(1.0, np.max(np.abs(report.samples)))


def test_eigenvalue_lattice_raises():
    ext = MomentumExtension(1.0 + 0j, QUAD)
    with pytest.raises(EigenvalueCollisionError):
        apply_momentum_resolvent(ext, 2.0 * math.pi, np.ones(QUAD.n), CFG)


def test_eigenvalues_are_arg_plus_lattice():
    ext = MomentumExtension(1j, QUAD)
    lattice = ext.eigenvalues(range(-2, 3))
    assert np.allclose(lattice, math.pi / 2 + 2 * math.pi * np.arange(-2, 3))
    assert ext.is_eigenvalue(math.pi / 2 + 4 * math.pi)
    assert not ext.is_eigenvalue(math.pi / 2 + 3 * math.pi)
    assert not ext.is_eigenvalue(0.5 + 0.5j)


def test_krein_difference_zero_for_equal_phases():
    check = krein_difference_check(1.0, 1.0, 1j, np.ones(QUAD.n), QUAD, CFG)
    assert check.residual <= 1e-14


@pytest.mark.parametrize("alpha,beta,lam,g_fn", [
    (1.0, -1.0, 1j, lambda x: np.ones_like(x)),
    (cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3), 0.5 + 0.5j, lambda x: x),
])
def test_krein_difference_matches_formula(alpha, beta, lam, g_fn):
    quad = UnitIntervalQuadrature(256)
    g = g_fn(quad.nodes).astype(complex)
    check = krein_difference_check(alpha, beta, lam, g, quad, CFG)
    assert check.residual <= 1e-10 * np.max(np.abs(g))


def test_krein_difference_antisymmetric_under_swap():
    quad = UnitIntervalQuadrature(128)
    g = np.cos(quad.nodes).astype(complex)
    fwd = krein_difference_check(1.0, 1j, 0.4 + 0.2j, g, quad, CFG)
    bwd = krein_difference_check(1j, 1.0, 0.4 + 0.2j, g, quad, CFG)
    assert np.max(np.abs(fwd.difference + bwd.difference)) <= 1e-12
    assert np.max(np.abs(fwd.formula + bwd.formula)) <= 1e-12


def test_union_coverage_two_phases_total():
    grid = np.linspace(-10.0, 10.0, 201)
    rows = momentum_union_resolvent([1.0, -1.0], grid)
    assert all(row.covered for row in rows)


def test_union_coverage_single_phase_misses_its_lattice():
    rows = momentum_union_resolvent([1.0 + 0j], [2.0 * math.pi])
    assert not rows[0].covered


def test_union_coverage_four_phases():
    grid = [complex(re, im) for re in np.linspace(-10, 10, 41)
            for im in np.linspace(-1, 1, 3)]
    rows = momentum_union_resolvent([1.0, 1j, -1.0, -1j], grid)
    assert all(row.covered for row in rows)


def test_eigenvalue_lattices_disjoint_for_distinct_phases():
    a = MomentumExtension(1.0 + 0j, QUAD)
    b = MomentumExtension(cmath.exp(2.1j), QUAD)
    for lam in a.eigenvalues(range(-3, 4)):
        assert not b.is_eigenvalue(lam)


def test_equivalence_bridge_between_extensions():
    lam = 0.5 + 0.25j
    probes = [QUAD.legendre_probe(k) for k in range(8)]
    h_a = momentum_solver_handle(MomentumExtension(1.0 + 0j, QUAD), lam, CFG)
    h_b = momentum_solver_handle(MomentumExtension(-1.0 + 0j, QUAD), lam, CFG)
    assert equivalent(h_a, h_a, CFG, probes=probes)
    assert not equivalent(h_a, h_b, CFG, probes=probes)


def test_delta_spectrum_descriptor_attractive():
    d = DeltaInteraction(-2.0)
    desc = d.spectrum_descriptor()
    assert desc["eigenvalues"] == [-1.0]
    assert d.contains(-1.0)
    assert d.contains(3.7)
    assert not d.contains(-0.5)


def test_delta_spectrum_descriptor_repulsive():
    d = DeltaInteraction(3.0)
    assert d.spectrum_descriptor()["eigenvalues"] == []
    with pytest.raises(NoBoundStateError):
        bound_state_estimate(d)


def test_bound_state_richardson_within_one_percent():
    estimate = bound_state_estimate(DeltaInteraction(-2.0), box=20.0, h0=0.1, levels=3)
    assert isinstance(estimate, BoundStateEstimate)
    assert abs(estimate.estimate - (-1.0)) <= 0.01
    assert 1.0 <= estimate.order <= 3.0


def test_bound_state_scales_with_coupling():
    estimate = bound_state_estimate(DeltaInteraction(-1.0), box=25.0, h0=0.1, levels=3)
    assert abs(estimate.estimate - (-0.25)) <= 0.01 * 0.25 + 1e-4
