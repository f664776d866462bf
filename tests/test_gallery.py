"""Model catalog: entries, their oracles, and agreement with grid scans."""

from dataclasses import replace

import numpy as np
import pytest

from interspec.config import GridSpec, RunConfig
from interspec.errors import SymbolGrowthError, UnsupportedSymbolError
from interspec.gallery import (hermite_diagonal, hermite_position,
                               position_family_contrast, registry, torus_comb,
                               torus_delta, torus_multiplication)
from interspec.operators import certify
from interspec.resolvent import truncated_resolvent_apply, union_spectrum_scan
from interspec.spaces import Basis, CoefficientVector

CFG = RunConfig()


# -- diagonal entries ---------------------------------------------------------


def test_decay_diagonal_spectrum_descriptor():
    entry = hermite_diagonal("1/(n+1)")
    spec = entry.expected_spectrum
    assert spec.contains(1.0) and spec.contains(0.5) and spec.contains(1.0 / 7.0)
    assert spec.contains(0.0)  # detected limit point
    assert not spec.contains(0.4) and not spec.contains(1j)


def test_growth_diagonal_resolvent_is_symbol_inverse():
    entry = hermite_diagonal("n+1")
    assert entry.expected_spectrum.contains(3.0)
    assert not entry.expected_spectrum.contains(2.5)
    sm = entry.family.space_at(1)
    eta = CoefficientVector.unit(Basis.HERMITE, 0, 32)
    xi = truncated_resolvent_apply(entry.operator, 1j, eta, 32)
    assert np.array_equal(xi.coeffs, eta.coeffs / (np.arange(32) + 1.0 - 1j))
    cert = certify(entry.operator, entry.family.space_at(1), entry.family.space_at(0), CFG)
    assert cert.certified


def test_zero_symbol_spectrum_is_origin():
    entry = hermite_diagonal("0")
    assert entry.expected_spectrum.contains(0.0)
    assert not entry.expected_spectrum.contains(0.1)


def test_super_polynomial_symbol_rejected():
    with pytest.raises(SymbolGrowthError):
        hermite_diagonal("exp(n)")


# -- position operator --------------------------------------------------------


def test_position_entry_oracle():
    x, w = np.polynomial.hermite.hermgauss(64)
    h0 = np.pi ** -0.25 * np.ones_like(x)
    h1 = np.pi ** -0.25 * np.sqrt(2.0) * x
    oracle = float(np.sum(w * x * h0 * h1))
    mat = hermite_position().operator.matrix(4)
    assert mat[1, 0].real == pytest.approx(oracle, rel=1e-13)
    assert mat[1, 0].real == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_position_truncations_are_real_symmetric():
    mat = hermite_position().operator.matrix(100)
    assert np.array_equal(mat, mat.conj().T)
    assert np.max(np.abs(mat.imag)) == 0.0


def test_position_truncated_eigenvalues_are_quadrature_nodes():
    # oracle: dense symmetric eigensolve against Gauss-Hermite nodes
    for n in (64, 256):
        mat = hermite_position().operator.matrix(n).real
        eigs = np.sort(np.linalg.eigvalsh(mat))
        nodes = np.sort(np.polynomial.hermite.hermgauss(n)[0])
        assert np.max(np.abs(eigs - nodes)) <= 1e-11
    spread_small = np.max(np.linalg.eigvalsh(hermite_position().operator.matrix(64).real))
    spread_large = np.max(np.linalg.eigvalsh(hermite_position().operator.matrix(256).real))
    assert spread_large > spread_small


# -- torus point masses -------------------------------------------------------


def test_point_mass_kernel_codimension_one():
    op = torus_delta().operator
    for n in (128, 256, 512):
        sv = np.linalg.svd(op.matrix(n), compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert rank == 1  # kernel {sum of coefficients = 0} has dimension n-1


def test_point_mass_certification_pattern():
    entry = torus_delta()
    w = entry.family
    assert certify(entry.operator, w.space_at(1), w.space_at(-1), CFG).certified
    assert not certify(entry.operator, w.space_at(1), w.space_at(0), CFG).certified
    assert not certify(entry.operator, w.space_at(2), w.space_at(1), CFG).certified
    assert not certify(entry.operator, w.space_at(-1), w.space_at(-2), CFG).certified


def test_point_mass_has_no_eigenvector_off_zero():
    # for lambda != 0 no vector that is unit in a smooth-model norm keeps
    # |(M - lambda) v| below 1e-6 in the negative rung: discrete version of
    # "zero is the only eigenvalue"
    from interspec.spaces import modes
    entry = torus_delta()
    n = 512
    mat = entry.operator.matrix(n)
    m = modes(Basis.FOURIER, n).astype(float)
    w_out = 1.0 / np.sqrt(1.0 + m * m)   # W^{-1,2} residual weights
    w_in = 1.0 + np.abs(m)               # smooth-model constraint weights
    for lam in (1.0, -1.0, 1j, -2.0, 0.5 + 0.5j, 2j):
        shifted = (mat - lam * np.eye(n)) * w_out[:, None] / w_in[None, :]
        smallest = np.linalg.svd(shifted, compute_uv=False)[-1]
        assert smallest > 1e-6, f"near-eigenvector found at lambda={lam}"


def test_point_mass_inverse_norm_diverges():
    # truncated solve oracle: resolvent norms on (W^-1 -> W^1) grow with n
    entry = torus_delta()
    w1 = entry.family.space_at(1)
    for lam in (1.0, 1j, -2.0):
        norms = []
        for n in (64, 128, 256, 512):
            mat = entry.operator.matrix(n)
            mat[np.arange(n), np.arange(n)] -= lam
            inv = np.linalg.inv(mat)
            wvec = w1.weights(n)
            norms.append(np.linalg.svd(inv * wvec[:, None] * wvec[None, :],
                                       compute_uv=False)[0])
        assert all(b >= 1.5 * a for a, b in zip(norms, norms[1:]))


def test_comb_kernel_vanishes_at_sampling_angles():
    points = 4
    entry = torus_comb(points)
    n = 64
    mat = entry.operator.matrix(n)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sv > 1e-10 * sv[0])) == points
    # a vector vanishing at all sampling angles is annihilated
    from interspec.spaces import modes
    m = modes(Basis.FOURIER, n).astype(float)
    angles = 2.0 * np.pi * np.arange(points) / points
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    evals = np.exp(1j * np.outer(angles, m))
    # project out the point evaluations
    gram = evals @ evals.conj().T
    correction = evals.conj().T @ np.linalg.solve(gram, evals @ coeffs)
    kernel_vec = coeffs - correction
    assert np.max(np.abs(evals @ kernel_vec)) <= 1e-8
    assert np.max(np.abs(mat @ kernel_vec)) <= 1e-8


# -- torus multipliers --------------------------------------------------------


def test_cosine_multiplier_eigenvalue_oracle():
    entry = torus_multiplication("cos(t)")
    n = 128
    mat = entry.operator.matrix(n)
    eigs = np.sort(np.linalg.eigvalsh(mat))
    oracle = np.sort(np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(eigs - oracle)) <= 1e-12
    assert entry.expected_spectrum.contains(0.3)
    assert not entry.expected_spectrum.contains(1.4)


def test_zero_multiplier():
    entry = torus_multiplication("0*cos(t)")
    assert entry.expected_spectrum.contains(0.0)
    assert not entry.expected_spectrum.contains(0.2)


def test_shifted_cosine_resolvent_norm_matches_distance():
    # dense solve oracle: |(M - 0)^-1| ~ 1/dist(0, [1, 3]) on the central pair
    entry = torus_multiplication("2+cos(t)")
    n = 1024
    mat = entry.operator.matrix(n)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert 1.0 / sv[-1] == pytest.approx(1.0, rel=0.05)


def test_non_trig_polynomial_rejected():
    with pytest.raises(UnsupportedSymbolError):
        torus_multiplication("1/(2+cos(t))")


# -- registry and scan agreement ----------------------------------------------


def test_registry_names_and_serialization():
    entries = registry()
    assert {"position", "torus-delta", "scale-generator"} <= set(entries)
    for name, entry in entries.items():
        assert entry.name == name  # each builder is filed under its entry's own name
        data = entry.to_json_dict()
        assert data["name"] == entry.name
        assert "expected_spectrum" in data


SHORT_SCAN = {"scan_n0": 64, "scan_n_max": 1024}
SCAN_CASES = [
    ("diagonal[1/(n+1)]", GridSpec(-0.3, 1.2, 7, -0.2, 0.2, 3), SHORT_SCAN),
    ("diagonal[n+1]", GridSpec(0.5, 3.5, 7, -0.5, 0.5, 3), SHORT_SCAN),
    ("scale-generator", GridSpec(0.5, 3.5, 7, -0.5, 0.5, 3), SHORT_SCAN),
    ("position", GridSpec(-1.0, 1.0, 3, -0.5, 0.5, 2), SHORT_SCAN),
    ("torus-delta", GridSpec(-1.0, 1.0, 3, -0.5, 0.5, 2), SHORT_SCAN),
    ("multiplier[cos(t)]", GridSpec(-1.5, 1.5, 5, -0.4, 0.4, 2), SHORT_SCAN),
    # the default scan_n_max reaches the plateau of position's compact pairs
    ("position", GridSpec(-1.5, 1.5, 5, 0.5, 0.5, 1), {}),
]


@pytest.mark.parametrize("name,grid,schedule", [
    pytest.param(*case, id=f"{case[0]}-grid{i}") for i, case in enumerate(SCAN_CASES)])
def test_scan_agrees_with_expected_spectrum(name, grid, schedule):
    entry = registry()[name]
    cfg = replace(CFG, duality_check=False, **schedule)
    smap = union_spectrum_scan(entry.operator, entry.family, grid, cfg)
    for li, lam in enumerate(smap.lambdas):
        statuses = [smap.cells[pi][li].status for pi in range(len(smap.pair_labels))]
        if smap.union_resolvent[li]:
            assert not entry.expected_spectrum.contains(lam, tol=1e-6), \
                f"{name}: lambda={lam} wrongly covered"
        elif all(s in ("not-regular", "no-extension", "regular-defect")
                 for s in statuses):
            assert entry.expected_spectrum.contains(lam, tol=1e-2), \
                f"{name}: lambda={lam} conclusively uncovered but off the spectrum"


def test_position_family_contrast_reports_more_surrogate_pairs():
    rows = position_family_contrast(CFG)
    assert set(rows) == {"integer-chain", "with-surrogates"}
    assert len(rows["with-surrogates"]) > len(rows["integer-chain"])
    assert any(label.startswith("x_1->") for label in rows["with-surrogates"])
