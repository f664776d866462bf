"""Forms, adjoints, continuity certificates, and the partial product."""

import pathlib

import numpy as np
import pytest

from interspec import sections
from interspec.config import RunConfig
from interspec.errors import BasisMismatchError, ProductUndefinedError
from interspec.operators import (CERT_EXACT, CERT_FAILED, Banded, CoefficientOperator,
                                 Diagonal, RankSum, RankSumTerm, _certify_by_truncation,
                                 certify, find_product_triple, framework_product,
                                 operator_from_spec, sesq_form, weighted_norm_series)
from interspec.gallery import hermite_position, registry, torus_delta
from interspec.sections import PairKernel
from interspec.spaces import (Basis, CoefficientVector, ScaleFamily, dual_space,
                              hilbert_scale_family, modes, sobolev_torus_family)

CFG = RunConfig()
SPECS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specs"


@pytest.fixture(scope="module")
def scale():
    return hilbert_scale_family("n+1", range(-3, 4))


@pytest.fixture(scope="module")
def torus():
    return sobolev_torus_family(range(-4, 5))


def identity_op(basis=Basis.HERMITE):
    return CoefficientOperator(basis, Diagonal(lambda m: np.ones_like(m, dtype=complex),
                                               source="1"), symmetric=True, name="identity")


def diag_op(symbol, basis=Basis.HERMITE):
    return operator_from_spec({"basis": basis.value,
                               "rep": {"type": "diagonal", "symbol": symbol},
                               "symmetric": True, "name": f"diag {symbol}"})


def test_sesq_form_identity():
    e0 = CoefficientVector.unit(Basis.HERMITE, 0, 4)
    assert sesq_form(identity_op(), e0, e0) == 1.0 + 0.0j


def test_sesq_form_point_mass_is_squared_sum():
    delta = torus_delta().operator
    xi = CoefficientVector(Basis.FOURIER, np.array([0.5 + 1j, -2.0, 0.25j]))
    s = np.sum(xi.coeffs)
    assert sesq_form(delta, xi, xi) == pytest.approx(abs(s) ** 2, rel=1e-14)


def test_sesq_form_position_matches_quadrature_oracle():
    # oracle: Gauss-Hermite quadrature of x phi_0(x) phi_1(x)
    x, w = np.polynomial.hermite.hermgauss(64)
    h0 = np.pi ** -0.25 * np.ones_like(x)
    h1 = np.pi ** -0.25 * np.sqrt(2.0) * x
    oracle = float(np.sum(w * x * h0 * h1))
    pos = hermite_position().operator
    e0 = CoefficientVector.unit(Basis.HERMITE, 0, 8)
    e1 = CoefficientVector.unit(Basis.HERMITE, 1, 8)
    assert sesq_form(pos, e0, e1) == pytest.approx(oracle, rel=1e-13)


def test_sesq_form_basis_mismatch():
    e0 = CoefficientVector.unit(Basis.FOURIER, 0, 4)
    with pytest.raises(BasisMismatchError):
        sesq_form(identity_op(), e0, e0)


def test_adjoint_diagonal_conjugates():
    op = operator_from_spec({"basis": "hermite",
                             "rep": {"type": "diagonal", "symbol": "i*n"}})
    adj = op.adjoint()
    n = np.arange(16, dtype=float)
    assert np.array_equal(np.diag(adj.matrix(16)), -1j * n)


def test_adjoint_ranksum_swaps_and_matches_dense_oracle():
    u = lambda m: np.exp(-1j * 0.3 * np.asarray(m, dtype=float))
    v = lambda m: np.ones(np.shape(m), dtype=complex)
    op = CoefficientOperator(Basis.FOURIER, RankSum((RankSumTerm(u, v),)))
    adj = op.adjoint()
    mat = op.matrix(50)
    assert np.allclose(adj.matrix(50), mat.conj().T, atol=1e-15)
    assert np.allclose(adj.adjoint().matrix(50), mat, atol=1e-15)


def test_adjoint_symmetric_is_identity_object():
    pos = hermite_position().operator
    assert pos.adjoint() is pos


def test_certify_scale_generator_adjacent_rung(scale):
    # closed-form sup, brute oracle over n <= 10^6
    n = np.arange(10 ** 6, dtype=float)
    oracle = np.max((n + 1) / np.sqrt(1 + (n + 1) ** 2))
    cert = certify(diag_op("n+1"), scale.space_at(1), scale.space_at(0), CFG)
    assert cert.method == CERT_EXACT
    assert cert.norm_bound == pytest.approx(oracle, rel=1e-9)
    assert cert.norm_bound == pytest.approx(1.0, rel=1e-8)


def test_certify_point_mass_into_negative_rung(torus):
    # rank-one norm; oracle: symmetric partial sums to 10^6 plus integral tail
    modes = np.arange(1, 10 ** 6)
    partial = 1.0 + 2.0 * np.sum(1.0 / (1.0 + modes ** 2))
    tail = 2.0 / modes[-1]
    cert = certify(torus_delta().operator, torus.space_at(1), torus.space_at(-1), CFG)
    assert cert.method == CERT_EXACT
    assert partial <= cert.norm_bound <= partial + tail + 1e-6


def test_certify_point_mass_into_central_space_fails(torus):
    cert = certify(torus_delta().operator, torus.space_at(1), torus.space_at(0), CFG)
    assert cert.method == CERT_FAILED
    assert cert.norm_bound == np.inf
    assert not cert.certified


def test_certify_unbounded_diagonal_fails(scale):
    cert = certify(diag_op("n+1"), scale.space_at(1), scale.space_at(1), CFG)
    assert cert.method == CERT_FAILED and cert.norm_bound == np.inf


def test_certify_monotone_in_the_pair(scale):
    ops = [diag_op("n+1"), diag_op("1/(n+1)")]
    indices = [s.index for s in scale.spaces]
    for op in ops:
        for ke in indices:
            success_below = None
            for kf in sorted(indices, reverse=True):
                if kf > ke:
                    continue
                ok = certify(op, scale.space_at(ke), scale.space_at(kf), CFG).certified
                if success_below is not None:
                    # enlarging F (smaller index) never turns success into failure
                    assert not (success_below and not ok)
                success_below = ok


def test_certify_adjoint_duality_exact_for_diagonal(scale):
    op = operator_from_spec({"basis": "hermite",
                             "rep": {"type": "diagonal", "symbol": "(n+1)/(n+2) + i/(n+1)"}})
    e, f = scale.space_at(2), scale.space_at(0)
    forward = certify(op, e, f, CFG)
    backward = certify(op.adjoint(), dual_space(f), dual_space(e), CFG)
    assert forward.norm_bound == backward.norm_bound


def test_certify_adjoint_duality_banded_close(scale):
    pos = hermite_position().operator
    e, f = scale.space_at(1), scale.space_at(0)
    forward = certify(pos, e, f, CFG)
    backward = certify(pos.adjoint(), dual_space(f), dual_space(e), CFG)
    assert forward.certified and backward.certified
    assert forward.norm_bound == pytest.approx(backward.norm_bound, rel=1e-10)


def test_truncated_estimates_monotone_from_below(scale):
    op = diag_op("n/(n+1)")
    e = f = scale.space_at(0)
    estimates = [PairKernel(op, e, f, CFG).norm_estimate(n) for n in (64, 128, 256, 512)]
    assert all(b >= a - 1e-15 for a, b in zip(estimates, estimates[1:]))
    exact = certify(op, e, f, CFG).norm_bound
    assert all(est <= exact + 1e-12 for est in estimates)


def _banded_gallery_pairs():
    gallery = registry()
    cases = [(gallery[name].operator, gallery[name].family)
             for name in ("position", "multiplier[cos(t)]", "multiplier[2+cos(t)]")]
    cases.append((gallery["position"].operator, ScaleFamily.from_json(SPECS / "hermite-h23.json")))
    torus_w1 = ScaleFamily.from_json(SPECS / "torus-w1.json")
    cases += [(gallery[name].operator, torus_w1)
              for name in ("multiplier[cos(t)]", "multiplier[2+cos(t)]")]
    return [(op, e, f) for op, family in cases for e, f in family.admissible_pairs()]


@pytest.fixture(scope="module")
def banded_certificates():
    return [(op, e, f, certify(op, e, f, CFG)) for op, e, f in _banded_gallery_pairs()]


def test_failed_banded_certificates_build_no_section(scale, monkeypatch):
    def no_section(*args, **kwargs):
        raise AssertionError("a failed banded certificate built a section")

    monkeypatch.setattr(sections, "_band_tridiagonal", no_section)
    monkeypatch.setattr(PairKernel, "banded_norm", no_section)
    pos = hermite_position().operator
    for space in scale:
        cert = certify(pos, space, space, CFG)
        assert cert.method == CERT_FAILED
        assert cert.norm_bound == np.inf
        assert cert.witness_n == CFG.symbol_probe


def test_banded_certify_matches_doubling_schedule(banded_certificates):
    for op, e, f, cert in banded_certificates:
        schedule = _certify_by_truncation(op, e, f, CFG)
        assert cert.method == schedule.method, (op.describe(), e.label, f.label)
        if cert.certified:
            assert cert.norm_bound == schedule.norm_bound
            assert cert.witness_n == schedule.witness_n


def test_banded_probe_meeting_nan_runs_the_schedule(scale):
    # growing weighted diagonals, but NaN on every mode past 50000: the probe
    # decides nothing and the schedule (which never reaches those modes) fails it
    pos = hermite_position().operator.rep.entry

    def entry(mr, mc):
        return np.where(np.maximum(mr, mc) > 50_000, np.nan, pos(mr, mc))

    op = CoefficientOperator(Basis.HERMITE, Banded(1, entry), symmetric=True)
    e = scale.space_at(1)
    cert = certify(op, e, e, CFG)
    assert cert == _certify_by_truncation(op, e, e, CFG)
    assert cert.method == CERT_FAILED and cert.witness_n < CFG.symbol_probe


@pytest.mark.parametrize("symbol", ["n+1", "1/(n+1)", "log(n+2)"])
def test_zero_band_verdict_matches_diagonal(scale, symbol):
    diagonal = diag_op(symbol)
    values = diagonal.rep.values
    banded = CoefficientOperator(Basis.HERMITE, Banded(0, lambda mr, mc: values(mc)),
                                 symmetric=True)
    e = scale.space_at(1)
    expected = certify(diagonal, e, e, CFG).method == CERT_FAILED
    assert (certify(banded, e, e, CFG).method == CERT_FAILED) == expected
    assert expected == (symbol != "1/(n+1)")


def test_certified_banded_norms_within_schur_sandwich(banded_certificates):
    # max |entry| <= ||W_F X W_E^{-1}|| <= sum_k sup_m |d_k(m)| (Lindner 2006, 1.3),
    # with both sups over every probed slot
    slack = 1.0 + CFG.rel_tol
    checked = 0
    for op, e, f, cert in banded_certificates:
        if not cert.certified:
            continue
        m = modes(op.basis, CFG.symbol_probe).astype(float)
        band = range(-op.rep.bandwidth, op.rep.bandwidth + 1)
        sups = []
        for k in band:
            mk = m if op.basis is Basis.FOURIER else m[m + k >= 0]
            d_k = f.weight_at(mk + k) * np.asarray(op.rep.entry(mk + k, mk)) / e.weight_at(mk)
            sups.append(float(np.max(np.abs(d_k))))
        assert max(sups) <= cert.norm_bound * slack <= sum(sups) * slack, \
            (op.describe(), e.label, f.label)
        checked += 1
    assert checked == 69


LIST_RANK_ONE = {"basis": "fourier",
                 "rep": {"type": "ranksum", "terms": [{"u": [1, 2, 3], "v": [1, 0, 1]}]}}


def test_list_term_vectors_follow_mode_numbers(torus):
    # slots 0, 1, 2 hold modes 0, 1, -1; a tail slice must not see the head again
    op = operator_from_spec(LIST_RANK_ONE)
    u = op.rep.terms[0].u
    assert np.array_equal(u(np.array([-1, 0, 1, 2, 5])), [3, 1, 2, 0, 0])
    u_norm = np.sqrt(1 + 4 / 4 + 9 / 4)   # |u| in W_-2: weights (1 + m^2)^-1
    v_norm = np.sqrt(2.0)                 # |v| in W_0
    for k in range(5):
        value, verdict = weighted_norm_series(u, torus.space_at(k), CFG)
        assert verdict == "converged"
        assert value == pytest.approx(np.sqrt(1 + (4 + 9) * 2.0 ** k), rel=1e-14)
    cert = certify(op, torus.space_at(2), torus.space_at(0), CFG)
    assert cert.method == CERT_EXACT
    assert cert.norm_bound == pytest.approx(u_norm * v_norm, rel=1e-14)
    dense = op.matrix(3)
    assert np.array_equal(dense, np.outer([1, 0, 1], [1, 2, 3]))


def test_framework_product_slow_path_diagonals_exact(scale):
    # 32 rows with an inner cutoff of 8 sends every entry through the per-entry path
    cfg = RunConfig(product_cutoff=8)
    a, b = diag_op("n+1"), diag_op("1/(n+2)")
    got = framework_product(a, b, scale, cfg).matrix(32)
    expected = np.diag(np.diag(a.matrix(32)) * np.diag(b.matrix(32)))
    assert np.array_equal(got, expected)


def test_framework_product_slow_path_banded_matches_dense(scale):
    cfg = RunConfig(product_cutoff=8)
    pos = hermite_position().operator
    got = framework_product(pos, pos, scale, cfg).matrix(32)
    expected = pos.matrix(32, 64) @ pos.matrix(64, 32)
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)
    assert np.count_nonzero(got) == np.count_nonzero(expected)


def test_framework_product_diagonal_square(scale):
    a = diag_op("n+1")
    product = framework_product(a, a, scale, CFG)
    got = product.matrix(16)
    n = np.arange(16, dtype=float)
    assert np.allclose(np.diag(got), (n + 1) ** 2, rtol=1e-14)
    assert np.allclose(got - np.diag(np.diag(got)), 0.0)


def test_framework_product_identity_unit(scale):
    a = diag_op("1/(n+1)")
    product = framework_product(identity_op(), a, scale, CFG)
    assert np.allclose(product.matrix(32), a.matrix(32), atol=1e-15)


def test_framework_product_point_mass_squared_undefined(torus):
    delta = torus_delta().operator
    with pytest.raises(ProductUndefinedError):
        framework_product(delta, delta, torus, CFG)


def test_framework_product_triple_independent(scale):
    a = diag_op("n+1")
    b = diag_op("1/(n+2)")
    reference = framework_product(a, b, scale, CFG).matrix(64)
    triples = []
    for f_mid in scale:
        for e in scale:
            if not certify(b, e, f_mid, CFG).certified:
                continue
            for g in scale:
                if certify(a, f_mid, g, CFG).certified:
                    triples.append((e, f_mid, g))
    assert len(triples) > 1
    # the generated product matrix does not depend on the admissible triple
    assert find_product_triple(a, b, scale, CFG) in triples
    assert np.allclose(reference[np.arange(64), np.arange(64)],
                       (np.arange(64) + 1.0) / (np.arange(64) + 2.0), rtol=1e-14)


def test_symmetric_flag_matches_truncations():
    pos = hermite_position().operator
    for n in (17, 64):
        mat = pos.matrix(n)
        assert np.array_equal(mat, mat.conj().T)
