"""Forms, adjoints, continuity certificates, and the partial product."""

import pathlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from interspec import operators, resolvent, sections
from interspec.config import GridSpec, RunConfig
from interspec.errors import BasisMismatchError, ProductUndefinedError
from interspec.operators import (CERT_EXACT, CERT_FAILED, Banded, CoefficientOperator,
                                 ContinuityCertificate, Diagonal, RankSum, RankSumTerm,
                                 _certify_by_truncation, certify, certify_pairs,
                                 Representation, find_product_triple, framework_product,
                                 operator_from_json, operator_from_spec, sesq_form,
                                 weighted_norm_series)
from interspec.gallery import BUILDERS, hermite_position, registry, torus_delta
from interspec.sections import PairKernel
from interspec.spaces import (Basis, CoefficientVector, ScaleFamily, ScaleSpace, ScaleWeights,
                              dual_space, hilbert_scale_family, modes, running_sup, sequence_power_family,
                              sobolev_torus_family)

CFG = RunConfig()
SPECS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specs"
DATA = pathlib.Path(__file__).resolve().parent / "data"


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
    estimates = [op.rep.norm_estimate(PairKernel(op, e, f, CFG), n) for n in (64, 128, 256, 512)]
    assert all(b >= a - 1e-15 for a, b in zip(estimates, estimates[1:]))
    exact = certify(op, e, f, CFG).norm_bound
    assert all(est <= exact + 1e-12 for est in estimates)


def test_dense_norm_estimate_takes_the_tall_svd_alone(scale, monkeypatch):
    # the default norm estimate is the summary's d_high at lambda = 0, from one SVD
    x = operator_from_json(DATA / "dense-toeplitz.json")
    assert type(x.rep).norm_estimate is Representation.norm_estimate
    kernel = PairKernel(x, scale.space_at(1), scale.space_at(0), CFG)
    n = 128
    calls = []
    svdvals = operators._svdvals
    monkeypatch.setattr(operators, "_svdvals", lambda mat: calls.append(mat.shape) or svdvals(mat))
    estimate = x.rep.norm_estimate(kernel, n)
    assert calls == [(n + CFG.section_margin, n)]
    assert estimate == Representation.summary(x.rep, kernel, 0.0, n).d_high


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
    monkeypatch.setattr(Banded, "norm_estimate", no_section)
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


# ---------------------------------------------------------------------------
# batched diagonal certificates


def _whole_probe_certificate(op, e, f, cfg):
    """One diagonal pair certified over the whole probe at once: the expression
    that `Diagonal.certify` evaluated before certificates went through blocks."""
    probe = cfg.symbol_probe
    m = modes(op.basis, probe)
    ratio = f.weight_at(m) / e.weight_at(m)
    bound, diverged = running_sup(op.rep.symbol(op.basis, probe) * ratio,
                                  cfg.growth_threshold)
    return ContinuityCertificate(op.describe(), e, f, float("inf") if diverged else bound,
                                 CERT_FAILED if diverged else CERT_EXACT, probe)


def _diagonal_cases():
    """(operator, pairs) for every diagonal gallery entry on its family and for
    diagonal operators on the families of ``bench/specs``."""
    cases = [(entry.operator, entry.family.admissible_pairs())
             for entry in registry().values() if isinstance(entry.operator.rep, Diagonal)]
    h23 = ScaleFamily.from_json(str(SPECS / "hermite-h23.json"))
    w1 = ScaleFamily.from_json(str(SPECS / "torus-w1.json"))
    cases.append((registry()["scale-generator"].operator, h23.admissible_pairs()))
    cases.append((diag_op("n+1"), h23.admissible_pairs()))
    cases.append((diag_op("n^2", Basis.FOURIER), w1.admissible_pairs()))
    # complex and not symmetric, on the signed Fourier modes, and its adjoint's dual pairs
    skew = operator_from_spec({"basis": "fourier", "name": "skew",
                               "rep": {"type": "diagonal",
                                       "symbol": "(0.5+2*i)*n/(abs(n)+1) + i/(n^2+1)"}})
    cases.append((skew, w1.admissible_pairs()))
    cases.append((skew.adjoint(), [(w1.dual_of(f), w1.dual_of(e))
                                   for e, f in w1.admissible_pairs()]))
    # NaN past slot 16384: no divergence verdict, a NaN bound
    nan_tail = CoefficientOperator(Basis.HERMITE, Diagonal(
        lambda m: np.where(m > 20000, np.nan, 1.0 / (m + 1.0)).astype(complex)), name="nan tail")
    cases.append((nan_tail, sequence_power_family(range(-2, 3)).admissible_pairs()))
    return cases


def _same(a, b) -> bool:
    # repr tells every float apart, NaN from NaN included
    return repr(a.to_dict()) == repr(b.to_dict()) and (a.e, a.f) == (b.e, b.f)


def test_held_certificates_equal_those_of_a_fresh_operator_on_the_gallery():
    # a certificate is taken once per operator and cfg, then read from the pair's kernel
    for name, entry in registry().items():
        op, pairs = entry.operator, entry.family.admissible_pairs()
        held = certify_pairs(op, pairs, CFG)
        assert all(a is b for a, b in zip(certify_pairs(op, pairs, CFG), held))
        for (e, f), cert in zip(pairs, held):
            assert certify(op, e, f, CFG) is cert
            fresh = certify(BUILDERS[name]().operator, e, f, CFG)
            assert _same(cert, fresh), (name, e.label, f.label)


def test_a_held_certificate_takes_no_representation_call(monkeypatch):
    calls = []
    batched = Diagonal.certify_pairs

    def counted(self, op, pairs, cfg):
        calls.append(len(pairs))
        return batched(self, op, pairs, cfg)

    monkeypatch.setattr(Diagonal, "certify_pairs", counted)
    w1 = ScaleFamily.from_json(str(SPECS / "torus-w1.json"))
    pairs = w1.admissible_pairs()
    spec = {"basis": "fourier", "name": "skew",
            "rep": {"type": "diagonal", "symbol": "(0.5+2*i)*n/(abs(n)+1)"}}
    skew = operator_from_spec(spec)
    first = certify_pairs(skew, pairs[:3], CFG)
    assert calls == [3]
    # only the pairs not held yet reach the representation, in one call
    assert certify_pairs(skew, pairs, CFG)[:3] == first and calls == [3, len(pairs) - 3]
    certify_pairs(skew, pairs, CFG)
    certify(skew, *pairs[0], CFG)
    assert calls == [3, len(pairs) - 3]
    # another cfg, a rebuilt operator and each adjoint of a non-symmetric one recompute
    other = replace(CFG, symbol_probe=CFG.symbol_probe // 2)
    certify(skew, *pairs[0], other)
    certify(operator_from_spec(spec), *pairs[0], CFG)
    dual = (w1.dual_of(pairs[0][1]), w1.dual_of(pairs[0][0]))
    certify(skew.adjoint(), *dual, CFG)
    certify(skew.adjoint(), *dual, CFG)
    assert calls == [3, len(pairs) - 3, 1, 1, 1, 1]


@pytest.mark.parametrize("probe", [CFG.symbol_probe, 100_000, 3000, 40])
def test_batched_diagonal_certificates_equal_whole_probe_ones(probe):
    cfg = RunConfig(symbol_probe=probe)
    methods = set()
    for op, pairs in _diagonal_cases():
        batched = certify_pairs(op, pairs, cfg)
        assert len(batched) == len(pairs)
        for (e, f), cert in zip(pairs, batched):
            assert _same(cert, _whole_probe_certificate(op, e, f, cfg)), (op.describe(), e, f)
            assert _same(certify(op, e, f, cfg), cert)
            methods.add(cert.method if not np.isnan(cert.norm_bound) else "nan")
    assert {CERT_EXACT, CERT_FAILED} | ({"nan"} if probe > 20001 else set()) <= methods


def test_batched_diagonal_certificates_hold_one_block_per_rung():
    # nine rungs, one 2^15-slot block each: 2.25 MB of weights; the whole-probe
    # expression peaks at about 5 MB
    entry = registry()["diagonal[1/(n+1)]"]
    op, pairs = entry.operator, entry.family.admissible_pairs()
    assert len(pairs) == 45
    op.rep.symbol(op.basis, CFG.symbol_probe)  # the held symbol is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        certify_pairs(op, pairs, CFG)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_scan_certificates_evaluate_each_rung_once_per_block(monkeypatch):
    # one certificate at a time evaluated both rungs over the whole probe, so
    # each rung took part twice per pair; the blocked pass takes each rung once
    # per block: 2048, 16384, then 2^15 slots at a time up to 2^17
    entry = registry()["diagonal[1/(n+1)]"]
    evaluated, inside = [], []
    weight_at, batched = ScaleSpace.weight_at, resolvent.certify_pairs

    def counting(self, m):
        if inside:
            evaluated.append(self.label)
        return weight_at(self, m)

    def tracking(*args, **kwargs):
        inside.append(True)
        try:
            return batched(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(ScaleSpace, "weight_at", counting)
    monkeypatch.setattr(resolvent, "certify_pairs", tracking)
    scan = resolvent.union_spectrum_scan(entry.operator, entry.family,
                                         GridSpec.parse("0.5:1.5:2,0.5:0.5:1"), CFG)
    assert scan.duality_checked and len(scan.certificates) == 45
    counts = {label: evaluated.count(label) for label in set(evaluated)}
    assert counts == {space.label: 6 for space in entry.family}


# ---------------------------------------------------------------------------
# E = F rows of a diagonal operator, computed once and shared


def _unshared_row(x, e, f, lams, n, cfg):
    """The diagonal summary row, one lambda at a time, from |symbol - lambda|
    w_F / w_E over all n slots."""
    symbol, ratio = x.rep.symbol(x.basis, n), f.weights(n) / e.weights(n)
    c_low, d_high, census = [], [], []
    for lam in lams.tolist():
        vals = np.abs(symbol - lam) * ratio
        c_low.append(vals.min())
        d_high.append(vals.max())
        census.append(np.count_nonzero(vals < cfg.defect_eps * d_high[-1]))
    c_low = np.array(c_low)
    return c_low, np.array(d_high), c_low, np.array(census)


def _bits(row):
    return [np.asarray(a).tobytes() for a in row]


def _count_rows(monkeypatch):
    """(n, ratio identically 1.0) of every row `Diagonal.summaries` computes."""
    rows, constants = [], operators._diagonal_constants

    def counting(symbol, ratio, lams, eps):
        rows.append((len(symbol), bool(np.all(ratio == 1.0))))
        return constants(symbol, ratio, lams, eps)

    monkeypatch.setattr(operators, "_diagonal_constants", counting)
    return rows


def _row_of(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 7.0, count) + 1j * rng.uniform(-1.0, 1.0, count)


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("name", ["diagonal[1/(n+1)]", "diagonal[n+1]", "scale-generator"])
def test_every_e_equals_f_row_is_the_unshared_row(monkeypatch, name, n):
    entry = registry()[name]
    x, spaces = entry.operator, entry.family.spaces
    wide, one = _row_of(1, 108), np.array([0.3 + 0.01j])
    rows = _count_rows(monkeypatch)
    asks = [(spaces[0], wide), (spaces[1], wide), (spaces[2], one), (spaces[3], one),
            (spaces[4], wide), (spaces[3], one.copy()), (spaces[1], one)]
    for s, lams in asks:
        got = x.rep.summaries(x.kernel(s, s, CFG), lams, n)
        assert _bits(got) == _bits(_unshared_row(x, s, s, lams, n, CFG)), (s.label, len(lams))
    # miss, hit, miss, hit, miss, miss (an equal array), hit
    assert rows == [(n, True)] * 4


@pytest.mark.parametrize("symmetric, passes", [(True, 1), (False, 2)],
                         ids=["real-self-adjoint", "undeclared"])
def test_a_diagonal_scan_computes_one_e_equals_f_row_per_truncation_and_pass(
        monkeypatch, symmetric, passes):
    # the primal pass at lambda, and the dual pass at conj(lambda) unless the
    # operator is real and self-adjoint; the grid is offset like the
    # benchmark's, so no row is its own conjugate
    entry = registry()["diagonal[1/(n+1)]"]
    x = CoefficientOperator(Basis.HERMITE, entry.operator.rep, symmetric=symmetric)
    rows = _count_rows(monkeypatch)
    scan = resolvent.union_spectrum_scan(x, entry.family,
                                         GridSpec.parse("-0.53:1.47:12,-0.46:0.54:9"), CFG)
    assert scan.duality_checked and not scan.duality_mismatches
    shared = [n for n, ones in rows if ones]
    assert {n: shared.count(n) for n in shared} == {256 << k: passes for k in range(6)}


def test_an_overflowing_ratio_neither_reads_nor_replaces_the_held_row(monkeypatch):
    entry = registry()["diagonal[1/(n+1)]"]
    x, n, lams = entry.operator, 1 << 15, _row_of(2, 4)
    rung = entry.family.spaces[0]
    x.rep.summaries(x.kernel(rung, rung, CFG), lams, n)
    key = (x.basis, n, CFG)
    held = x.rep._rows[key]
    x4 = ScaleSpace(Basis.HERMITE, Fraction(4), ScaleWeights("exp-sqrt"))
    rows = _count_rows(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):  # the weights overflow: inf / inf
        assert np.isnan(x4.weights(n) / x4.weights(n)).any()
        got = x.rep.summaries(x.kernel(x4, x4, CFG), lams, n)
        assert _bits(got) == _bits(_unshared_row(x, x4, x4, lams, n, CFG))
    assert np.isnan(got[0]).all() and np.isnan(got[1]).all()
    assert rows == [(n, False)] and x.rep._rows[key] is held


def test_configurations_differing_in_defect_eps_share_no_row(monkeypatch):
    entry = registry()["diagonal[1/(n+1)]"]
    x, rung, lams = entry.operator, entry.family.spaces[4], np.array([0.0, 0.5 + 0.1j])
    rows = _count_rows(monkeypatch)
    censuses = []
    for cfg in (CFG, replace(CFG, defect_eps=1e-2)):
        got = x.rep.summaries(x.kernel(rung, rung, cfg), lams, 256)
        assert _bits(got) == _bits(_unshared_row(x, rung, rung, lams, 256, cfg))
        censuses.append(got[3].tolist())
    assert rows == [(256, True)] * 2 and censuses[0] != censuses[1]


def test_held_rows_are_read_only(monkeypatch):
    entry = registry()["diagonal[1/(n+1)]"]
    x, rung, lams = entry.operator, entry.family.spaces[2], _row_of(3, 5)
    rows = _count_rows(monkeypatch)
    got = x.rep.summaries(x.kernel(rung, rung, CFG), lams, 512)
    for array in (*got, *x.rep._rows[(x.basis, 512, CFG)]):
        with pytest.raises(ValueError):
            array[0] = 0
    # the row holds a copy of the lambda array it was asked with
    lams[0] += 1.0
    got = x.rep.summaries(x.kernel(rung, rung, CFG), lams, 512)
    assert _bits(got) == _bits(_unshared_row(x, rung, rung, lams, 512, CFG))
    assert rows == [(512, True)] * 2


# ---------------------------------------------------------------------------
# rank-sum certificates and held factors


def _stacked_factors(rep, kernel, lam, n):
    """(d, V, U) of a rank-sum section from each term's factors evaluated
    afresh and stacked: the expression the held factors must reproduce."""
    m = modes(kernel.x.basis, n).astype(float)
    wf, we = kernel.f.weights(n), kernel.e.weights(n)
    vt = np.stack([np.asarray(t.v(m), dtype=complex) * wf for t in rep.terms], axis=1)
    ut = np.stack([np.asarray(t.u(m), dtype=complex) / we for t in rep.terms], axis=1)
    return -lam * (wf / we), vt, ut


def _one_pair_ranksum_certificate(op, e, f, cfg):
    """The rank-sum certificate of one pair, each factor's series summed
    afresh; the doubling schedule must run with `_stacked_factors`."""
    norms = []
    for term in op.rep.terms:
        (nu, verdict_u), (nv, verdict_v) = (weighted_norm_series(term.u, dual_space(e), cfg),
                                            weighted_norm_series(term.v, f, cfg))
        verdicts = (verdict_u, verdict_v)
        norms.append(float("inf") if "diverged" in verdicts else
                     float("nan") if "inconclusive" in verdicts else nu * nv)
    if len(norms) == 1 and not np.isnan(norms[0]):
        return ContinuityCertificate(op.describe(), e, f, norms[0],
                                     CERT_FAILED if np.isinf(norms[0]) else CERT_EXACT,
                                     cfg.symbol_probe)
    upper = float("inf") if not np.all(np.isfinite(norms)) else float(sum(norms))
    return replace(_certify_by_truncation(op, e, f, cfg), upper_bound=upper)


def _ranksum_cases():
    """(label, function building the operator, family): torus-delta and
    torus-comb-4 on their family and on torus-w1, ranksum-decaying on
    bounded-scale and on torus-delta's family."""
    w1 = ScaleFamily.from_json(str(SPECS / "torus-w1.json"))
    bounded = ScaleFamily.from_json(str(DATA / "bounded-scale.json"))
    cases = [(f"{name} on {label}", lambda name=name: BUILDERS[name]().operator, family)
             for name in ("torus-delta", "torus-comb-4")
             for label, family in (("its family", registry()[name].family), ("torus-w1", w1))]
    decaying = lambda: operator_from_json(str(DATA / "ranksum-decaying.json"))
    return cases + [("ranksum-decaying on bounded-scale", decaying, bounded),
                    ("ranksum-decaying on torus-delta's family", decaying,
                     registry()["torus-delta"].family)]


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("case", range(6))
def test_ranksum_certificates_equal_the_one_pair_rule(monkeypatch, case, adjoint):
    label, build, family = _ranksum_cases()[case]
    pairs = family.admissible_pairs()
    if adjoint:  # the adjoint on the dual pairs, as the duality pass asks
        pairs = [(family.dual_of(f), family.dual_of(e)) for e, f in pairs]
    fresh = (lambda: build().adjoint()) if adjoint else build
    with monkeypatch.context() as patched:
        patched.setattr(RankSum, "_weighted_factors", _stacked_factors)
        op = fresh()
        want = [_one_pair_ranksum_certificate(op, e, f, CFG) for e, f in pairs]
    got = certify_pairs(fresh(), pairs, CFG)
    assert len(got) == len(pairs)
    for cert, ref in zip(got, want):
        assert _same(cert, ref), (label, adjoint, cert.e.label, cert.f.label)
    one_at_a_time = fresh()
    for (e, f), ref in zip(pairs, want):
        assert _same(certify(one_at_a_time, e, f, CFG), ref), (label, adjoint, e.label, f.label)


def test_a_ranksum_scan_sums_each_factor_series_once(monkeypatch):
    # the scan-ranksum round: torus-comb-4 (four factors, u is v) and
    # torus-delta (one) on W_-1..1, whose three rungs are each other's duals;
    # one series per pair and factor side took 6 * (8 + 2) = 60
    w1 = ScaleFamily.from_json(str(SPECS / "torus-w1.json"))
    summed, series = [], operators.weighted_norm_series

    def counting(fn, space, cfg):
        summed.append((fn, space))
        return series(fn, space, cfg)

    monkeypatch.setattr(operators, "weighted_norm_series", counting)
    grid = GridSpec.parse("-1.2:0.8:2,0.5:0.5:1")
    for name in ("torus-comb-4", "torus-delta"):
        scan = resolvent.union_spectrum_scan(BUILDERS[name]().operator, w1, grid, CFG)
        assert scan.duality_checked and not scan.duality_mismatches
    assert len(summed) == len(set(summed)) == 15


def _comb_and_decaying():
    return [BUILDERS["torus-comb-4"]().operator,
            operator_from_json(str(DATA / "ranksum-decaying.json"))]


def test_held_factors_are_read_only_prefixes_of_one_evaluation():
    for op in _comb_and_decaying():
        rep = op.rep
        for first, then in ((4096, 97), (97, 4096)):
            rep._held.clear()
            rep.factors(op.basis, first)
            for n in (then, first):
                m = modes(op.basis, n).astype(float)
                for held, side in zip(rep.factors(op.basis, n), ("v", "u")):
                    fresh = np.stack([np.asarray(getattr(t, side)(m), dtype=complex)
                                      for t in rep.terms], axis=1)
                    assert held.shape == fresh.shape and held.tobytes() == fresh.tobytes()
                    with pytest.raises(ValueError):
                        held[0, 0] = 0
            assert len(rep._held[op.basis][0]) == 4096
            for array in rep._held[op.basis]:
                with pytest.raises(ValueError):
                    array[-1, 0] = 0
    # every comb term has u is v: one stack serves both sides
    comb = BUILDERS["torus-comb-4"]().operator.rep
    v, u = comb.factors(Basis.FOURIER, 256)
    assert np.shares_memory(v, u)


@pytest.mark.parametrize("n", [97, 256, 4096])
def test_weighted_factors_from_held_stacks_are_bit_for_bit_the_stacked_ones(n):
    torus = registry()["torus-delta"].family
    pairs = [(torus.space_at(1), torus.space_at(-1)), (torus.space_at(0), torus.space_at(0)),
             (torus.space_at(-2), torus.space_at(3))]
    for op in _comb_and_decaying():
        rep = op.rep
        for e, f in pairs:
            kernel = op.kernel(e, f, CFG)
            for lam in (0.0, 0.3 + 0.5j):
                want = _stacked_factors(rep, kernel, lam, n)
                for a, b in zip(rep._weighted_factors(kernel, lam, n), want):
                    assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), (n, e.label)
            want = rep._triangle_bound(*_stacked_factors(rep, kernel, 0.0, n))
            assert repr(rep.norm_estimate(kernel, n)) == repr(want)


def test_an_adjoint_holds_its_own_factors():
    op = operator_from_json(str(DATA / "ranksum-decaying.json"))
    adj = op.adjoint()
    v_adj, u_adj = adj.rep.factors(op.basis, 512)
    assert op.basis not in op.rep._held and adj.rep._held is not op.rep._held
    v, u = op.rep.factors(op.basis, 512)
    assert v_adj.tobytes() == u.tobytes() and u_adj.tobytes() == v.tobytes()
    assert not np.shares_memory(v_adj, u) and not np.shares_memory(u_adj, v)


def test_real_diagonal_symbols_are_probed_in_real_arithmetic(monkeypatch):
    probed, probe_sups = [], operators.probe_sups

    def recording(basis, probe, pairs, growth_threshold, symbol=None):
        probed.append(symbol.dtype)
        return probe_sups(basis, probe, pairs, growth_threshold, symbol)

    monkeypatch.setattr(operators, "probe_sups", recording)
    w1 = ScaleFamily.from_json(str(SPECS / "torus-w1.json"))
    skew = operator_from_spec({"basis": "fourier", "rep": {
        "type": "diagonal", "symbol": "(0.5+2*i)*n/(abs(n)+1)"}})
    entry = registry()["diagonal[1/(n+1)]"]
    certify_pairs(entry.operator, entry.family.admissible_pairs(), CFG)
    certify_pairs(skew, w1.admissible_pairs(), CFG)
    assert probed == [np.dtype(float), np.dtype(complex)]


def test_an_entry_that_reads_only_some_variables_has_the_full_shape():
    # "1" reads neither n nor m, "1/(1+n^2)" only the row mode n
    band = operator_from_json(DATA / "banded-constant-entry.json").matrix(4)
    assert np.array_equal(band, np.tri(4, k=1) * np.tri(4, k=1).T)
    dense = operator_from_spec({"basis": "hermite",
                                "rep": {"type": "dense", "entry": "1/(1+n^2)"}}).matrix(3)
    assert dense.shape == (3, 3)
    assert np.array_equal(dense, np.repeat(1.0 / (1.0 + np.arange(3.0) ** 2), 3).reshape(3, 3))


def _complex_from(mode: float):
    # 1 at modes below ``mode`` in modulus, and i from it on
    return lambda m: np.where(np.abs(np.asarray(m, dtype=float)) >= mode, 1j, 1.0)


def _band(complex_row) -> Banded:
    # entries 1, and i in the row modes where ``complex_row`` holds
    return Banded(1, lambda mr, mc: np.where(complex_row(np.asarray(mr)), 1j, 1.0)
                  * np.ones(np.broadcast(mr, mc).shape))


def _ranksum(u_mode: float, v_mode: float) -> RankSum:
    real = lambda m: np.ones(np.shape(m))
    return RankSum((RankSumTerm(real, real),
                    RankSumTerm(_complex_from(u_mode), _complex_from(v_mode))))


# (representation, basis, real?) at the default configuration. A diagonal's
# scans read max(symbol_probe, max_n) = 2^17 slots; a band's read its diagonals
# over modes 0..2048 (the outer modes of max_n = 2048) and at the limit probes'
# tail slots, the last of which is 2^17 - 1 (one more row on its upper
# diagonal); a rank sum's read max_n + section_margin = 1032 slots, modes
# -516..516 on the Fourier basis
REALNESS = {
    "complex symbol": (Diagonal(lambda m: np.full(np.shape(m), 1 + 1j)), Basis.HERMITE, False),
    "symbol complex from slot 100000": (Diagonal(_complex_from(100_000)), Basis.HERMITE, False),
    "symbol complex past the probe": (Diagonal(_complex_from(1 << 17)), Basis.HERMITE, True),
    "complex band": (operator_from_json(DATA / "hermitian-band.json").rep, Basis.HERMITE, False),
    # 1903 lies among the outer modes of max_n, and no tail slot is 1902, 1903 or 1904
    "band complex in row 1903 only": (_band(lambda m: m == 1903), Basis.HERMITE, False),
    "band complex from row 100000": (_band(lambda m: m >= 100_000), Basis.HERMITE, False),
    "band complex past the tail": (_band(lambda m: m > 1 << 17), Basis.HERMITE, True),
    "complex point factors": (registry()["torus-comb-4"].operator.rep, Basis.FOURIER, False),
    "u complex from |mode| 500": (_ranksum(500, 600), Basis.FOURIER, False),
    "v complex from |mode| 500": (_ranksum(600, 500), Basis.FOURIER, False),
    "factors complex from |mode| 600": (_ranksum(600, 600), Basis.FOURIER, True),
}


@pytest.mark.parametrize("case", sorted(REALNESS))
def test_a_representation_is_real_exactly_when_the_entries_a_scan_reads_are(case):
    rep, basis, real = REALNESS[case]
    assert rep.real(basis, CFG) is real


def test_the_gallery_is_real_but_for_the_comb_and_dense_generators_are_never_real():
    assert [name for name, entry in registry().items()
            if not entry.operator.rep.real(entry.operator.basis, CFG)] == ["torus-comb-4"]
    dense = operator_from_json(DATA / "dense-toeplitz.json")
    assert dense.rep.real(dense.basis, CFG) is False
