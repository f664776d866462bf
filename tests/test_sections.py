"""Sparse sections against dense blocks, and structured lower constants
against a dense SVD of the identical section."""

import pathlib
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from interspec import operators, sections
from interspec.config import GridSpec, RunConfig
from interspec.gallery import (hermite_position, registry, scale_generator_entry, torus_comb,
                               torus_delta, torus_multiplication)
from interspec.operators import Banded, certify, operator_from_json, operator_from_spec
from interspec.resolvent import (STATUS_NOT_REGULAR, STATUS_RESOLVENT, branch_report,
                                 defect_number, point_status, union_spectrum_scan)
from interspec.sections import (_DENSE_ALWAYS, LimitProfile, PairKernel, SectionSummary,
                                tail_slots)
from interspec.spaces import Basis, ScaleFamily, ScaleWeights, modes, slot_modes

CFG = RunConfig()
DATA = pathlib.Path(__file__).resolve().parent / "data"
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
    # W_4 -> W_2 has a non-constant weight ratio, so the route takes the
    # dense SVD of the square section, not the E = F reduction
    entry = torus_delta()
    x, e, f = entry.operator, entry.family.space_at(4), entry.family.space_at(2)
    lam, n = -2.0, 128
    assert n > _DENSE_ALWAYS  # served by the rank-sum route
    got = PairKernel(x, e, f, CFG).summary(lam, n).c_low
    mat = x.matrix(n).astype(complex) - lam * np.eye(n)
    mat = mat * f.weights(n)[:, None] / e.weights(n)[None, :]
    ref = np.linalg.svd(mat, compute_uv=False)[-1]
    assert abs(got - ref) <= 1e-6 * ref


def _dense_square_svdvals(x, e, f, lam, n):
    mat = x.matrix(n).astype(complex) - lam * np.eye(n)
    mat = mat * f.weights(n)[:, None] / e.weights(n)[None, :]
    return np.linalg.svd(mat, compute_uv=False)


def _dense_square_sigma_min(x, e, f, lam, n):
    return _dense_square_svdvals(x, e, f, lam, n)[-1]


# two terms with decaying complex vectors: the section norm stays O(1), so a dense
# SVD is a reference to ~1e-15 relative (the all-ones section of torus-delta
# has norm n, and a dense SVD of it is only good to ~2e-11 at n = 1024)
DECAYING_PAIR = operator_from_json(str(DATA / "ranksum-decaying.json"))


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
    got = PairKernel(x, e, f, CFG).summary(lam, n).c_low
    ref = _dense_square_sigma_min(x, e, f, lam, n)
    assert abs(got - ref) <= 1e-9 * ref


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("lam", [0.3 + 0.5j, 1.5 + 0.05j])
@pytest.mark.parametrize("n", [256, 1024])
def test_constant_shift_route_is_exact_without_dense_svd(monkeypatch, index, lam, n):
    # E = F: the shifted diagonal is constant, and the k x k reduction of
    # the Woodbury inverse gives the answer in O(n r^2)
    def forbidden(*args, **kwargs):
        raise AssertionError("the constant-shift route must not reach this")

    space = torus_delta().family.space_at(index)
    kernel = PairKernel(DECAYING_PAIR, space, space, CFG)
    monkeypatch.setattr(operators, "_svdvals", forbidden)
    got = kernel.summary(lam, n).c_low
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
    got = PairKernel(x, space, space, CFG).summary(lam, n).c_low
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


BOUNDED_SCALE = ScaleFamily.from_json(str(DATA / "bounded-scale.json"))


@pytest.mark.parametrize("index", [1, 0], ids=["H1-H0", "H0-H0"])
def test_ranksum_point_status_at_a_shifted_point_matches_dense_svd(index):
    # the bounded family's weight ratios have nonzero limits, so the limit rule
    # leaves these cells to the sections: H_1 -> H_0 takes the dense SVD of the
    # square section, H_0 -> H_0 the E = F reduction
    e, f = BOUNDED_SCALE.space_at(index), BOUNDED_SCALE.space_at(0)
    lam = 0.5j
    status = point_status(DECAYING_PAIR, lam, e, f, CFG)
    assert (status.status, status.witness_n) == (STATUS_RESOLVENT, 512)
    ref = _dense_square_sigma_min(DECAYING_PAIR, e, f, lam, status.witness_n)
    assert abs(status.c_low - ref) <= 1e-12 * ref


# -- banded route: one band reduction per Gram matrix ---------------------------


def _lapack_band(ab):
    """The band eigvals_banded should see: ``ab.real`` when its imaginary part
    is all zero (dsbevx), as the route reduces such bands with dsbtrd, and
    ``ab`` itself otherwise (zhbevx)."""
    return ab if np.any(ab.imag) else ab.real


def _reference_extremes(ab):
    """(sigma_min, sigma_max) of a Gram band from two eigvals_banded calls, as the
    banded route computed them before it reduced each Gram matrix once."""
    m = ab.shape[1]
    ab = _lapack_band(ab)
    lo = scipy.linalg.eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))
    hi = scipy.linalg.eigvals_banded(ab, lower=True, select="i", select_range=(m - 1, m - 1))
    return float(np.sqrt(max(lo[0], 0.0))), float(np.sqrt(max(hi[0], 0.0)))


def _reference_count(ab, bound):
    return len(scipy.linalg.eigvals_banded(_lapack_band(ab), lower=True, select="v",
                                           select_range=(-1.0, bound)))


def _reference_banded_summary(kernel, lam, n):
    # the bands are the route's own (`Banded.gram_bands`); only their eigenvalues
    # come from eigvals_banded here
    tall, wide = kernel.x.rep.gram_bands(kernel, lam, n)
    c_low, d_high = _reference_extremes(tall)
    surj_low, surj_high = _reference_extremes(wide)
    census = _reference_count(wide, (kernel.cfg.defect_eps * surj_high) ** 2)
    return SectionSummary(n, c_low, d_high, surj_low, census)


BANDED_LAMBDAS = (0.0, 0.5, 0.3 + 0.5j, -1.2 + 0.5j)
BANDED_NS = (128, 512, 1024)


def _banded_cases():
    # every gallery pair; lambda and n rotate with the pair index, so each
    # family meets every lambda and every n
    for name in ("position", "multiplier[cos(t)]", "multiplier[2+cos(t)]"):
        entry = registry()[name]
        for k, (e, f) in enumerate(entry.family.admissible_pairs()):
            yield pytest.param(entry.operator, e, f, BANDED_LAMBDAS[k % 4], BANDED_NS[k % 3],
                               id=f"{name}-{e.label}-{f.label}")


@pytest.mark.parametrize("x, e, f, lam, n", _banded_cases())
def test_banded_summary_equals_separate_eigvals_banded_calls(x, e, f, lam, n):
    kernel = PairKernel(x, e, f, CFG)
    assert kernel.summary(lam, n) == _reference_banded_summary(kernel, lam, n)


# entrywise bound on the assembled Gram band, in units of eps (|S|^H |S|) per
# diagonal of S: each entry sums at most 2b + 1 nonzero products, each rounded
# in its multiply and in the sum, on the route and in the dense reference alike
BAND_ENTRY_C = 4
# bound on each squared singular value, in units of n eps d_high^2
SQUARED_SV_C = 1.0


def _dense_mode_order_section(x, e, f, lam, rows, cols):
    """W_F (X - lambda) W_E^{-1} on the first rows x cols slots, built densely from
    ``x.matrix`` in slot order and then permuted into mode order."""
    mat = x.matrix(rows, cols).astype(complex)
    d = np.arange(min(rows, cols))
    mat[d, d] -= lam
    mat = mat * f.weights(rows)[:, None] / e.weights(cols)[None, :]
    by_mode = [np.argsort(modes(x.basis, count), kind="stable") for count in (rows, cols)]
    return mat[np.ix_(*by_mode)]


def _accuracy_cases():
    for name in ("position", "multiplier[cos(t)]", "multiplier[2+cos(t)]"):
        entry = registry()[name]
        for k, (e, f) in enumerate(entry.family.admissible_pairs()):
            for n in (128, 512):
                yield pytest.param(entry.operator, e, f, BANDED_LAMBDAS[k % 4], n,
                                   id=f"{name}-{e.label}-{f.label}-{n}")


@pytest.mark.parametrize("x, e, f, lam, n", _accuracy_cases())
def test_banded_gram_band_and_constants_match_dense(x, e, f, lam, n):
    eps = np.finfo(float).eps
    b = x.rep.bandwidth
    kernel = PairKernel(x, e, f, CFG)
    got = kernel.summary(lam, n)
    rows = n + max(x.position_bandwidth(), 1)
    sv = {}
    for tall, ab in zip((True, False), x.rep.gram_bands(kernel, lam, n)):
        s_mat = _dense_mode_order_section(x, e, f, lam, *((rows, n) if tall else (n, rows)))
        a = s_mat if tall else s_mat.conj().T  # the band is A^H A
        ref, scale = a.conj().T @ a, np.abs(a).T @ np.abs(a)
        assert ab.shape == (2 * b + 1, n)  # bandwidth 2b in mode order, on either basis
        band = np.zeros((n, n), dtype=complex)
        for d in range(ab.shape[0]):
            assert not np.any(ab[d, n - d:])  # past the end of each column
            band[np.arange(d, n), np.arange(n - d)] = ab[d, :n - d]
        lower = np.tril_indices(n)
        assert np.all(np.abs(band - ref)[lower]
                      <= BAND_ENTRY_C * (2 * b + 1) * eps * scale[lower])
        sv[tall] = np.linalg.svd(s_mat, compute_uv=False)
    tol = SQUARED_SV_C * n * eps * got.d_high ** 2
    assert abs(got.c_low ** 2 - sv[True][-1] ** 2) <= tol
    assert abs(got.d_high ** 2 - sv[True][0] ** 2) <= tol
    assert abs(got.surj_low ** 2 - sv[False][-1] ** 2) <= tol


@pytest.mark.parametrize("name", ["position", "multiplier[cos(t)]"])
def test_a_banded_summary_evaluates_each_band_entry_once(name):
    # the 2 b + 1 diagonals of S are evaluated once, over the outer modes, and
    # both Gram views read them: one call of ``entry`` per diagonal
    calls = []

    def entry(mr, mc):
        calls.append(np.shape(mr))
        return (2.0 + 0.5j * (mr - mc)) / (1.0 + np.abs(mr) + np.abs(mc))

    family = registry()[name].family
    b, basis = 2, family.basis
    x = operators.CoefficientOperator(basis, Banded(b, entry))
    kernel = PairKernel(x, family.space_at(1), family.space_at(0), CFG)
    n = 2 * _DENSE_ALWAYS + 1
    x.rep.summary(kernel, 0.3 + 0.5j, n)
    assert len(calls) == 2 * b + 1
    calls.clear()
    x.rep.norm_estimate(kernel, n)
    assert len(calls) <= 2 * b + 1


@pytest.mark.parametrize("lam", [0.0, 0.3 + 0.5j, 1.2])
def test_one_sided_band_summary_matches_dense(lam):
    # the right shift is bidiagonal, so both Gram bands have an all-zero outer
    # row, which the reduction drops
    x = operator_from_json(str(DATA / "right-shift.json"))
    h0 = registry()["position"].family.space_at(0)
    n, kernel = 512, PairKernel(x, h0, h0, CFG)
    for ab in x.rep.gram_bands(kernel, lam, n):
        assert not np.any(ab[-1])
    got = kernel.summary(lam, n)
    rows = n + max(x.position_bandwidth(), 1)
    tall = np.linalg.svd(_dense_mode_order_section(x, h0, h0, lam, rows, n), compute_uv=False)
    wide = np.linalg.svd(_dense_mode_order_section(x, h0, h0, lam, n, rows), compute_uv=False)
    assert got.c_low == pytest.approx(tall[-1], rel=1e-10)
    assert got.d_high == pytest.approx(tall[0], rel=1e-10)
    assert got.census == int(np.sum(wide < CFG.defect_eps * wide[0]))


def _check_prescaled_band(name, lam, scale, f_index=0):
    # max|ab| outside [RMIN, RMAX]: zhbevx (complex band) and dsbevx (real
    # band, reduced by dsbtrd) scale the band before reducing it
    entry = registry()[name]
    kernel = PairKernel(entry.operator, entry.family.space_at(1),
                        entry.family.space_at(f_index), CFG)
    ab = kernel.x.rep.gram_bands(kernel, lam, 256)[0] * scale
    spectrum = sections._GramSpectrum(ab)
    assert spectrum.sigma != 1.0
    lo, hi = _reference_extremes(ab)
    assert (spectrum.singular_value(0), spectrum.singular_value(-1)) == (lo, hi)
    bound = lo * hi
    count = spectrum.count_up_to(bound)
    assert 0 < count < ab.shape[1]
    assert count == _reference_count(ab, bound)
    return ab


@pytest.mark.parametrize("scale", [1e-150, 1e80])
def test_gram_spectrum_prescales_like_zhbevx(scale):
    # W_1 -> W_1 at complex lambda: the weights keep the band complex
    assert np.any(_check_prescaled_band("multiplier[cos(t)]", 0.3 + 0.5j, scale, 1).imag)


@pytest.mark.parametrize("scale", [1e-150, 1e80])
def test_real_gram_spectrum_prescales_like_dsbevx(scale):
    # a real operator at real lambda: the band is real and takes dsbtrd
    assert not np.any(_check_prescaled_band("position", 0.3, scale).imag)


def _count_reductions(monkeypatch):
    sizes = []
    reduce = sections._band_tridiagonal

    def counted(ab):
        sizes.append(ab.shape[1])
        return reduce(ab)

    monkeypatch.setattr(sections, "_band_tridiagonal", counted)
    return sizes


@pytest.mark.parametrize("symbol", ["cos(t)", "2+cos(t)"])
def test_real_symbol_bands_take_no_complex_reduction(monkeypatch, symbol):
    # the Fourier coefficients of a real even symbol are exactly real, so the
    # lambda = 0 certificate bands are real, and so are both Gram bands of
    # W_0 -> W_0 at any lambda, since (X - lambda)^H (X - lambda) equals
    # X^2 - 2 Re(lambda) X + |lambda|^2
    entry = torus_multiplication(symbol)
    x = entry.operator
    table = x.rep.entry(np.arange(-3, 4), np.zeros(7, dtype=int))
    assert np.any(table.real) and not np.any(table.imag)
    calls = []
    zhbtrd = sections._ZHBTRD
    monkeypatch.setattr(sections, "_ZHBTRD", lambda *args: calls.append(1) or zhbtrd(*args))
    w0, w1 = entry.family.space_at(0), entry.family.space_at(1)
    assert certify(x, w1, w1, CFG).certified
    assert point_status(x, 0.3 + 0.5j, w0, w0, CFG).status == STATUS_RESOLVENT
    assert calls == []


def test_banded_point_status_reduces_each_gram_matrix_once(monkeypatch):
    entry = registry()["multiplier[cos(t)]"]
    x, e = entry.operator, entry.family.space_at(1)
    certify(x, e, e, CFG)  # held: its reductions are not counted
    sizes = _count_reductions(monkeypatch)
    status = point_status(x, 0.3 + 0.5j, e, e, CFG)
    assert status.status == STATUS_RESOLVENT  # reached census_pair with census 0
    counts = Counter(sizes)
    assert len(counts) >= 2 and set(counts.values()) == {2}  # tall and wide, per n


def test_equal_tall_and_wide_bands_are_reduced_once(monkeypatch):
    # a real symmetric multiplier on W_0 -> W_0: S S^H equals S^H S bit for bit
    entry = registry()["multiplier[cos(t)]"]
    x, w0, lam, n = entry.operator, entry.family.space_at(0), 0.3 + 0.5j, 512
    kernel = PairKernel(x, w0, w0, CFG)
    tall_band, wide_band = x.rep.gram_bands(kernel, lam, n)
    assert np.array_equal(wide_band, tall_band)
    tall = wide = sections._GramSpectrum(tall_band)  # what two reductions give
    census = wide.count_up_to((CFG.defect_eps * wide.singular_value(-1)) ** 2)
    apart = SectionSummary(n, tall.singular_value(0), tall.singular_value(-1),
                           wide.singular_value(0), census)
    sizes = _count_reductions(monkeypatch)
    assert x.rep.summary(kernel, lam, n) == apart
    assert sizes == [n]


def test_banded_census_comes_from_the_summary_reductions(monkeypatch):
    # one reduction per view gives the constants and the census, and a summary
    # asked for again is the held one
    entry = registry()["position"]
    x, e, f = entry.operator, entry.family.space_at(1), entry.family.space_at(0)
    lam, n = 0.5 + 0.5j, 512
    kernel = PairKernel(x, e, f, CFG)
    sizes = _count_reductions(monkeypatch)
    got = kernel.summary(lam, n)
    assert sizes == [n, n]
    assert kernel.summary(lam, n) is got and sizes == [n, n]
    monkeypatch.undo()
    assert got == _reference_banded_summary(kernel, lam, n)


def _torus_delta_kernel():
    entry = torus_delta()
    e, f = entry.family.space_at(1), entry.family.space_at(0)
    return entry.operator, e, f, PairKernel(entry.operator, e, f, CFG)


def _count_svds(monkeypatch):
    shapes = []
    svdvals = operators._svdvals
    monkeypatch.setattr(operators, "_svdvals", lambda mat: shapes.append(mat.shape) or svdvals(mat))
    return shapes


def test_ranksum_census_counts_over_the_svd_of_the_lower_constant(monkeypatch):
    # E != F: one dense SVD of the square section gives c_low and the census
    x, e, f, kernel = _torus_delta_kernel()
    lam, n = 0.3 + 0.5j, 128
    shapes = _count_svds(monkeypatch)
    got = kernel.summary(lam, n)
    assert shapes == [(n, n)]
    monkeypatch.undo()
    sv = _dense_square_svdvals(x, e, f, lam, n)
    assert got.census == np.sum(sv < CFG.defect_eps * sv[0])
    assert abs(got.c_low - sv[-1]) <= 1e-9 * sv[-1]


CENSUS_LAMBDAS = (0.0, 0.3 + 0.5j, -1.2 + 0.5j, 1.5 + 0.05j, 2.0, -0.7, 0.5j)


def _constant_shift_cases():
    # every E = F pair of torus-delta and torus-comb-4 on their family and of
    # the decaying pair on the bounded family: all 7 lambda at n = 128, and
    # one lambda (rotating with the pair) at n = 512
    cases = [(name, entry.operator, entry.family) for name, entry in
             (("torus-delta", torus_delta()), ("torus-comb-4", torus_comb(4)))]
    cases.append(("decaying-pair", DECAYING_PAIR, BOUNDED_SCALE))
    k = 0
    for name, x, family in cases:
        for space in family.spaces:
            for lam in CENSUS_LAMBDAS:
                yield pytest.param(x, space, lam, 128, id=f"{name}-{space.label}-{lam}-128")
            yield pytest.param(x, space, CENSUS_LAMBDAS[k % 7], 512,
                               id=f"{name}-{space.label}-{CENSUS_LAMBDAS[k % 7]}-512")
            k += 1


@pytest.mark.parametrize("x, space, lam, n", _constant_shift_cases())
def test_constant_shift_census_equals_the_dense_census(x, space, lam, n):
    got = PairKernel(x, space, space, CFG).summary(lam, n)
    sv = _dense_square_svdvals(x, space, space, lam, n)
    assert got.census == np.sum(sv < CFG.defect_eps * sv[0])


def test_zero_shift_summary_takes_no_square_svd(monkeypatch):
    # lambda = 0: S = V U^H, and the census is n minus its rank, from the k x k
    # reduction; `test_constant_shift_route_is_exact_without_dense_svd` covers
    # lambda != 0
    x = torus_comb(4).operator
    space = torus_delta().family.space_at(1)
    n = 2 * _DENSE_ALWAYS
    shapes = _count_svds(monkeypatch)
    got = PairKernel(x, space, space, CFG).summary(0.0, n)
    assert shapes == []
    assert (got.c_low, got.census) == (0.0, n - len(x.rep.terms))


@pytest.mark.parametrize("name", ["position", "torus-delta", "scale-generator"])
def test_new_lambda_drops_the_memoized_summaries(name):
    entry = registry()[name]
    x, e, f = entry.operator, entry.family.space_at(1), entry.family.space_at(0)
    kernel = PairKernel(x, e, f, CFG)
    kernel.summary(0.3 + 0.5j, 256)
    got = kernel.summary(-1.2 + 0.5j, 256)
    assert got == PairKernel(x, e, f, CFG).summary(-1.2 + 0.5j, 256)


def test_defect_number_summarizes_each_truncation_once(monkeypatch):
    # regular_point and the two census summaries share one kernel
    entry = registry()["multiplier[cos(t)]"]
    x, e = entry.operator, entry.family.space_at(1)
    summarized = []
    banded_summary = Banded.summary

    def counted(rep, kernel, lam, n):
        summarized.append(n)
        return banded_summary(rep, kernel, lam, n)

    monkeypatch.setattr(Banded, "summary", counted)
    report = defect_number(x, 0.3 + 0.5j, e, e, CFG)
    assert report.defect == 0
    assert set(Counter(summarized).values()) == {1}


# -- limit profiles -----------------------------------------------------------


@pytest.mark.parametrize("lam", [0.3 + 0.5j, -1.2 + 0.5j, 2.0])
def test_cosine_limit_symbol_minimum_is_the_distance_to_its_range(lam):
    entry = registry()["multiplier[cos(t)]"]
    w0 = entry.family.space_at(0)
    bound, error = PairKernel(entry.operator, w0, w0, CFG).limit_profile.bound(lam)
    lam = complex(lam)
    assert error == 0.0
    assert abs(bound - abs(lam - min(max(lam.real, -1.0), 1.0))) <= 1e-12


@pytest.mark.parametrize("k", [-2, 0, 3])
def test_decaying_diagonal_limit_bound_is_the_shift(k):
    entry = registry()["diagonal[1/(n+1)]"]
    s = entry.family.space_at(k)
    profile = PairKernel(entry.operator, s, s, CFG).limit_profile
    for lam in (0.3 + 0.5j, -1.2, 0.0):
        assert profile.bound(lam) == (abs(lam), 0.0)


@pytest.mark.parametrize("name", ["torus-delta", "torus-comb-4"])
def test_point_masses_into_the_dual_rung_are_compact(name):
    entry = registry()[name]
    e, f = entry.family.space_at(1), entry.family.space_at(-1)
    profile = PairKernel(entry.operator, e, f, CFG).limit_profile
    for lam in (0.3 + 0.5j, -1.2 + 0.5j, 2.0):
        assert profile.bound(lam) == (0.0, 0.0)


def _constant_symbol_bound(profile, lam):
    """``LimitProfile.bound`` as it read before profiles kept their constant
    symbols: zero limits dropped on every call, then |sum_k L_k - lambda rho|."""
    best = (float("inf"), float("inf"))
    for offsets, limits, _, _, error, rho, rho_error in profile.directions:
        live = limits != 0
        assert int(np.max(np.abs(offsets[live]), initial=0)) == 0
        value = float(abs(np.sum(limits[live]) - lam * rho))
        err = float(error + abs(lam) * rho_error)
        if value + err < best[0] + best[1]:
            best = (value, err)
    return best


def test_constant_limit_symbols_are_read_without_a_grid(monkeypatch):
    hermite = scale_generator_entry().family
    power = registry()["diagonal[1/(n+1)]"].family
    torus = registry()["torus-delta"].family
    const = lambda c: (lambda m: np.full(np.shape(m), c, dtype=complex))
    nan_deep = lambda m: np.where(m > 40000, np.nan, 0.5 + 0.0 * m).astype(complex)
    cases = [
        (Basis.HERMITE, power.space_at(1), power.space_at(1), {0: lambda m: 1.0 / (m + 1.0)}),
        (Basis.HERMITE, power.space_at(2), power.space_at(-1), {}),  # compact: no limits
        (Basis.HERMITE, hermite.space_at(1), hermite.space_at(0), {0: lambda m: m + 1.0}),
        (Basis.FOURIER, torus.space_at(0), torus.space_at(0), {0: const(0.3 - 1.2j)}),
        (Basis.FOURIER, torus.space_at(1), torus.space_at(1),
         {-1: const(0.0), 0: const(-0.7 + 0.1j), 1: const(0.0)}),  # zero side diagonals
        (Basis.HERMITE, power.space_at(0), power.space_at(0), {0: nan_deep}),
    ]
    profiles = [LimitProfile.probe(basis, e, f, CFG, diagonals)
                for basis, e, f, diagonals in cases]
    assert all(width == 0 for p in profiles for _, _, width, *_ in p.directions)
    assert np.isnan(profiles[-1].directions[0][3])

    def no_grid(*args):
        raise AssertionError("a constant symbol needs no grid")

    monkeypatch.setattr(sections, "_symbol_min", no_grid)
    rng = np.random.default_rng(5)
    lams = [0.0, 1.0, -0.7 + 0.1j, 0.3 - 1.2j] + list(rng.normal(size=40) + 1j * rng.normal(size=40))
    for profile in profiles:
        for lam in lams:
            assert repr(profile.bound(lam)) == repr(_constant_symbol_bound(profile, lam))


@pytest.mark.parametrize("probe", [40, 1])
@pytest.mark.parametrize("name, status, witness_n", [
    ("multiplier[cos(t)]", STATUS_NOT_REGULAR, 2048),
    ("scale-generator", STATUS_RESOLVENT, 512),
])
def test_a_probe_with_no_deep_tail_gives_no_limit_bound(name, status, witness_n, probe):
    # short probes hold no sample past the deepest checkpoint (64), so no
    # direction reads a limit, and the cells on (E_0, E_-1) run their sections
    cfg = RunConfig(symbol_probe=probe)
    entry = registry()[name]
    e, f = entry.family.space_at(0), entry.family.space_at(-1)
    assert PairKernel(entry.operator, e, f, cfg).limit_profile.bound(0.5 + 0.5j) \
        == (float("inf"), float("inf"))
    got = point_status(entry.operator, 0.5 + 0.5j, e, f, cfg)
    assert (got.status, got.witness_n) == (status, witness_n)


def test_tail_slots_stay_below_the_probe():
    for probe in range(1, 65):
        slots = tail_slots(probe)
        assert len(slots) and 0 <= slots.min() and slots.max() < probe, probe


def test_tail_slots_of_probes_past_16_start_at_slot_16():
    for probe in [*range(17, 600), 4096, 40000, 1 << 17, (1 << 20) + 3]:
        first = max(16, probe >> 9)
        want = np.unique(np.rint(np.geomspace(
            first, probe - 1, 32 * max(1, int(np.log2(probe / first))))).astype(int))
        assert np.array_equal(tail_slots(probe), want), probe


def test_dense_generator_has_no_limit_profile():
    x = operator_from_spec({"basis": "hermite",
                            "rep": {"type": "dense", "entry": "1/(1+n+m)"}})
    s = registry()["diagonal[n+1]"].family.space_at(0)
    assert PairKernel(x, s, s, CFG).limit_profile is None


# -- held symbols and weights ------------------------------------------------------

HELD_ORDER = (7, 4096, 256, 32768, 1)


@pytest.mark.parametrize("make", [lambda: scale_generator_entry().operator.rep,
                                  lambda: registry()["diagonal[1/(n+1)]"].operator.rep,
                                  lambda: operator_from_spec({
                                      "basis": "fourier",
                                      "rep": {"type": "diagonal",
                                              "symbol": "1/(1+n^2) + i*sqrt(abs(n))"}}
                                  ).rep.adjoint()],
                         ids=["scale-generator", "decay", "complex-adjoint"])
def test_held_symbol_is_bit_identical_to_a_fresh_evaluation(make):
    rep = make()
    for basis in (Basis.HERMITE, Basis.FOURIER):
        for n in HELD_ORDER:
            with np.errstate(divide="ignore"):  # 1/(n+1) at Fourier mode -1
                fresh = np.asarray(rep.values(modes(basis, n).astype(float)), dtype=complex)
                held = rep.symbol(basis, n)
            assert np.array_equal(held, fresh), (basis, n)
    with pytest.raises(ValueError):
        rep.symbol(Basis.HERMITE, 8)[0] = 0.0


def _count_weight_evaluations(monkeypatch, below: int) -> list:
    counted = []
    weight = ScaleWeights.weight

    def counting(self, k, m):
        if np.size(m) < below:
            counted.append(np.size(m))
        return weight(self, k, m)

    monkeypatch.setattr(ScaleWeights, "weight", counting)
    return counted


def test_branch_report_evaluates_each_rung_weight_once_per_length(monkeypatch):
    # every handle's 64 probe solves take norms in the finest rung, and every
    # pair's sections read its two rungs: 10370 evaluations when each kernel
    # and each norm evaluated its own weights
    entry = scale_generator_entry()
    counted = _count_weight_evaluations(monkeypatch, CFG.symbol_probe)
    report = branch_report(entry.operator, entry.family, 3.3 + 0.6j, CFG)
    assert report.equivalences and all(same for _, _, same in report.equivalences)
    assert len(counted) < 200


def test_scan_holds_no_tail_probe_length_array():
    entry = scale_generator_entry()
    union_spectrum_scan(entry.operator, entry.family, GridSpec.parse("1.5:2.5:2,0.5:0.5:1"),
                        CFG)
    for space in entry.family:
        held = list(space._held.values())
        assert held and all(len(v) < CFG.symbol_probe for v in held), space.label


def test_tail_slots_are_held_read_only_per_probe_length():
    for probe in (40, 3000, 1 << 17):
        slots = tail_slots(probe)
        assert tail_slots(probe) is slots and not slots.flags.writeable
        assert np.array_equal(slots, tail_slots.__wrapped__(probe))
        assert tail_slots.__wrapped__(probe) is not slots
        with pytest.raises(ValueError):
            slots[0] = 0


@pytest.mark.parametrize("name", ["position", "multiplier[cos(t)]"])
def test_a_banded_norm_estimate_assembles_only_the_tall_band(monkeypatch, name):
    entry = registry()[name]
    x = entry.operator
    assembled, gram_band = [], operators.gram_band
    monkeypatch.setattr(operators, "gram_band", lambda d: assembled.append(d.shape) or gram_band(d))
    for e, f in entry.family.admissible_pairs():
        kernel = PairKernel(x, e, f, CFG)
        for n in (_DENSE_ALWAYS + 1, 512):
            assembled.clear()
            got = x.rep.norm_estimate(kernel, n)
            assert len(assembled) == 1, (e.label, f.label, n)
            tall, _ = x.rep.gram_bands(kernel, 0.0, n)
            assert repr(got) == repr(sections._GramSpectrum(tall).singular_value(-1))


def _profile_directions_per_offset(basis, e, f, cfg, diagonals):
    """The directions of `LimitProfile.probe` as it read when every offset k,
    0 included, evaluated f at m + k and rho evaluated f at m once more."""
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
            continue
        w_e = e.weight_at(m)
        limits = [sections._limit(f.weight_at(m + k) * np.asarray(diagonals[k](m), dtype=complex)
                                  / w_e, tails, cfg.growth_threshold) for k in ks]
        rho, rho_error = sections._limit(f.weight_at(m) / w_e, tails, cfg.growth_threshold)
        values = np.array([lim for lim, _ in limits], dtype=complex)
        live = values != 0
        width = int(np.max(np.abs(offsets[live]), initial=0))
        directions.append((offsets[live], values[live], width,
                           np.sum(values[live]) if width == 0 else None,
                           float(sum(err for _, err in limits)), rho, rho_error))
    return directions


@pytest.mark.parametrize("name", ["diagonal[1/(n+1)]", "scale-generator", "position",
                                  "multiplier[cos(t)]", "multiplier[2+cos(t)]"])
def test_a_limit_profile_evaluates_f_once_per_offset_and_direction(monkeypatch, name):
    entry = registry()[name]
    x = entry.operator
    weight_at, calls = sections.ScaleSpace.weight_at, []

    def counted(self, m):
        calls.append(self)
        return weight_at(self, m)

    for e, f in entry.family.admissible_pairs():
        monkeypatch.setattr(sections.ScaleSpace, "weight_at", counted)
        calls.clear()
        profile = x.rep.limit_profile(x, e, f, CFG)
        monkeypatch.setattr(sections.ScaleSpace, "weight_at", weight_at)
        bandwidth = getattr(x.rep, "bandwidth", 0)
        directions = 2 if x.basis is Basis.FOURIER else 1
        # e once and f once per offset, k = 0 and rho sharing one evaluation
        assert len(calls) == directions * (2 + 2 * bandwidth), (e.label, f.label)
        diagonals = ({0: x.rep.values} if bandwidth == 0 else
                     {k: lambda m, k=k: x.rep.entry(m + k, m) for k in range(-bandwidth, bandwidth + 1)})
        want = _profile_directions_per_offset(x.basis, e, f, CFG, diagonals)
        assert repr(profile.directions) == repr(tuple(want)), (e.label, f.label)
