"""Regular points, defects, solves, Neumann continuation, identities, scans."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from interspec.config import GridSpec, RunConfig
from interspec.errors import (NeumannRadiusError, NotCertifiedError,
                              NotInResolventError, NotRegularError)
from interspec import operators, resolvent, sections
from interspec.operators import (CERT_FAILED, Banded, CoefficientOperator, ContinuityCertificate,
                                 DenseGenerator, Representation, certify,
                                 certify_pairs, operator_from_json, operator_from_spec)
from interspec.resolvent import (STATUS_NO_EXTENSION, STATUS_NOT_REGULAR, STATUS_RESOLVENT,
                                 CellStatus, _agree, _decide, _limit_status, _resolvent_solve,
                                 branch_report, defect_number, equivalent,
                                 neumann_continue, point_status, regular_point,
                                 resolvent_identity_residuals, resolvent_solve,
                                 solver_handle, truncated_resolvent_apply,
                                 union_spectrum_scan)
from interspec.gallery import (BUILDERS, hermite_position, registry, scale_generator_entry,
                               torus_delta, torus_multiplication)
from interspec.sections import PairKernel
from interspec.spaces import (Basis, CoefficientVector, ScaleFamily,
                              hilbert_scale_family, norm, sequence_power_family,
                              sobolev_torus_family)

CFG = RunConfig()


@pytest.fixture(scope="module")
def scale():
    return hilbert_scale_family("n+1", range(-3, 4))


def diag_op(symbol):
    return operator_from_spec({"basis": "hermite",
                               "rep": {"type": "diagonal", "symbol": symbol},
                               "symmetric": True, "name": f"diag {symbol}"})


def right_shift():
    def entry(mr, mc):
        return 1.0 * (np.asarray(mr) == np.asarray(mc) + 1)
    return CoefficientOperator(Basis.HERMITE, Banded(1, entry, source="shift"),
                               name="right shift")


# -- regular points ---------------------------------------------------------


def test_regular_point_off_spectrum(scale):
    report = regular_point(diag_op("n+1"), -1.0, scale.space_at(1), scale.space_at(0), CFG)
    # brute oracle: inf over n <= 10^6 of |n+2| w_0 / w_1
    n = np.arange(10 ** 6, dtype=float)
    oracle = np.min(np.abs(n + 2) / np.sqrt(1 + (n + 1) ** 2))
    assert report.stabilized
    assert report.c_low == pytest.approx(oracle, rel=2 * CFG.rel_tol)
    assert report.c_low > 0
    assert report.d_high >= report.c_low


def test_regular_point_at_eigenvalue(scale):
    report = regular_point(diag_op("n+1"), 1.0, scale.space_at(1), scale.space_at(0), CFG)
    assert report.c_low == 0.0


def test_regular_point_zero_operator(scale):
    report = regular_point(diag_op("0"), 0.0, scale.space_at(1), scale.space_at(0), CFG)
    assert report.c_low == 0.0


def test_regular_point_requires_certificate(scale):
    with pytest.raises(NotCertifiedError):
        regular_point(diag_op("n+1"), 0.5j, scale.space_at(0), scale.space_at(1), CFG)


# -- defect numbers ---------------------------------------------------------


def test_defect_zero_for_adjacent_rung(scale):
    report = defect_number(diag_op("n+1"), 1j, scale.space_at(1), scale.space_at(0), CFG)
    assert report.defect == 0
    # oracle: the inverse symbol 1/(n+1-i) is bounded on the pair
    n = np.arange(4096, dtype=float)
    assert np.all(np.isfinite(1.0 / (n + 1 - 1j)))


def test_defect_unstable_when_overshooting(scale):
    status = point_status(diag_op("n+1"), 1j, scale.space_at(2), scale.space_at(0), CFG)
    # the singular value census grows with truncation: never a resolvent claim
    assert status.status in (STATUS_NOT_REGULAR, "inconclusive")
    assert status.status != STATUS_RESOLVENT


def test_defect_one_for_right_shift(scale):
    h0 = scale.space_at(0)
    report = defect_number(right_shift(), 0.0, h0, h0, CFG)
    assert report.defect == 1


def test_defect_requires_regularity(scale):
    with pytest.raises(NotRegularError):
        defect_number(diag_op("n+1"), 1.0, scale.space_at(1), scale.space_at(0), CFG)


def test_defect_monotone_under_family_moves(scale):
    # enlarge F (smaller index) or shrink E (larger index): census never drops;
    # run at a fixed truncation with a loose census threshold to see the counts
    loose = CFG.with_updates(defect_eps=1e-3, scan_n0=512)
    from interspec.sections import PairKernel
    op = diag_op("n+1")
    lam = 0.5j

    def census(ke, kf):
        kernel = PairKernel(op, scale.space_at(ke), scale.space_at(kf), loose)
        return kernel.summary(lam, 512).census

    for kf in (0, -1, -2):
        assert census(2, kf - 1) >= census(2, kf)
    for ke in (1, 2):
        assert census(ke, 0) <= census(ke + 1, 0)


# -- solves -----------------------------------------------------------------


def test_solve_diagonal_is_exact_symbol_inverse(scale):
    op = diag_op("n+1")
    rng = np.random.default_rng(3)
    eta = CoefficientVector(Basis.HERMITE, rng.normal(size=64) + 1j * rng.normal(size=64))
    result = resolvent_solve(op, -1.0, scale.space_at(1), scale.space_at(0), eta, CFG)
    n = result.vector.n
    a = np.arange(n) + 1.0
    expected = eta.padded(n) / (a - (-1.0))
    assert np.array_equal(result.vector.coeffs, expected)
    assert result.e_norm == norm(result.vector, scale.space_at(1)) > 0


def test_solve_rejects_spectrum_point(scale):
    op = diag_op("n+1")
    eta = CoefficientVector.unit(Basis.HERMITE, 0, 8)
    with pytest.raises(NotInResolventError) as err:
        resolvent_solve(op, 1.0, scale.space_at(1), scale.space_at(0), eta, CFG)
    assert err.value.report is not None


def test_truncated_solve_position_operator_vs_dense_lu(scale):
    # oracle: dense LU factorization at truncation 512
    pos = hermite_position().operator
    lam = 2j
    n = 512
    rng = np.random.default_rng(11)
    eta = CoefficientVector(Basis.HERMITE, rng.normal(size=n) * np.exp(-np.arange(n) / 8.0))
    xi = truncated_resolvent_apply(pos, lam, eta, n)
    mat = pos.matrix(n).astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    lu = scipy.linalg.lu_factor(mat)
    oracle = scipy.linalg.lu_solve(lu, eta.coeffs)
    assert np.allclose(xi.coeffs, oracle, atol=1e-12)
    residual = mat @ xi.coeffs - eta.coeffs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(eta.coeffs)


def _dense_lu_oracle(x, lam, eta, n):
    mat = x.matrix(n).astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(mat), eta.padded(n))


@pytest.mark.parametrize("make,basis,n", [
    (lambda: torus_multiplication("cos(t)").operator, Basis.FOURIER, 128),
    (lambda: torus_multiplication("cos(t)").operator, Basis.FOURIER, 512),
    (lambda: torus_delta().operator, Basis.FOURIER, 128),
    (lambda: operator_from_spec({"basis": "hermite", "rep": {
        "type": "dense", "entry": "1/(1+(n-m)^2)"}}), Basis.HERMITE, 128),
], ids=["cos-128", "cos-512", "ranksum", "dense"])
def test_truncated_solve_routes_match_dense_lu(make, basis, n):
    x = make()
    lam = 0.3 + 0.5j
    eta = CoefficientVector(basis, np.random.default_rng(5).normal(size=n) + 0j)
    xi = truncated_resolvent_apply(x, lam, eta, n)
    assert np.allclose(xi.coeffs, _dense_lu_oracle(x, lam, eta, n), rtol=0, atol=1e-12)


def test_solver_handle_factors_once_per_truncation(monkeypatch):
    factored = []

    def counting(fn):
        def wrapper(mat, *args, **kwargs):
            factored.append((fn.__name__, mat.shape[0]))
            return fn(mat, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting(scipy.sparse.linalg.splu))
    monkeypatch.setattr(scipy.linalg, "lu_factor", counting(scipy.linalg.lu_factor))
    torus = sobolev_torus_family(range(-1, 2))
    e, f = torus.space_at(1), torus.space_at(0)
    probes = [CoefficientVector.unit(Basis.FOURIER, j, CFG.equiv_probes)
              for j in range(CFG.equiv_probes)]
    for x, route in ((torus_multiplication("cos(t)").operator, "splu"),
                     (torus_delta().operator, "lu_factor")):
        factored.clear()
        status = CellStatus(STATUS_RESOLVENT, witness_n=256)
        handle = solver_handle(x, 0.3 + 0.5j, e, f, CFG, status=status)
        sizes = {handle(p).n for p in probes}
        assert [name for name, _ in factored] == [route] * len(factored)
        visited = [size for _, size in factored]
        assert len(visited) == len(set(visited)) >= 1
        assert sizes <= set(visited)


def test_resolvent_solve_deep_witness_stays_sparse():
    # a dense 8192 x 8192 complex matrix alone would take 1 GiB
    entry = scale_generator_entry()
    e, f = entry.family.space_at(1), entry.family.space_at(0)
    eta = CoefficientVector.unit(entry.operator.basis, 0, 256)
    status = CellStatus(STATUS_RESOLVENT, witness_n=8192)
    tracemalloc.start()
    try:
        result = resolvent_solve(entry.operator, -5.0 + 0.5j, e, f, eta, CFG, status=status)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.witness_n == 8192
    assert peak < 64 * 2 ** 20


TORUS_W1 = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specs" / "torus-w1.json"


def _block_and_vector_solves(x, lam, e, f, eta, status):
    """Each column of ``eta`` solved in one block by `_resolvent_solve`, and its
    `SolveResult` one by one, after checking that each column stops at the
    same truncation both ways."""
    block = _resolvent_solve(x, lam, e, f, eta, CFG, status, {}, {})
    singles = [resolvent_solve(x, lam, e, f, CoefficientVector(x.basis, eta[:, j].copy()), CFG,
                               status=status) for j in range(eta.shape[1])]
    assert [n for _, _, n in block] == [r.witness_n for r in singles]
    return [(vec, single) for (vec, _, _), single in zip(block, singles)]


def _probes_and_noise(rows, noisy, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(rows, noisy)) + 1j * rng.normal(size=(rows, noisy))
    return np.hstack([np.eye(rows, dtype=complex), noise])


def test_block_solve_is_one_vector_solves_bit_for_bit_on_a_diagonal_operator():
    entry = scale_generator_entry()
    e, f = entry.family.space_at(1), entry.family.space_at(0)
    for lam in (3.3 + 0.6j, -1.0):
        status = point_status(entry.operator, lam, e, f, CFG)
        assert status.status == STATUS_RESOLVENT
        eta = _probes_and_noise(CFG.equiv_probes, 8, 21)
        for one, single in _block_and_vector_solves(entry.operator, lam, e, f, eta, status):
            assert np.array_equal(one.coeffs, single.vector.coeffs)


@pytest.mark.parametrize("make,family", [
    (lambda: torus_multiplication("cos(t)").operator,
     lambda: ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))),
    (lambda: torus_delta().operator, lambda: sobolev_torus_family(range(-1, 2))),
], ids=["splu", "lu_factor"])
def test_block_solve_is_one_vector_solves_on_factored_routes(make, family):
    x, family = make(), family()
    e, f = family.space_at(1), family.space_at(0)
    status = CellStatus(STATUS_RESOLVENT, witness_n=256)
    eta = _probes_and_noise(CFG.equiv_probes, 8, 22)
    for one, single in _block_and_vector_solves(x, 0.3 + 0.5j, e, f, eta, status):
        gap = np.max(np.abs(one.coeffs - single.vector.coeffs))
        assert gap <= 1e-13 * np.max(np.abs(single.vector.coeffs))


def test_block_solve_columns_stop_at_their_own_truncations():
    # from n = 8 the probes nearest the edge of the section need more doublings
    x = torus_multiplication("cos(t)").operator
    torus = sobolev_torus_family(range(-1, 2))
    e, f = torus.space_at(1), torus.space_at(0)
    status = CellStatus(STATUS_RESOLVENT, witness_n=8)
    pairs = _block_and_vector_solves(x, 2.5 + 0.5j, e, f, _probes_and_noise(8, 2, 23), status)
    assert len({single.witness_n for _, single in pairs}) > 1
    for one, single in pairs:
        assert np.array_equal(one.coeffs, single.vector.coeffs)


def test_branch_report_solves_each_probe_once_per_branch(monkeypatch):
    # the branches share each truncation's factorization and probe solutions; a
    # solve per branch took k factorizations and k * 64 column solves, and the
    # pairwise route solved every probe twice per comparison: 2 * C(k, 2) * 64
    factored, solved = [], []

    class CountingLU:
        def __init__(self, mat, *args, **kwargs):
            factored.append(mat.shape[0])
            self.lu = splu(mat, *args, **kwargs)

        def solve(self, b):
            solved.append(b.shape)
            return self.lu.solve(b)

    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu", CountingLU)
    family = ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))
    report = branch_report(torus_multiplication("cos(t)").operator, family, 0.3 + 0.5j, CFG)
    assert len(report.pair_labels) == 3 and all(same for _, _, same in report.equivalences)
    assert len(factored) == 1  # every column met its contract at the first truncation
    assert len(solved) == CFG.equiv_probes
    assert all(shape == (factored[0],) for shape in solved)


# -- Neumann continuation ----------------------------------------------------


def test_neumann_matches_symbol_inverse(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    cont = neumann_continue(op, -1.0, -1.05, e, f, CFG)
    probe = CoefficientVector.unit(Basis.HERMITE, 2, 64)
    got = cont(probe)
    a = np.arange(got.n) + 1.0
    exact = probe.padded(got.n) / (a - (-1.05))
    assert np.max(np.abs(got.coeffs - exact)) <= 1e-9


def test_neumann_center_is_plain_resolvent(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    cont = neumann_continue(op, -1.0, -1.0, e, f, CFG)
    assert cont.terms == 0
    probe = CoefficientVector.unit(Basis.HERMITE, 0, 16)
    direct = resolvent_solve(op, -1.0, e, f, probe, CFG).vector
    got = cont(probe)
    n = max(got.n, direct.n)
    assert np.allclose(got.padded(n), direct.padded(n), atol=1e-13)


def test_neumann_near_radius_edge(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    lam0 = -1.0 + 0.5j
    probe_radius = neumann_continue(op, lam0, lam0, e, f, CFG).radius
    lam = lam0 - 0.99j * probe_radius
    cont = neumann_continue(op, lam0, lam, e, f, CFG)
    assert np.isfinite(cont.terms) and cont.terms > 10
    probe = CoefficientVector.unit(Basis.HERMITE, 1, 64)
    got = cont(probe)
    direct = resolvent_solve(op, lam, e, f, probe, CFG).vector
    n = max(got.n, direct.n)
    assert np.max(np.abs(got.padded(n) - direct.padded(n))) <= 10 * CFG.series_tol


def test_neumann_radius_enforced(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    radius = neumann_continue(op, -1.0, -1.0, e, f, CFG).radius
    with pytest.raises(NeumannRadiusError):
        neumann_continue(op, -1.0, -1.0 - 1.5 * radius * 1j, e, f, CFG)


def test_neumann_requires_embedding(scale):
    op = diag_op("n+1")
    with pytest.raises(NotCertifiedError):
        neumann_continue(op, -1.0, -1.05, scale.space_at(0), scale.space_at(1), CFG)


# -- resolvent identities ----------------------------------------------------


def test_identities_same_operator_and_point(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    res = resolvent_identity_residuals(op, op, 1j, 1j, e, f, CFG, n=128)
    assert res.difference == 0.0
    assert res.displacement == 0.0


def test_identities_diagonal_pair(scale):
    x = diag_op("n+1")
    y = diag_op("n+2")
    e, f = scale.space_at(1), scale.space_at(0)
    res = resolvent_identity_residuals(x, y, 1j, 2j, e, f, CFG, n=256)
    assert res.passed
    assert res.difference <= 1e-12
    assert res.displacement <= 1e-12


# -- equivalence -------------------------------------------------------------


def test_equivalent_self(scale):
    op = diag_op("n+1")
    handle = solver_handle(op, -1.0, scale.space_at(1), scale.space_at(0), CFG)
    assert equivalent(handle, handle, CFG, norm_space=scale.finest)


def test_equivalent_nested_pairs(scale):
    # resolvents from nested pairs restrict to the same operator
    op = diag_op("n+1")
    h1 = solver_handle(op, -1.0, scale.space_at(1), scale.space_at(0), CFG)
    h2 = solver_handle(op, -1.0, scale.space_at(2), scale.space_at(1), CFG)
    assert equivalent(h1, h2, CFG, norm_space=scale.finest)


def _pairwise_report(x, family, lam, cfg):
    """The branch report computed pair by pair, as `branch_report` once did:
    `equivalent` over `solver_handle`s, solving every probe again per comparison."""
    handles, labels = [], []
    pairs = family.admissible_pairs()
    certify_pairs(x, pairs, cfg)  # in one pass; `point_status` reads them held
    for e, f in pairs:
        status = point_status(x, lam, e, f, cfg)
        if status.status == STATUS_RESOLVENT:
            handles.append(solver_handle(x, lam, e, f, cfg, status=status))
            labels.append(f"{e.label}->{f.label}")
    return labels, [[i, j, equivalent(handles[i], handles[j], cfg, norm_space=family.finest)]
                    for i in range(len(handles)) for j in range(i + 1, len(handles))]


def test_branch_report_matches_the_pairwise_route_on_the_gallery():
    compared = 0
    for name, entry in registry().items():
        for lam in (0.3 + 0.5j, 2.5 + 0.5j):
            report = branch_report(entry.operator, entry.family, lam, CFG)
            if len(report.pair_labels) < 2:
                continue
            labels, equivalences = _pairwise_report(entry.operator, entry.family, lam, CFG)
            assert (report.pair_labels, report.equivalences) == (labels, equivalences), (name, lam)
            compared += len(equivalences)
    assert compared >= 100


def test_branches_that_stop_at_different_truncations_are_compared(monkeypatch):
    # forged statuses: E = F branches start at n = 256 and the others at 512, so
    # their columns stop at different truncations and the report reaches `_agree`;
    # near the spectrum of cos(t) a truncation at 256 differs from one at 512
    def forged(x, lam, e, f, cfg):
        return CellStatus(STATUS_RESOLVENT, witness_n=256 if e.index == f.index else 512)

    compared = []
    monkeypatch.setattr(resolvent, "point_status", forged)
    monkeypatch.setitem(globals(), "point_status", forged)
    monkeypatch.setattr(resolvent, "_agree",
                        lambda *args: compared.append(1) or _agree(*args))
    family = ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))
    x, lam = torus_multiplication("cos(t)").operator, 0.3 + 0.1j
    report = branch_report(x, family, lam, CFG)
    assert compared
    labels, equivalences = _pairwise_report(x, family, lam, CFG)
    assert (report.pair_labels, report.equivalences) == (labels, equivalences)
    assert len(labels) == 6
    assert {same for _, _, same in equivalences} == {True, False}


def test_shared_solutions_are_each_branchs_own_solves():
    # the 256 branch doubles to 512 and reads the columns the first branch solved
    family = ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))
    x, lam = torus_multiplication("cos(t)").operator, 0.3 + 0.1j
    probes, factors, solved = np.eye(CFG.equiv_probes, dtype=complex), {}, {}
    for (e, f), n in zip(family.admissible_pairs(), (512, 256, 512, 256)):
        status = CellStatus(STATUS_RESOLVENT, witness_n=n)
        shared = _resolvent_solve(x, lam, e, f, probes, CFG, status, factors, solved)
        assert shared == _resolvent_solve(x, lam, e, f, probes, CFG, status, {}, {})
    assert {256, 512} <= set(solved)


def test_equivalent_and_held_blocks_share_one_rule_on_a_perturbed_column(scale):
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    handle = solver_handle(op, -1.0, e, f, CFG)
    probes = [CoefficientVector.unit(Basis.HERMITE, j, CFG.equiv_probes)
              for j in range(CFG.equiv_probes)]
    held = np.column_stack([handle(p).coeffs for p in probes])
    for size, agrees in ((1e-13, True), (1e-6, False)):
        def perturbed(vec, size=size):
            out = handle(vec).coeffs.copy()
            out[0] += size if vec.coeffs[5] == 1 else 0.0  # only probe 5 is perturbed
            return CoefficientVector(vec.basis, out)
        blocks = np.column_stack([perturbed(p).coeffs for p in probes])
        columns = _agree(held, blocks, CFG, scale.finest)
        assert columns.tolist() == [equivalent(handle, perturbed, CFG, [p], scale.finest)
                                    for p in probes]
        assert columns.tolist() == [agrees if j == 5 else True for j in range(len(probes))]
        assert equivalent(handle, perturbed, CFG, norm_space=scale.finest) is agrees


# -- held kernels -------------------------------------------------------------


def test_coloring_then_reporting_walks_each_pair_once(monkeypatch):
    # the report reads the held certificates and each pair's summaries at lambda
    reductions = []
    reduce = sections._band_tridiagonal
    monkeypatch.setattr(sections, "_band_tridiagonal",
                        lambda ab: reductions.append(len(ab[0])) or reduce(ab))
    family = ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))
    pairs, lam, runs = family.admissible_pairs(), -1.2 + 0.5j, []
    for report in (False, True):
        x = torus_multiplication("cos(t)").operator
        reductions.clear()
        statuses = [repr(point_status(x, lam, e, f, CFG)) for e, f in pairs]
        if report:
            assert len(branch_report(x, family, lam, CFG).pair_labels) == 3
        runs.append((statuses, list(reductions)))
    assert runs[0] == runs[1] and runs[0][1]


def test_a_report_at_another_lambda_certifies_and_probes_nothing(monkeypatch):
    family = ScaleFamily.from_spec(json.loads(TORUS_W1.read_text()))
    x = torus_multiplication("cos(t)").operator
    branch_report(x, family, -1.2 + 0.5j, CFG)

    def forbidden(*args, **kwargs):
        raise AssertionError("a held pair was certified or probed again")

    monkeypatch.setattr(Representation, "certify_pairs", forbidden)
    monkeypatch.setattr(operators, "_certify_by_truncation", forbidden)
    monkeypatch.setattr(sections.LimitProfile, "probe", forbidden)
    report = branch_report(x, family, 0.7 + 0.5j, CFG)
    monkeypatch.undo()
    assert report == branch_report(torus_multiplication("cos(t)").operator, family,
                                   0.7 + 0.5j, CFG)


def test_a_held_fake_certificate_decides_its_pair(scale):
    x = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    assert point_status(x, -1.0, e, f, CFG).status == STATUS_RESOLVENT
    fake = ContinuityCertificate(x.describe(), e, f, float("inf"), CERT_FAILED, 1)
    x.kernel(e, f, CFG).cert = fake
    assert certify(x, e, f, CFG) is fake
    assert point_status(x, -1.0, e, f, CFG) == CellStatus(STATUS_NO_EXTENSION, witness_n=1)
    with pytest.raises(NotCertifiedError):
        regular_point(x, -1.0, e, f, CFG)
    # the fake is held for its pair and configuration only
    assert point_status(x, -1.0, scale.space_at(2), e, CFG).status == STATUS_RESOLVENT
    assert point_status(x, -1.0, e, f, CFG.with_updates(scan_n_max=512)).status == \
        STATUS_RESOLVENT
    assert point_status(diag_op("n+1"), -1.0, e, f, CFG).status == STATUS_RESOLVENT


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_cold_and_warm_statuses_are_equal(name):
    # a warm operator answers after other lambda; a cold one is built for one lambda
    cfg = CFG.with_updates(scan_n_max=512)
    warm = BUILDERS[name]()
    pairs, lams = warm.family.admissible_pairs(), (0.3 + 0.5j, 2.5 + 0.5j)

    def statuses(x, lam):
        return [repr(point_status(x, lam, e, f, cfg)) for e, f in pairs]

    statuses(warm.operator, 0.5)
    warm_rows = [statuses(warm.operator, lam) for lam in lams + lams[:1]]
    cold_rows = [statuses(BUILDERS[name]().operator, lam) for lam in lams]
    assert warm_rows == cold_rows + cold_rows[:1]


# -- scans --------------------------------------------------------------------


def test_scan_marks_decay_spectrum():
    fam = sequence_power_family(range(-2, 3))
    op = diag_op("1/(n+1)")
    grid = GridSpec(-0.2, 1.1, 14, -0.1, 0.1, 3)
    smap = union_spectrum_scan(op, fam, grid, CFG)
    points = np.array([1.0 / (k + 1) for k in range(10 ** 5)] + [0.0])
    for li, lam in enumerate(smap.lambdas):
        dist = float(np.min(np.abs(lam - points)))
        if dist > 5e-3:
            assert smap.union_resolvent[li], f"lambda={lam} should be covered"
        if dist == 0.0:
            assert not smap.union_resolvent[li]
    assert smap.duality_checked and not smap.duality_mismatches


def test_scan_only_adjacent_pairs_carry_resolvent(scale):
    op = diag_op("n+1")
    grid = GridSpec(0.0, 4.0, 9, -0.5, 0.5, 3)
    smap = union_spectrum_scan(op, scale, grid, CFG)
    for pi, label in enumerate(smap.pair_labels):
        ke, kf = label.split("->")
        adjacent = int(ke.split("_")[1]) - 1 == int(kf.split("_")[1])
        has_resolvent = any(c.status == STATUS_RESOLVENT for c in smap.cells[pi])
        if has_resolvent:
            assert adjacent, f"pair {label} wrongly carries resolvent cells"


def test_scan_empty_family():
    fam = ScaleFamily(Basis.HERMITE, ())
    smap = union_spectrum_scan(diag_op("n+1"), fam, GridSpec(0, 1, 3), CFG)
    assert smap.pair_labels == []
    assert all(not u for u in smap.union_resolvent)


def test_scan_openness_proxy(scale):
    # a resolvent cell with margin c keeps its close neighbors off not-regular
    op = diag_op("n+1")
    grid = GridSpec(-1.0, 0.0, 11, 0.0, 0.0, 1)
    smap = union_spectrum_scan(op, scale, grid,
                               CFG.with_updates(duality_check=False))
    pi = smap.pair_labels.index("H_1->H_0")
    for li, lam in enumerate(smap.lambdas):
        cell = smap.cells[pi][li]
        if cell.status != STATUS_RESOLVENT:
            continue
        for lj, mu in enumerate(smap.lambdas):
            if 0 < abs(mu - lam) < cell.c_low / 2:
                assert smap.cells[pi][lj].status != STATUS_NOT_REGULAR


def test_scan_duality_boolean_symmetry_banded(scale):
    pos = hermite_position().operator
    grid = GridSpec(-1.0, 1.0, 3, 0.3, 0.9, 2)
    cfg = CFG.with_updates(scan_n0=64, scan_n_max=512)
    smap = union_spectrum_scan(pos, scale, grid, cfg)
    assert smap.duality_checked
    assert smap.duality_mismatches == []


# spectrum points of diagonal[1/(n+1)] (0.5, 1.0, and 0 in the closure), points
# within 1e-3 of them, and points off the spectrum
ROW = [0.0, 0.5, 1.0, 0.5 + 7e-4j, 1.0 - 1e-3, 8e-4 - 6e-4j, 0.3 + 0.5j, -1.2 + 0.2j, 2.5]


def _row_against_points(x, family, lams, cfg):
    for e, f in family.admissible_pairs():
        row = _decide(x, lams, e, f, cfg)[0]
        points = [point_status(x, lam, e, f, cfg) for lam in lams]
        assert [repr(c) for c in row] == [repr(c) for c in points], (e.label, f.label)


@pytest.mark.parametrize("name", sorted(registry()))
def test_a_row_decision_is_its_points_decisions(name):
    # banded walks stop at 512 to keep the test short; diagonal ones still
    # reach 32768
    entry = registry()[name]
    _row_against_points(entry.operator, entry.family, ROW, CFG.with_updates(scan_n_max=512))


@pytest.mark.parametrize("name", ["diagonal[1/(n+1)]", "scale-generator"])
def test_a_long_diagonal_row_spans_blocks_and_deep_walks(name):
    # 300 points fill more than one block at every truncation, and the points
    # near 0 walk to 32768, where a block holds one lambda
    entry = registry()[name]
    rng = np.random.default_rng(7)
    lams = ROW + list(rng.uniform(-0.05, 1.5, 291) + 1j * rng.uniform(-0.05, 0.05, 291))
    _row_against_points(entry.operator, entry.family, lams, CFG)


def test_a_row_of_dense_and_small_banded_sections_is_its_points_decisions():
    # at n <= 96 banded and rank-sum kernels take the dense route
    x = _dense(lambda mr, mc: (mr == mc) / (mr + 1.0) + 0.01 / (1.0 + mr + mc), "dense decay")
    _row_against_points(x, sequence_power_family(range(0, 2)), ROW[::3], SMALL)
    for name in ("multiplier[cos(t)]", "torus-comb-4"):
        entry = registry()[name]
        _row_against_points(entry.operator, entry.family, ROW[:6], SMALL)


def test_a_symmetric_scan_probes_each_limit_profile_once(monkeypatch):
    # the duality pass of a self-adjoint operator reuses the primal kernels
    entry = registry()["diagonal[1/(n+1)]"]
    probes = []
    probe = sections.LimitProfile.probe.__func__

    def counted(cls, *args):
        probes.append(args)
        return probe(cls, *args)

    monkeypatch.setattr(sections.LimitProfile, "probe", classmethod(counted))
    smap = union_spectrum_scan(entry.operator, entry.family,
                               GridSpec.parse("-0.5:1.5:4,-0.5:0.5:3"), CFG)
    assert smap.duality_checked and not smap.duality_mismatches
    assert 0 < len(probes) <= len(smap.pair_labels)


@pytest.mark.parametrize("grid", ["-0.5:1.5:12,-0.5:0.5:9", "-0.02:0.02:5,-0.02:0.02:3"])
def test_a_diagonal_scan_allocates_a_few_mib(grid):
    # blocks of at most 2^15 entries, nothing kept per lambda: the held symbol
    # (2 MiB at the default probe) is most of the peak
    entry = registry()["diagonal[1/(n+1)]"]
    tracemalloc.start()
    try:
        union_spectrum_scan(entry.operator, entry.family, GridSpec.parse(grid), CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_weighted_sections_share_singular_values_under_duality(scale):
    # conjugate transpose with swapped inverted weights: same singular values
    from interspec.spaces import dual_space
    op = hermite_position().operator
    e, f = scale.space_at(1), scale.space_at(0)
    lam = 0.7 + 0.2j
    n = 96
    mat = op.matrix(n).astype(complex)
    mat[np.arange(n), np.arange(n)] -= lam
    primal = mat * f.weights(n)[:, None] / e.weights(n)[None, :]
    adj = op.matrix(n).conj().T
    adj[np.arange(n), np.arange(n)] -= np.conj(lam)
    dualm = adj * dual_space(e).weights(n)[:, None] / dual_space(f).weights(n)[None, :]
    sp = np.linalg.svd(primal, compute_uv=False)
    sd = np.linalg.svd(dualm, compute_uv=False)
    assert np.max(np.abs(sp - sd)) <= 1e-12 * sp[0]


def test_analyticity_cauchy_integral_proxy(scale):
    # discrete Cauchy integral around a resolvent point reproduces the center
    op = diag_op("n+1")
    e, f = scale.space_at(1), scale.space_at(0)
    center = -1.0 + 0.0j
    radius = 0.3
    k = 64
    probe = CoefficientVector(Basis.HERMITE,
                              np.exp(-np.arange(48) / 4.0).astype(complex))
    angles = 2.0 * np.pi * np.arange(k) / k
    total = np.zeros(CFG.n0, dtype=complex)
    for theta in angles:
        lam = center + radius * np.exp(1j * theta)
        vec = resolvent_solve(op, lam, e, f, probe, CFG).vector
        # trapezoid rule for (2 pi i)^-1 contour integral of R(lam)/(lam-center)
        weight = radius * np.exp(1j * theta) / (lam - center) / k
        total += weight * vec.padded(CFG.n0)
    direct = resolvent_solve(op, center, e, f, probe, CFG).vector.padded(CFG.n0)
    assert np.max(np.abs(total - direct)) <= 1e-6


def test_branch_report_equivalclasses(scale):
    op = diag_op("n+1")
    report = branch_report(op, scale, -1.0, CFG)
    assert len(report.pair_labels) >= 2
    assert all(flag for _, _, flag in report.equivalences)


def test_point_mass_never_resolvent():
    entry = torus_delta()
    cfg = CFG.with_updates(scan_n0=64, scan_n_max=512, duality_check=False)
    grid = GridSpec(-2.0, 1.0, 4, 0.0, 1.0, 2)
    smap = union_spectrum_scan(entry.operator, entry.family, grid, cfg)
    assert all(not u for u in smap.union_resolvent)


# -- the limit-operator rule --------------------------------------------------


@pytest.mark.parametrize("ke,kf", [(3, 2), (-2, -3)])
def test_compact_position_pairs_are_not_regular_at_default_config(scale, ke, kf):
    # S(lambda) is compact here (entries ~ m^-1/2), yet its sections plateau at
    # 2.3163e-4 for n = 512..2048 and only fall further past scan_n_max
    status = point_status(hermite_position().operator, 0.3 + 0.5j, scale.space_at(ke),
                          scale.space_at(kf), CFG)
    assert status.status == STATUS_NOT_REGULAR
    # the other two views answer from the same decision
    assert not regular_point(hermite_position().operator, 0.3 + 0.5j, scale.space_at(ke),
                             scale.space_at(kf), CFG).regular
    with pytest.raises(NotRegularError):
        defect_number(hermite_position().operator, 0.3 + 0.5j, scale.space_at(ke),
                      scale.space_at(kf), CFG)


def test_compact_cell_is_decided_without_any_section(monkeypatch):
    entry = registry()["multiplier[cos(t)]"]
    x, e, f = entry.operator, entry.family.space_at(1), entry.family.space_at(0)
    certify(x, e, f, CFG)  # held: a banded certificate takes sections
    calls = []
    monkeypatch.setattr(PairKernel, "summary", lambda *args, **kw: calls.append("summary"))
    monkeypatch.setattr(sections, "_band_tridiagonal", lambda ab: calls.append("reduction"))
    status = point_status(x, 0.3 + 0.5j, e, f, CFG)
    assert calls == []
    assert status.status == STATUS_NOT_REGULAR and status.c_low == 0.0
    assert math.isnan(status.d_high) and not status.stabilized
    assert status.witness_n == CFG.symbol_probe


def test_slowly_decaying_diagonal_gets_no_verdict_and_runs_its_sections(monkeypatch):
    def entry(mr, mc):
        return (np.asarray(mr) == np.asarray(mc)) / np.log(np.asarray(mc, dtype=float) + 2.0)

    x = CoefficientOperator(Basis.HERMITE, Banded(0, entry), name="1/log(m+2) diagonal")
    s = sequence_power_family(range(-1, 2)).space_at(0)
    bound, error = x.kernel(s, s, CFG).limit_profile.bound(0.0)
    assert bound > 0 and error > 0  # no decay verdict: the limit is read, with its error bar
    summarized = []
    summary = PairKernel.summary

    def counted(self, lam, n):
        summarized.append(n)
        return summary(self, lam, n)

    monkeypatch.setattr(PairKernel, "summary", counted)
    point_status(x, 0.0, s, s, CFG)
    assert summarized[:2] == [CFG.scan_n0, 2 * CFG.scan_n0]


def test_nan_entries_in_the_probed_tail_decide_nothing():
    def entry(mr, mc):
        mc = np.asarray(mc, dtype=float)
        return (np.asarray(mr) == mc) * np.where(mc < 10_000, 1.0, np.nan)

    x = CoefficientOperator(Basis.HERMITE, Banded(0, entry), name="NaN past 10000")
    s = sequence_power_family(range(-1, 2)).space_at(0)
    assert point_status(x, 2.0, s, s, CFG).status == STATUS_RESOLVENT


def test_limit_rule_agrees_with_its_dual_on_the_gallery():
    # criterion 12's points; the rule needs certificates but no section
    rng = np.random.default_rng(12345 + 3)
    lams = [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(10)]
    decided = 0
    for name, entry in sorted(registry().items()):
        family = entry.family
        if not family.closed_under_duality:
            continue
        adj = entry.operator.adjoint()
        for e, f in family.admissible_pairs():
            if not certify(entry.operator, e, f, CFG).certified:
                continue
            ed, fd = family.dual_of(f), family.dual_of(e)
            assert certify(adj, ed, fd, CFG).certified, (name, e.label, f.label)
            kernel, kernel_dual = entry.operator.kernel(e, f, CFG), adj.kernel(ed, fd, CFG)
            for lam in lams:
                [primal] = _limit_status(kernel, np.array([lam]))
                [dual] = _limit_status(kernel_dual, np.array([lam.conjugate()]))
                assert (primal is None) == (dual is None), (name, e.label, f.label, lam)
                if primal is not None:
                    decided += 1
                    assert primal.c_low == pytest.approx(dual.c_low, rel=1e-12, abs=1e-300)
    assert decided > 0


# -- one decision, three views ------------------------------------------------

SMALL = CFG.with_updates(n0=32, scan_n0=32, n_max=256, scan_n_max=256, dense_cap=256)


def _dense(entry, name):
    return CoefficientOperator(Basis.HERMITE, DenseGenerator(entry), name=name)


def _rule_cells():
    """One cell per section rule: (operator, lambda, E, F, config, expected
    (status, defect, witness_n, stabilized))."""
    h = hilbert_scale_family("n+1", range(-3, 4))
    s0 = sequence_power_family(range(-1, 2)).space_at(0)
    log_diagonal = CoefficientOperator(
        Basis.HERMITE, Banded(0, lambda mr, mc: 1.0 / np.log(np.asarray(mc, dtype=float) + 2.0)),
        name="1/log(m+2) diagonal")
    return {
        "vanishing c_low": (diag_op("n+1"), 1.0, h.space_at(1), h.space_at(0), CFG,
                            ("not-regular", None, 256, True)),
        "vanishing surj_low + census": (right_shift(), 0.0, h.space_at(0), h.space_at(0), CFG,
                                        ("regular-defect", 1, 512, True)),
        "sustained shrink": (_dense(lambda mr, mc: (mr == mc) / (mc + 1.0), "1/(m+1) dense"),
                             0.0, s0, s0, SMALL, ("not-regular", None, 256, False)),
        "stabilized + census": (_dense(lambda mr, mc: 1.0 * (mr == mc), "dense identity"),
                                0.5, s0, s0, SMALL, ("resolvent", 0, 64, True)),
        "inconclusive": (log_diagonal, 0.0, s0, s0, CFG, ("inconclusive", None, 2048, False)),
    }


@pytest.mark.parametrize("rule", list(_rule_cells()))
def test_each_section_rule_colors_its_cell(rule):
    x, lam, e, f, cfg, expected = _rule_cells()[rule]
    status = point_status(x, lam, e, f, cfg)
    assert (status.status, status.defect, status.witness_n, status.stabilized) == expected


@pytest.mark.parametrize("rule", list(_rule_cells()))
def test_regular_point_and_defect_number_are_views_of_point_status(rule):
    x, lam, e, f, cfg, _ = _rule_cells()[rule]
    status = point_status(x, lam, e, f, cfg)
    report = regular_point(x, lam, e, f, cfg)
    assert (report.c_low, report.d_high, report.witness_n, report.stabilized) == \
        (status.c_low, status.d_high, status.witness_n, status.stabilized)
    assert report.regular == (status.defect is not None)
    if status.defect is None:
        with pytest.raises(NotRegularError):
            defect_number(x, lam, e, f, cfg)
    else:
        assert defect_number(x, lam, e, f, cfg).defect == status.defect


def test_regular_point_keeps_to_the_certificates_of_the_rank_sum_comb():
    # compact pairs are decided by their limit operators, before the rank-sum
    # section norm (a triangle-inequality bound) is compared with the certificate
    cfg = RunConfig.from_json(str(pathlib.Path(__file__).resolve().parents[1]
                                  / "bench" / "specs" / "smoke-config.json"))
    entry = registry()["torus-comb-4"]
    lams = list(GridSpec.parse("-1.5:1.5:3,0.5:0.5:1").points())
    checked = 0
    for e, f in entry.family.admissible_pairs():
        if not certify(entry.operator, e, f, cfg).certified:
            continue
        for lam in lams:
            regular_point(entry.operator, lam, e, f, cfg)
            checked += 1
    assert checked == 27


def test_every_resolvent_precondition_names_lambda_pair_and_status(scale):
    x, e, f = diag_op("n+1"), scale.space_at(1), scale.space_at(0)
    eta = CoefficientVector.unit(Basis.HERMITE, 0, 8)
    calls = [lambda: resolvent_solve(x, 1.0, e, f, eta, CFG),
             lambda: neumann_continue(x, 1.0, 1.05, e, f, CFG),
             lambda: resolvent_identity_residuals(x, x, 1.0, -1.0, e, f, CFG)]
    for call in calls:
        with pytest.raises(NotInResolventError) as err:
            call()
        assert str(err.value) == "lambda=1.0 has status 'not-regular' on (H_1, H_0)"
        assert err.value.report.status == STATUS_NOT_REGULAR


def test_banded_adjoint_is_the_conjugate_transpose_and_scans_with_no_mismatch():
    # every banded gallery operator is symmetric: the right shift's duality
    # pass is the one that decides rows of `Banded.adjoint`
    root = pathlib.Path(__file__).resolve().parents[1]
    x = operator_from_json(str(root / "tests" / "data" / "right-shift.json"))
    mat = x.matrix(16)
    assert not np.array_equal(mat, mat.conj().T)
    assert np.array_equal(x.adjoint().matrix(16), mat.conj().T)
    cfg = RunConfig.from_json(str(root / "bench" / "specs" / "smoke-config.json"))
    smap = union_spectrum_scan(x, hermite_position().family,
                               GridSpec.parse("-1.5:1.5:7,-0.5:0.5:3"), cfg)
    assert smap.duality_checked and smap.duality_mismatches == []
    assert sum(c.status == "regular-defect" and c.defect == 1
               for row in smap.cells for c in row) == 36
