"""Norms, duality, and embeddings of the weighted sequence spaces."""

import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interspec.errors import BasisMismatchError, FamilySpecError
from interspec.gallery import registry
from interspec.config import RunConfig
from interspec.spaces import (PROBE_BLOCK, Basis, CoefficientVector, ScaleFamily, ScaleSpace,
                              ScaleWeights,
                              dual_space, embedding_norm, exp_sqrt_pair, generator_from_spec,
                              hilbert_scale_family, intersection, modes, norm, pairing, running_sup,
                              sequence_power_family, sobolev_torus_family)


@pytest.fixture(scope="module")
def scale():
    return hilbert_scale_family("n+1", range(-4, 5))


def test_fourier_mode_interleaving():
    assert list(modes(Basis.FOURIER, 7)) == [0, 1, -1, 2, -2, 3, -3]
    assert list(modes(Basis.HERMITE, 4)) == [0, 1, 2, 3]


def test_norm_unit_coefficient(scale):
    v = CoefficientVector(Basis.HERMITE, np.array([1.0, 0.0, 0.0]))
    assert norm(v, scale.space_at(0)) == 1.0


def test_norm_two_term_torus_sobolev():
    w1 = sobolev_torus_family(range(-1, 2)).space_at(1)
    v = CoefficientVector(Basis.FOURIER, np.array([1.0, 1.0]))
    # weights (1+n^2)^(1/2) at modes 0 and 1
    assert norm(v, w1) == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_norm_basis_vector_in_first_rung(scale):
    # phi_3 truncated to 50 coefficients: only w_1(3) = (1 + 4^2)^(1/2) survives
    v = CoefficientVector.unit(Basis.HERMITE, 3, 50)
    assert norm(v, scale.space_at(1)) == pytest.approx(np.sqrt(17.0), rel=1e-15)


def test_norm_rejects_basis_mismatch(scale):
    v = CoefficientVector(Basis.FOURIER, np.array([1.0]))
    with pytest.raises(BasisMismatchError):
        norm(v, scale.space_at(0))


def test_dual_space_negates_index(scale):
    h2 = scale.space_at(2)
    assert dual_space(h2).index == Fraction(-2)
    w0 = sobolev_torus_family([0]).space_at(0)
    assert dual_space(w0) == w0


def test_dual_space_power_weights():
    sm = sequence_power_family(range(-3, 4)).space_at(3)
    dual = dual_space(sm)
    m = np.arange(64)
    assert np.array_equal(dual.weight_at(m), 1.0 / (1.0 + m) ** 3)


@given(st.integers(min_value=-6, max_value=6))
@settings(max_examples=13, deadline=None)
def test_duality_involution_exact(k):
    for gen in (ScaleWeights("diagonal", "n+1"), ScaleWeights("sequence-power")):
        space = ScaleSpace(Basis.HERMITE, Fraction(k), gen)
        again = dual_space(dual_space(space))
        assert again == space
        assert np.array_equal(again.weights(128), space.weights(128))


def test_duality_weights_exact_reciprocals(scale):
    up = scale.space_at(3).weights(200)
    down = scale.space_at(-3).weights(200)
    assert np.array_equal(down, 1.0 / up)


def test_embedding_norm_adjacent_rungs(scale):
    # sup over n of w_1/w_2; brute oracle over n <= 10^6
    n = np.arange(10**6, dtype=float)
    a = n + 1.0
    oracle = np.max(np.sqrt(1 + a**2) / np.sqrt(1 + a**4))
    got = embedding_norm(scale.space_at(2), scale.space_at(1))
    assert got == pytest.approx(oracle, rel=1e-9)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_embedding_norm_identity(scale):
    assert embedding_norm(scale.space_at(1), scale.space_at(1)) == 1.0


def test_embedding_norm_reverse_inclusion_fails():
    fam = sobolev_torus_family(range(-1, 2))
    assert embedding_norm(fam.space_at(0), fam.space_at(1)) == np.inf


def test_chain_monotonicity(scale):
    indices = range(-4, 5)
    for k in indices:
        for m in indices:
            value = embedding_norm(scale.space_at(k), scale.space_at(m))
            if k >= m:
                assert np.isfinite(value)
            else:
                assert value == np.inf


def test_norm_duality_inequality_and_equality(scale):
    rng = np.random.default_rng(7)
    e = scale.space_at(2)
    for _ in range(5):
        u = CoefficientVector(Basis.HERMITE, rng.normal(size=40) + 1j * rng.normal(size=40))
        v = CoefficientVector(Basis.HERMITE, rng.normal(size=40) + 1j * rng.normal(size=40))
        lhs = abs(pairing(u, v))
        rhs = norm(u, e) * norm(v, dual_space(e))
        assert lhs <= rhs * (1 + 1e-12)
    # equality witness: u_n = v_n / w_n^2 aligns the phases of the pairing
    v = CoefficientVector(Basis.HERMITE, rng.normal(size=40) + 1j * rng.normal(size=40))
    w = e.weights(40)
    u = CoefficientVector(Basis.HERMITE, v.coeffs / w**2)
    assert abs(pairing(u, v)) == pytest.approx(norm(u, e) * norm(v, dual_space(e)),
                                               rel=1e-12)


def test_family_sorted_and_duality_closed(scale):
    assert [s.index for s in scale.spaces] == [Fraction(k) for k in range(4, -5, -1)]
    assert scale.closed_under_duality
    assert not ScaleFamily(Basis.HERMITE,
                           (scale.space_at(1), scale.space_at(0))).closed_under_duality


def test_family_json_roundtrip(tmp_path, scale):
    path = tmp_path / "family.json"
    scale.save(str(path))
    loaded = ScaleFamily.from_json(str(path))
    assert loaded == scale
    torus = sobolev_torus_family(range(-2, 3))
    torus.save(str(path))
    assert ScaleFamily.from_json(str(path)) == torus


def test_scale_weights_keep_each_kind_formula_label_and_identity():
    m, k = np.arange(-40, 41, dtype=float), Fraction(3, 2)
    a = m * m + 1.0
    formulas = {ScaleWeights("diagonal", "n*n+1"): ("H", np.sqrt(1.0 + a ** (2.0 * 1.5))),
                ScaleWeights("sobolev-torus"): ("W", (1.0 + m * m) ** (1.5 / 2.0)),
                ScaleWeights("sequence-power"): ("s", (1.0 + np.abs(m)) ** 1.5),
                ScaleWeights("exp-sqrt"): ("x", np.exp(1.5 * np.sqrt(np.abs(m))))}
    for gen, (prefix, expected) in formulas.items():
        assert np.array_equal(gen.weight(k, m), expected)
        assert np.array_equal(gen.weight(-k, m), 1.0 / expected)
        assert np.array_equal(gen.weight(Fraction(0), m), np.ones_like(m))
        assert ScaleSpace(Basis.FOURIER, k, gen).label == f"{prefix}_3/2"
        assert generator_from_spec(gen.to_spec()) == gen
    assert len(set(formulas) | {ScaleWeights("diagonal", "n+1")}) == 5
    for spec in ({"type": "nope"}, {"type": "diagonal", "symbol": "n"}):
        with pytest.raises(FamilySpecError):
            generator_from_spec(spec)


def test_admissible_pairs_orientation(scale):
    for e, f in scale.admissible_pairs():
        assert e.index >= f.index


def test_intersection_is_finer_space_on_chains(scale):
    e, f = scale.space_at(2), scale.space_at(-1)
    cap = intersection(e, f)
    assert np.array_equal(cap.weights(100), e.weights(100))
    assert np.array_equal(cap.weights(100),
                          np.maximum(e.weights(100), f.weights(100)))


def test_empty_family_allowed():
    fam = ScaleFamily(Basis.HERMITE, ())
    assert fam.admissible_pairs() == []


# -- held weight arrays --------------------------------------------------------

ORDER = (7, 4096, 256, 32768, 1)  # grow, shrink, grow past, shrink to one


def _every_rung():
    specs = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specs"
    families = [entry.family for entry in registry().values()]
    families += [ScaleFamily.from_json(str(path)) for path in sorted(specs.glob("*.json"))
                 if "basis" in path.read_text()]
    return [space for family in families for space in family]


def test_held_weights_are_bit_identical_to_a_fresh_evaluation():
    rungs = _every_rung()
    assert len(rungs) > 60
    for space in rungs:
        for n in ORDER:
            fresh = space.family.weight(space.index, modes(space.basis, n))
            assert np.array_equal(space.weights(n), fresh), (space.label, n)


def _whole_probe_embedding_norm(e, f, cfg):
    """`embedding_norm` as one evaluation over the whole probe."""
    m = modes(e.basis, cfg.symbol_probe)
    sup, diverged = running_sup(f.weight_at(m) / e.weight_at(m), cfg.growth_threshold)
    return float("inf") if diverged else sup


@pytest.mark.parametrize("probe", [1 << 17, 100_000, 40])
def test_embedding_norm_is_the_whole_probe_sup_without_a_probe_length_array(monkeypatch, probe):
    cfg = RunConfig(symbol_probe=probe)
    families = [entry.family for entry in registry().values()]
    pairs = [(e, f) for family in families for e in family for f in family if e != f]
    pairs.append(exp_sqrt_pair())
    expected = [_whole_probe_embedding_norm(e, f, cfg) for e, f in pairs]
    assert np.inf in expected and any(np.isfinite(expected))
    weight_at = ScaleSpace.weight_at

    def bounded(self, m):
        assert np.size(m) <= PROBE_BLOCK
        return weight_at(self, m)

    monkeypatch.setattr(ScaleSpace, "weight_at", bounded)
    got = [embedding_norm(e, f, cfg) for e, f in pairs]
    assert repr(got) == repr(expected)


def test_held_weights_are_read_only(scale):
    w = scale.space_at(2).weights(16)
    with pytest.raises(ValueError):
        w[0] = 2.0
    assert np.array_equal(scale.space_at(2).weights(16),
                          scale.space_at(2).weight_at(modes(Basis.HERMITE, 16)))
