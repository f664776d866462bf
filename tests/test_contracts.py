"""Cross-module contracts: schemas, truncation nesting, gallery-wide Neumann."""

import json
import pathlib

import jsonschema
import numpy as np
import pytest
from fractions import Fraction

from interspec.cli import main
from interspec.config import GridSpec, RunConfig
from interspec.errors import CertificateBoundError, SpecParseError
from interspec.gallery import hermite_diagonal, registry, torus_multiplication
from interspec.geneig import delta_eigenpair
from interspec.resolvent import (STATUS_RESOLVENT, neumann_continue,
                                 resolvent_solve, union_spectrum_scan)
from interspec.spaces import CoefficientVector

CFG = RunConfig()
SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "interspec" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def test_scan_json_validates_against_schema(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"basis": "hermite", "indices": [-1, 0, 1],
                                  "generator": {"type": "sequence-power"}}))
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"basis": "hermite",
                                    "rep": {"type": "diagonal", "symbol": "1/(n+1)"},
                                    "symmetric": True}))
    out = tmp_path / "out"
    plot = tmp_path / "plot.dat"
    assert main(["scan", "--operator", str(operator), "--family", str(family),
                 "--grid", "0.3:1.2:5,0:0.2:2", "--out", str(out),
                 "--plot-data", str(plot)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    jsonschema.validate(payload, _schema("spectrum.schema.json"))
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("#")
    assert any(line and not line.startswith("#") for line in lines)


def test_branches_json_validates_against_schema(capsys):
    assert main(["branches", "--operator", "gallery:scale-generator",
                 "--family", "gallery:scale-generator", "--lambda=-1+0i"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("branches.schema.json"))


def test_krein_nodes_csv(tmp_path, capsys):
    nodes_file = tmp_path / "nodes.csv"
    assert main(["krein", "--alpha", "0", "--beta", "1.5", "--lambda", "0.2+1i",
                 "--g", "cos(x)", "--nodes", "64",
                 "--nodes-out", str(nodes_file)]) == 0
    capsys.readouterr()
    rows = nodes_file.read_text().splitlines()
    assert rows[0] == "x,re_difference,im_difference,re_formula,im_formula"
    assert len(rows) == 65


def test_truncations_are_nested():
    for entry in registry().values():
        big = entry.operator.matrix(48)
        small = entry.operator.matrix(24)
        assert np.array_equal(big[:24, :24], small)


def test_neumann_matches_direct_across_gallery():
    # random centers and targets inside 0.9 of the certified disk
    rng = np.random.default_rng(CFG.seed + 4)
    jobs = [
        (hermite_diagonal("1/(n+1)"), 1, 1, -0.4 - 0.6j, CFG),
        (hermite_diagonal("n+1"), 1, 0, -1.0 + 0.4j, CFG),
        (torus_multiplication("cos(t)"), 0, 0, 1.8 + 0.3j,
         CFG.with_updates(scan_n0=64, scan_n_max=512)),
    ]
    for entry, ke, kf, center_hint, cfg in jobs:
        e, f = entry.family.space_at(ke), entry.family.space_at(kf)
        for _ in range(4):
            lam0 = center_hint + complex(rng.uniform(-0.1, 0.1),
                                         rng.uniform(-0.1, 0.1))
            radius = neumann_continue(entry.operator, lam0, lam0, e, f, cfg).radius
            lam = lam0 + 0.9 * radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
            cont = neumann_continue(entry.operator, lam0, lam, e, f, cfg)
            probe = CoefficientVector(entry.operator.basis,
                                      rng.normal(size=32) * np.exp(-np.arange(32) / 6.0))
            direct = resolvent_solve(entry.operator, lam, e, f, probe, cfg).vector
            got = cont(probe)
            n = max(got.n, direct.n)
            assert np.max(np.abs(got.padded(n) - direct.padded(n))) <= 1e-8, \
                f"{entry.name} at lam0={lam0}"


def test_fractional_home_index():
    pair = delta_eigenpair(0.5, Fraction(3, 2), 512, cfg=CFG)
    assert pair.home_space.index == Fraction(-3, 2)
    assert pair.residual <= 1e-6
    assert np.isfinite(pair.membership_norm)


def test_branch_multiplicity_recorded():
    # the scan records every succeeding pair, not just the first
    entry = registry()["scale-generator"]
    grid = GridSpec(-1.2, -0.8, 2, 0.0, 0.0, 1)
    smap = union_spectrum_scan(entry.operator, entry.family, grid,
                               CFG.with_updates(duality_check=False))
    winners = [smap.pair_labels[pi] for pi in range(len(smap.pair_labels))
               if smap.cells[pi][0].status == STATUS_RESOLVENT]
    assert len(winners) >= 2


def test_sanity_bound_on_section_norm():
    from interspec.resolvent import regular_point
    from interspec.operators import certify
    from interspec.spaces import embedding_norm, hilbert_scale_family
    from interspec.operators import operator_from_spec
    fam = hilbert_scale_family("n+1", range(-2, 3))
    op = operator_from_spec({"basis": "hermite",
                             "rep": {"type": "diagonal", "symbol": "n+1"},
                             "symmetric": True})
    e, f = fam.space_at(1), fam.space_at(0)
    lam = -2.0 + 1.0j
    rep = regular_point(op, lam, e, f, CFG)
    cert = certify(op, e, f, CFG)
    assert rep.d_high <= cert.norm_bound + abs(lam) * embedding_norm(e, f) + 1e-9


def test_section_norm_above_certificate_raises_typed_error():
    from interspec.operators import (CERT_EXACT, ContinuityCertificate, certify,
                                     operator_from_spec)
    from interspec.resolvent import regular_point
    from interspec.spaces import hilbert_scale_family
    fam = hilbert_scale_family("n+1", range(-2, 3))
    op = operator_from_spec({"basis": "hermite",
                             "rep": {"type": "diagonal", "symbol": "n+1"},
                             "symmetric": True})
    e, f = fam.space_at(1), fam.space_at(0)
    honest = certify(op, e, f, CFG)
    assert honest.method == CERT_EXACT
    # a certified bound far below the true norm (about 1) must be refused
    # through a typed error that survives `python -O`
    cert = ContinuityCertificate(honest.operator, e, f, 1e-6, CERT_EXACT, honest.witness_n)
    with pytest.raises(CertificateBoundError, match="exceeds the certificate bound"):
        regular_point(op, 0.1j, e, f, CFG, cert=cert)


def test_config_rejects_removed_quad_tol():
    with pytest.raises(SpecParseError, match="quad_tol"):
        RunConfig.from_dict({"quad_tol": 1e-8})
