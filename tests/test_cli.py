"""Subcommand behavior, exit codes, file outputs, determinism."""

import csv
import gc
import json
import pathlib
import warnings
from collections import Counter

import pytest

from interspec import gallery
from interspec.cli import build_parser, main
from interspec.config import RunConfig
from interspec.expressions import parse_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-1.5-0.3i") == -1.5 - 0.3j
    assert parse_complex("2i") == 2j
    assert parse_complex("i") == 1j


def test_gallery_list_and_show(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    names = out.split()
    assert "position" in names and "torus-delta" in names
    code, out, _ = run(capsys, "gallery", "show", "position")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "position"
    code, _, err = run(capsys, "gallery", "show", "nonsense")
    assert code == 2


def test_krein_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "krein", "--alpha", "0", "--beta",
                       "3.14159265358979", "--lambda", "0+1i", "--g", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["residual"] <= 1e-10
    # eigenvalue collision: precondition violation
    code, _, err = run(capsys, "krein", "--alpha", "0", "--beta", "1.0",
                       "--lambda", "0+0i", "--g", "1")
    assert code == 3 and "eigenvalue" in err
    # malformed expression: parse error
    code, _, err = run(capsys, "krein", "--alpha", "0", "--beta", "1.0",
                       "--lambda", "0+1i", "--g", "import os")
    assert code == 2


def test_scan_outputs_and_determinism(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "basis": "hermite",
        "indices": [-2, -1, 0, 1, 2],
        "generator": {"type": "sequence-power"},
    }))
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({
        "basis": "hermite",
        "rep": {"type": "diagonal", "symbol": "1/(n+1)"},
        "symmetric": True,
        "name": "decay",
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "scan", "--operator", str(operator),
                         "--family", str(family),
                         "--grid=-0.2:1.1:8,-0.1:0.1:3", "--out", str(out))
        assert code == 0
    csv_a = (out_a / "spectrum.csv").read_bytes()
    csv_b = (out_b / "spectrum.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "spectrum.json").read_bytes() == (out_b / "spectrum.json").read_bytes()
    header = csv_a.decode().splitlines()[0]
    assert header.startswith("re_lambda,im_lambda,pair,status")
    payload = json.loads((out_a / "spectrum.json").read_text())
    assert payload["config"] == RunConfig().to_dict()
    assert payload["duality"]["checked"] is True


def test_scan_json_is_one_compact_line(tmp_path, capsys):
    # unindented, so that CPython's C encoder writes it
    code, _, _ = run(capsys, "scan", "--operator", "gallery:scale-generator",
                     "--family", "gallery:scale-generator", "--grid=0.5:1.5:2,0.5:0.5:1",
                     "--config", str(pathlib.Path(__file__).resolve().parents[1] / "bench"
                                     / "specs" / "smoke-config.json"),
                     "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "spectrum.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_branches_reports_equivalent_pairs(tmp_path, capsys):
    code, out, _ = run(capsys, "branches", "--operator", "gallery:scale-generator",
                       "--family", "gallery:scale-generator", "--lambda=-1+0i")
    assert code == 0
    data = json.loads(out)
    assert len(data["pairs"]) >= 2
    assert all(flag for _, _, flag in data["equivalences"])


def test_neumann_command(tmp_path, capsys):
    code, out, _ = run(capsys, "neumann", "--operator", "gallery:scale-generator",
                       "--family", "gallery:scale-generator", "--pair", "1,0",
                       "--lambda0=-1+0i", "--lambda=-1.05+0i")
    assert code == 0
    data = json.loads(out)
    assert data["max_coefficient_gap_vs_direct"] <= 1e-8
    assert data["terms"] > 0


def test_momentum_cover_command(capsys):
    code, out, _ = run(capsys, "momentum-cover", "--alphas", "0,3.14159265358979",
                       "--grid=-10:10:201")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("re_lambda,im_lambda,covered")
    assert len(lines) == 202
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_csv_out_files_are_closed(tmp_path, capsys):
    cover, geneig = tmp_path / "cover.csv", tmp_path / "geneig.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(capsys, "momentum-cover", "--alphas", "0,3.14159265358979",
                   "--grid=-10:10:21", "--out", str(cover))[0] == 0
        assert run(capsys, "geneig", "--lambda-grid=-1:1:2", "--n", "256",
                   "--out", str(geneig))[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with open(cover, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["re_lambda", "im_lambda", "covered"] and len(rows) == 22
    with open(geneig, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lambda", "residual", "membership_norm"] and len(rows) == 3


def test_delta_bound_command(capsys):
    code, out, _ = run(capsys, "delta-bound", "--alpha", "-2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["estimate"] - (-1.0)) <= 0.01
    code, _, err = run(capsys, "delta-bound", "--alpha", "1.0")
    assert code == 3 and "no bound state" in err


def test_geneig_command(capsys):
    code, out, _ = run(capsys, "geneig", "--lambda-grid=-2:2:5", "--s", "1",
                       "--n", "1024")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,residual,membership_norm"
    assert len(lines) == 6
    residuals = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(residuals) <= 1e-6


@pytest.mark.parametrize("n", ["0", "-3"])
def test_geneig_truncation_below_one_exits_two(tmp_path, capsys, n):
    out = tmp_path / "geneig.csv"
    code, _, err = run(capsys, "geneig", "--lambda-grid=0:1:2", "--n", n, "--out", str(out))
    assert code == 2 and err.startswith("spec error") and "at least 1" in err
    assert not out.exists()


def test_expansion_command(capsys):
    code, out, _ = run(capsys, "expansion", "--phi", "e3")
    assert code == 0
    data = json.loads(out)
    assert data["max_reconstruction_error"] <= 1e-6
    code, out, _ = run(capsys, "expansion", "--phi", "1,0.5,0.25,0.125")
    assert code == 0


def test_bad_arguments_exit_two(capsys):
    code, _, _ = run(capsys, "scan", "--operator", "nope.json", "--family",
                     "also-nope.json", "--grid", "bad-grid", "--out", "/tmp/x")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_the_parser_is_built_once_and_parses_after_a_failed_parse(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "geneig", "--lambda-grid=0:1:2", "--n", "x")[0] == 2
    args = build_parser().parse_args(["geneig", "--lambda-grid=0:1:2"])
    assert (args.s, args.n, args.out) == ("1", 1024, None)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ("scan", "--operator", "gallery:scale-generator", "--family", "gallery:scale-generator",
     "--grid={v}:1:3"),
    ("scan", "--operator", "gallery:scale-generator", "--family", "gallery:scale-generator",
     "--grid=0:{v}:3"),
    ("branches", "--operator", "gallery:scale-generator", "--family", "gallery:scale-generator",
     "--lambda={v}"),
    ("branches", "--operator", "gallery:scale-generator", "--family", "gallery:scale-generator",
     "--lambda=1e999+{v}i"),
    ("krein", "--alpha={v}", "--beta=1.0", "--lambda=0+1i", "--g=1"),
    ("krein", "--alpha=1e999", "--beta={v}", "--lambda=0+1i", "--g=1"),
], ids=["grid-re0", "grid-re1", "lambda", "lambda-overflow", "alpha", "alpha-overflow"])
def test_non_finite_lambda_input_is_a_spec_error(tmp_path, capsys, argv, value):
    out = tmp_path / "out"
    code, _, err = run(capsys, *(a.format(v=value) for a in argv), "--out", str(out))
    assert code == 2 and err.startswith("spec error")
    assert not out.exists()


def test_scan_builds_only_the_gallery_entry_it_names(tmp_path, capsys, monkeypatch):
    built = []
    for name, build in list(gallery.BUILDERS.items()):
        monkeypatch.setitem(gallery.BUILDERS, name,
                            lambda name=name, build=build: built.append(name) or build())
    config = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specs" / "smoke-config.json"
    code, _, _ = run(capsys, "scan", "--operator", "gallery:torus-delta",
                     "--family", "gallery:torus-delta", "--grid=0.5:0.7:2,0.5:0.5:1",
                     "--config", str(config), "--out", str(tmp_path / "scan"))
    assert code == 0
    assert built == ["torus-delta"]
    code, _, err = run(capsys, "scan", "--operator", "gallery:nonsense",
                       "--family", "gallery:torus-delta", "--grid=0.5:0.7:2",
                       "--out", str(tmp_path / "none"))
    assert code == 2 and "nonsense" in err and "torus-delta" in err


def test_scan_with_a_dense_cap_below_scan_n0_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dense_cap": 64}))
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps({"basis": "hermite",
                                    "rep": {"type": "dense", "entry": "1/(1+(n-m)**2)"}}))
    code, _, err = run(capsys, "scan", "--operator", str(operator),
                       "--family", "gallery:position", "--grid=-1:1:2,0.5:0.5:1",
                       "--config", str(config), "--out", str(tmp_path / "scan"))
    assert code == 2 and "dense_cap" in err


def test_dense_operator_scans_through_the_dense_route(tmp_path, capsys):
    # no gallery entry is dense: this is the one CLI scan of `Representation.summary`
    root = pathlib.Path(__file__).resolve().parents[1]
    code, _, _ = run(capsys, "scan", "--operator", str(root / "tests" / "data" / "dense-toeplitz.json"),
                     "--family", "gallery:position", "--grid=-1:1:3,0.5:0.5:1",
                     "--config", str(root / "bench" / "specs" / "smoke-config.json"),
                     "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["duality"] == {"checked": True, "mismatches": []}
    statuses = [cell["status"] for row in payload["cells"] for cell in row]
    assert "not-regular" in statuses


def test_equal_rung_ranksum_censuses_at_the_default_config(tmp_path, capsys):
    # the E = F pairs take their census from the k x k reduction of the
    # section (k <= 2r), at every truncation the default schedule walks
    root = pathlib.Path(__file__).resolve().parents[1]
    code, _, _ = run(capsys, "scan", "--operator", str(root / "tests" / "data" / "ranksum-decaying.json"),
                     "--family", "gallery:torus-delta", "--grid=-1.5:1.5:7,-0.5:0.5:3",
                     "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["duality"] == {"checked": True, "mismatches": []}
    statuses = Counter(cell["status"] for row in payload["cells"] for cell in row)
    assert statuses == {"not-regular": 633, "resolvent": 59, "no-extension": 252,
                        "inconclusive": 1}


@pytest.mark.parametrize("which, spec", [
    ("family", {"basis": "hermite", "indices": [1, 0],
                "generator": {"type": "diagonal", "symbol": None}}),
    ("family", {"basis": "hermite", "indices": [1, 0],
                "generator": {"type": "diagonal", "symbol": ["n"]}}),
    ("operator", {"basis": "hermite", "rep": {"type": "banded", "bandwidth": 1, "entry": 3}}),
], ids=["symbol-null", "symbol-list", "entry-number"])
def test_an_expression_that_is_not_a_string_is_a_spec_error(tmp_path, capsys, which, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    operands = {"operator": "gallery:scale-generator", "family": "gallery:scale-generator",
                which: str(path)}
    code, _, err = run(capsys, "scan", "--operator", operands["operator"],
                       "--family", operands["family"], "--grid=0.5:1.5:2,0.5:0.5:1",
                       "--out", str(tmp_path / "scan"))
    assert code == 2 and err.startswith("spec error: ") and "not a string" in err


@pytest.mark.parametrize("operator, family, message", [
    ("gallery:position", "family-null-index.json", "scale index None is not a number"),
    ("banded-null-bandwidth.json", "gallery:position", "bandwidth None is not an integer"),
    ("operator-list.json", "gallery:position", "must be a JSON object, not a list"),
], ids=["index-null", "bandwidth-null", "operator-list"])
def test_a_spec_field_of_the_wrong_json_type_is_a_spec_error(tmp_path, capsys, operator, family,
                                                              message):
    data = pathlib.Path(__file__).resolve().parent / "data"
    operands = [ref if ref.startswith("gallery:") else str(data / ref)
                for ref in (operator, family)]
    code, _, err = run(capsys, "scan", "--operator", operands[0], "--family", operands[1],
                       "--grid=0:1:2,0.5:0.5:1", "--out", str(tmp_path / "scan"))
    assert code == 2 and err.startswith("spec error: ") and message in err


def test_a_duality_mismatch_exits_one_and_still_writes_the_map(tmp_path, capsys):
    # a non-real diagonal declared self-adjoint: its "adjoint" is itself, so
    # the dual rows at conj(lambda) disagree with the primal rows
    root = pathlib.Path(__file__).resolve().parents[1]
    code, _, err = run(capsys, "scan",
                       "--operator", str(root / "tests" / "data" / "mislabelled-symmetric.json"),
                       "--family", "gallery:scale-generator", "--grid=1:1:2,1:1:1",
                       "--config", str(root / "bench" / "specs" / "smoke-config.json"),
                       "--out", str(tmp_path))
    assert code == 1 and err == "duality cross-check: 14 mismatching cells\n"
    duality = json.loads((tmp_path / "spectrum.json").read_text())["duality"]
    assert duality["checked"] is True and len(duality["mismatches"]) == 14
    for cell in duality["mismatches"]:
        e, f = cell["pair"].split("->")
        assert (cell["lambda"], cell["primal"], cell["dual"], e) == \
            ([1.0, 1.0], "not-regular", "resolvent", f)
