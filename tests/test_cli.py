"""Subcommand behavior, exit codes, file outputs, determinism."""

import csv
import gc
import json
import warnings

from interspec.cli import main
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
    assert payload["config"]["seed"] == 12345
    assert payload["duality"]["checked"] is True


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
