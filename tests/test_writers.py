"""Scan files byte for byte against the writers that format every cell anew."""

import csv
import dataclasses
import json
import math

import pytest

from interspec.config import GridSpec, RunConfig
from interspec.gallery import registry
from interspec.resolvent import CellStatus, union_spectrum_scan

CFG = RunConfig()


# The reference writers: one full formatting per cell, rows of dicts for JSON
# and one `csv.writer.writerow` per line.

def _json_float(x):
    return x if math.isfinite(x) else repr(x)


def _reference_json_dict(smap, config=None):
    data = {
        "grid": smap.grid.to_dict(),
        "pairs": smap.pair_labels,
        "certificates": [c.to_dict() for c in smap.certificates],
        "lambdas": [[z.real, z.imag] for z in smap.lambdas],
        "union_resolvent": smap.union_resolvent,
        "cells": [
            [
                {
                    "status": cell.status,
                    "c_low": _json_float(cell.c_low),
                    "d_high": _json_float(cell.d_high),
                    "defect": cell.defect if isinstance(cell.defect, int) else
                    (cell.defect or ""),
                    "witness_n": cell.witness_n,
                    "stabilized": cell.stabilized,
                }
                for cell in row
            ]
            for row in smap.cells
        ],
        "duality": {
            "checked": smap.duality_checked,
            "mismatches": smap.duality_mismatches or [],
        },
    }
    if config is not None:
        data["config"] = config.to_dict()
    return data


def _reference_json(smap, path, config=None):
    data = _reference_json_dict(smap, config)
    cells = data.pop("cells")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"cells": [')
        for i, row in enumerate(cells):
            handle.write((", " if i else "") + json.dumps(row, sort_keys=True))
        handle.write("], " + json.dumps(data, sort_keys=True)[1:] + "\n")


def _reference_csv(smap, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["re_lambda", "im_lambda", "pair", "status",
                         "c_low", "d_high", "defect", "witness_n", "union_resolvent"])
        for li, lam in enumerate(smap.lambdas):
            for pi, label in enumerate(smap.pair_labels):
                cell = smap.cells[pi][li]
                writer.writerow([
                    repr(lam.real), repr(lam.imag), label, cell.status,
                    repr(float(cell.c_low)), repr(float(cell.d_high)),
                    cell.defect if isinstance(cell.defect, int) else (cell.defect or ""),
                    cell.witness_n, int(smap.union_resolvent[li]),
                ])


@pytest.fixture(scope="module")
def bench_maps():
    """The two scan shapes of the scan-diagonal benchmark, at the default config."""
    shapes = {"diagonal[1/(n+1)]": "-0.5:1.5:12,-0.5:0.5:9",
              "scale-generator": "0:7:12,-1:1:9"}
    entries = registry()
    return [union_spectrum_scan(entries[name].operator, entries[name].family,
                                GridSpec.parse(grid), CFG)
            for name, grid in shapes.items()]


def _hand_built_map(smap):
    """``smap`` with hand-made cells: non-finite constants, every defect form,
    cell objects repeated within and across rows, and labels that need quoting."""
    shared = CellStatus("not-regular", 0.0, float("inf"), witness_n=512, stabilized=True)
    forms = [
        CellStatus("resolvent", 0.25, 1.5, 0, 1024, True),
        CellStatus("regular-defect", 1e-300, 2.0, 3, 2048, True),
        CellStatus("inconclusive", float("nan"), float("nan"), "unstable", 4096),
        CellStatus("inconclusive", float("-inf"), float("inf"), None, 256),
        CellStatus("no-extension", witness_n=131072),
        shared,
        shared,
    ]
    lambdas = [complex(-0.0, 0.5), complex(1e-17, -2.5), complex(3.0, 0.0)]
    cells = [[forms[(pi + li) % len(forms)] for li in range(len(lambdas))]
             for pi in range(len(forms))]
    cells[0] = [shared] * len(lambdas)
    labels = [f"r{pi},\"q\"->s_{pi}" if pi % 2 else f"s_{pi}->s_{pi}"
              for pi in range(len(forms))]
    return dataclasses.replace(smap, pair_labels=labels, cells=cells, lambdas=lambdas,
                               union_resolvent=[True, False, True],
                               certificates=smap.certificates[:len(forms)],
                               duality_mismatches=[{"lambda": [0.0, 0.5], "pair": labels[1],
                                                    "primal": "resolvent",
                                                    "dual": "inconclusive"}])


def _same_files(smap, tmp_path, config):
    smap.write_csv(tmp_path / "new.csv")
    _reference_csv(smap, tmp_path / "ref.csv")
    smap.write_json(tmp_path / "new.json", config=config)
    _reference_json(smap, tmp_path / "ref.json", config=config)
    for suffix in ("csv", "json"):
        new, ref = ((tmp_path / f"{which}.{suffix}").read_bytes() for which in ("new", "ref"))
        assert new == ref, suffix


@pytest.mark.parametrize("config", [CFG, None], ids=["config", "no-config"])
@pytest.mark.parametrize("which", [0, 1], ids=["diagonal", "scale-generator"])
def test_benchmark_shaped_scans_write_the_reference_bytes(bench_maps, tmp_path, which, config):
    _same_files(bench_maps[which], tmp_path, config)


@pytest.mark.parametrize("config", [CFG, None], ids=["config", "no-config"])
def test_hand_built_cells_write_the_reference_bytes(bench_maps, tmp_path, config):
    smap = _hand_built_map(bench_maps[0])
    _same_files(smap, tmp_path, config)
    data = json.loads((tmp_path / "new.json").read_text(encoding="utf-8"))
    written = {(c["c_low"], c["d_high"], c["defect"]) for row in data["cells"] for c in row}
    assert {("nan", "nan", "unstable"), ("-inf", "inf", ""), (0.25, 1.5, 0),
            (1e-300, 2.0, 3), (0.0, "inf", "")} <= written
    with open(tmp_path / "new.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert {row[2] for row in rows[1:]} == set(smap.pair_labels)
