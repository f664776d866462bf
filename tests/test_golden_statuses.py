"""Every gallery entry scanned on its own family against stored reference cells.

The grid and config are those of a quick CLI scan:
``--grid=-1.5:1.5:3,0.5:0.5:1 --config bench/specs/smoke-config.json``.
Statuses, defects and witness truncations must match exactly; ``c_low``,
``d_high`` and the certificates' ``norm_bound`` within 1e-9 relative.

Regenerate the reference after an intended change of results with
``PYTHONPATH=src python tests/test_golden_statuses.py`` and list the cells
that moved.
"""

import json
import math
import pathlib

import pytest

from interspec.config import GridSpec, RunConfig
from interspec.gallery import BUILDERS
from interspec.resolvent import union_spectrum_scan

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "data" / "golden_statuses.json"
GRID = "-1.5:1.5:3,0.5:0.5:1"
REL = 1e-9


def _config() -> RunConfig:
    return RunConfig.from_json(str(ROOT / "bench" / "specs" / "smoke-config.json"))


def _num(x: float):
    return x if math.isfinite(x) else repr(float(x))


def scan_record(entry, cfg: RunConfig) -> dict:
    smap = union_spectrum_scan(entry.operator, entry.family, GridSpec.parse(GRID), cfg)
    return {
        "pairs": smap.pair_labels,
        "norm_bounds": [_num(c.norm_bound) for c in smap.certificates],
        "cells": [[{"status": c.status, "defect": c.defect, "witness_n": c.witness_n,
                    "c_low": _num(c.c_low), "d_high": _num(c.d_high)} for c in row]
                  for row in smap.cells],
    }


def _close(got, want) -> bool:
    got, want = float(got), float(want)
    if math.isnan(want) or math.isinf(want):
        return repr(got) == repr(want)
    return abs(got - want) <= REL * abs(want)


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_gallery_scan_matches_reference(name, reference):
    want = reference[name]
    got = scan_record(BUILDERS[name](), _config())
    assert got["pairs"] == want["pairs"]
    for label, g, w in zip(want["pairs"], got["norm_bounds"], want["norm_bounds"]):
        assert _close(g, w), (label, g, w)
    for label, g_row, w_row in zip(want["pairs"], got["cells"], want["cells"]):
        for li, (g, w) in enumerate(zip(g_row, w_row)):
            where = (label, li)
            assert (g["status"], g["defect"], g["witness_n"]) == \
                (w["status"], w["defect"], w["witness_n"]), where
            assert _close(g["c_low"], w["c_low"]), (where, g["c_low"], w["c_low"])
            assert _close(g["d_high"], w["d_high"]), (where, g["d_high"], w["d_high"])


if __name__ == "__main__":
    cfg = _config()
    records = {name: scan_record(build(), cfg) for name, build in sorted(BUILDERS.items())}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
