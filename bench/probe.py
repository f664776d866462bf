"""Accuracy probe: structured lower constants against a dense SVD.

For each sampled (operator, pair, lambda, n) the probe asks `PairKernel`
for its summary and rebuilds the identical weighted section densely, in the
shape the serving strategy uses:

    strategy   c_low from             surj_low from
    diagonal   square n x n           (same)
    banded     tall (n+m) x n         wide n x (n+m), m = max(bandwidth, 1)
    ranksum    square n x n           (same)
    dense      tall (n+m) x n         wide n x (n+m), m = bandwidth or margin

where bandwidth is the operator's bandwidth in coefficient-slot order. The
relative error of each constant against the smallest dense singular value
is reported per strategy. Runs outside the timed phase.
"""

from __future__ import annotations

import numpy as np

from tracer import STRATEGIES, summary_strategy


def _section(x, e, f, lam: complex, rows: int, cols: int) -> np.ndarray:
    mat = x.matrix(rows, cols).astype(complex)
    d = min(rows, cols)
    mat[np.arange(d), np.arange(d)] -= lam
    return mat * f.weights(rows)[:, None] / e.weights(cols)[None, :]


def _sigma_min(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / ref if ref > 0 else abs(value - ref)


def relative_errors(mods, cfg, x, e, f, lam: complex, n: int):
    """(strategy, max relative error of c_low and surj_low) for one summary."""
    kernel = mods.sections.PairKernel(x, e, f, cfg)
    strategy = summary_strategy(kernel, n, getattr(mods.sections, "_DENSE_ALWAYS", 96))
    got = kernel.summary(lam, n, want_census=False)
    if strategy in ("diagonal", "ranksum"):
        ref = _sigma_min(_section(x, e, f, lam, n, n))
        return strategy, max(_rel_err(got.c_low, ref), _rel_err(got.surj_low, ref))
    pb = x.position_bandwidth()
    margin = max(pb, 1) if strategy == "banded" else \
        (pb if pb is not None else cfg.section_margin)
    tall = _sigma_min(_section(x, e, f, lam, n + margin, n))
    wide = _sigma_min(_section(x, e, f, lam, n, n + margin))
    return strategy, max(_rel_err(got.c_low, tall), _rel_err(got.surj_low, wide))


def run_probe(mods, cfg, cases) -> dict:
    """cases: iterable of (x, e, f, lam, n). Returns per-layer probe metrics."""
    worst = {k: 0.0 for k in STRATEGIES}
    count = 0
    for x, e, f, lam, n in cases:
        strategy, err = relative_errors(mods, cfg, x, e, f, lam, n)
        worst[strategy] = max(worst[strategy], err)
        count += 1
    out = {f"sections.{k}.c_low_rel_err.max": v for k, v in worst.items()}
    out["sections.probe.samples"] = count
    return out
