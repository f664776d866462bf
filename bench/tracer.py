"""Spans recorded from outside the library, around its public entry points.

Inside ``with tracer:`` a `Tracer` replaces module and class attributes with
timing wrappers at the place where each name is looked up (for example
``resolvent.certify``, which ``point_status`` calls, rather than
``operators.certify``), keeps every span as ``[name, start, end, parent]`` in
memory and restores the originals on exit; spans and counters accumulate
over every ``with`` block. Per-layer metrics are derived from the spans
afterwards; self time is a span's duration minus the part covered by its
children.

Targets that a later version of the library no longer has are skipped, so
their counters read zero instead of breaking the run.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

import numpy as np

STRATEGIES = ("diagonal", "banded", "ranksum", "dense")
STATUSES = ("resolvent", "regular-defect", "not-regular", "no-extension",
            "inconclusive")
CERT_METHODS = ("analytic-exact", "truncation-stabilized", "failed", "inconclusive")
TIMED_CALLS = ("resolvent_solve", "truncated_resolvent_apply", "equivalent",
               "neumann_continue", "branch_report", "union_spectrum_scan")

# (name, unit) of every per-layer metric, in the order they are reported
LAYER_METRICS = (
    [("cli.main.calls", "count"), ("cli.main.s", "s"), ("cli.write.s", "s"),
     ("cli.bytes_written", "bytes"),
     ("gallery.registry.calls", "count"), ("gallery.registry.s", "s"),
     ("resolvent.duality_pass.s", "s")]
    + [(f"resolvent.point_status.{k}", u) for k, u in
       (("calls", "count"), ("s", "s"), ("self_s", "s"), ("p50_ms", "ms"),
        ("p99_ms", "ms"))]
    + [("resolvent.summaries_per_cell", "count")]
    + [(f"resolvent.status.{s}", "count") for s in STATUSES]
    + [(f"resolvent.{f}.{k}", u) for f in TIMED_CALLS
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("operators.certify.calls", "count"), ("operators.certify.s", "s")]
    + [(f"operators.certify.outcome.{m}", "count") for m in CERT_METHODS]
    + [("spaces.embedding_norm.calls", "count"), ("spaces.embedding_norm.s", "s")]
    + [(f"sections.summary.{k}.{f}", u) for k in STRATEGIES
       for f, u in (("calls", "count"), ("s", "s"), ("census_calls", "count"),
                    ("census_s", "s"), ("n_sum", "count"))]
    + [("sections.summary.repeat_share", "share")]
    + [(f"sections.{k}.c_low_rel_err.max", "ratio") for k in STRATEGIES]
    + [("sections.probe.samples", "count")]
    + [("extensions.krein_difference_check.calls", "count"),
       ("extensions.krein_difference_check.s", "s"),
       ("geneig.delta_eigenpair.calls", "count"), ("geneig.delta_eigenpair.s", "s")]
    + [("checks.fail_rate", "share"), ("checks.contradicting_cells", "count"),
       ("trace.overhead_share", "share"), ("trace.spans", "count")]
)


def summary_strategy(kernel, n: int, dense_always: int) -> str:
    """Which `PairKernel.summary` route serves truncation n (mirrors its dispatch)."""
    rep = type(kernel.x.rep).__name__
    if rep == "Diagonal":
        return "diagonal"
    if rep in ("Banded", "RankSum") and n > dense_always:
        return rep.lower()
    return "dense"


class Tracer:
    def __init__(self, mods):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.counts: Counter = Counter()
        self.census: dict = defaultdict(lambda: [0, 0.0])   # strategy -> [calls, s]
        self.n_sum: Counter = Counter()
        self.strategy_of: dict = {}    # span index -> summary strategy
        self.status_of: dict = {}      # span index -> point_status status
        self._seen = weakref.WeakKeyDictionary()  # kernel -> {(lam, n)}
        self._scan = None
        self.duality_s = 0.0
        self._dense_always = getattr(mods.sections, "_DENSE_ALWAYS", 96)
        self._mods = mods

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = self._mods
        res = mods.resolvent
        self._patch(mods.cli, "main", "cli.main")
        self._patch(mods.cli, "union_spectrum_scan", "resolvent.union_spectrum_scan",
                    before=self._scan_begin, after=self._scan_end)
        for owner in (mods.cli, mods.gallery):
            self._patch(owner, "registry", "gallery.registry")
        for owner in (res, mods.gallery):
            self._patch(owner, "certify", "operators.certify", after=self._certified)
        self._patch(res, "point_status", "resolvent.point_status",
                    after=self._point_status_done)
        for name in TIMED_CALLS[:-1]:
            self._patch(res, name, f"resolvent.{name}")
        self._patch(res, "embedding_norm", "spaces.embedding_norm")
        self._patch(mods.extensions, "krein_difference_check",
                    "extensions.krein_difference_check")
        self._patch(mods.geneig, "delta_eigenpair", "geneig.delta_eigenpair")
        smap = getattr(res, "SpectrumMap", None)
        for method in ("write_csv", "write_json"):
            self._patch(smap, method, "cli.write")
        self._patch(getattr(mods.sections, "PairKernel", None), "summary",
                    "sections.summary", before=self._summary_begin,
                    after=self._summary_done)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            if before is not None:
                before(idx, args, kwargs)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- observers -----------------------------------------------------

    def _scan_begin(self, idx, args, kwargs) -> None:
        family = args[1] if len(args) > 1 else kwargs["family"]
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        # symmetric operators are their own adjoint, so the duality pass is
        # told apart by call order: the first pairs x lambdas cells are primal
        self._scan = {"primal_left": len(family.admissible_pairs()) * grid.size,
                      "primal_end": None}

    def _scan_end(self, idx, args, kwargs, result) -> None:
        scan, self._scan = self._scan, None
        if scan is not None and scan["primal_end"] is not None:
            self.duality_s += self.spans[idx][2] - scan["primal_end"]

    def _point_status_done(self, idx, args, kwargs, result) -> None:
        self.status_of[idx] = result.status
        scan = self._scan
        if scan is not None and scan["primal_left"] > 0:
            scan["primal_left"] -= 1
            if scan["primal_left"] == 0:
                scan["primal_end"] = self.spans[idx][2]

    def _certified(self, idx, args, kwargs, result) -> None:
        self.counts[f"certify.outcome.{result.method}"] += 1

    def _summary_begin(self, idx, args, kwargs) -> None:
        kernel = args[0]
        lam = args[1] if len(args) > 1 else kwargs["lam"]
        n = args[2] if len(args) > 2 else kwargs["n"]
        strategy = summary_strategy(kernel, n, self._dense_always)
        self.strategy_of[idx] = strategy
        self.n_sum[strategy] += n
        seen = self._seen.setdefault(kernel, set())
        key = (complex(lam), int(n))
        if key in seen:
            self.counts["summary.repeat"] += 1
        seen.add(key)

    def _summary_done(self, idx, args, kwargs, result) -> None:
        want = args[3] if len(args) > 3 else kwargs.get("want_census", True)
        if want:
            rec = self.spans[idx]
            entry = self.census[self.strategy_of[idx]]
            entry[0] += 1
            entry[1] += rec[2] - rec[1]

    # -- derived metrics -----------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        ps = [i for i, rec in enumerate(spans) if rec[0] == "resolvent.point_status"]
        ps_ms = np.array([(spans[i][2] - spans[i][1]) * 1e3 for i in ps]) if ps else \
            np.zeros(1)
        in_cell = sum(1 for i, rec in enumerate(spans)
                      if rec[0] == "sections.summary" and rec[3] >= 0
                      and spans[rec[3]][0] == "resolvent.point_status")
        statuses = Counter(self.status_of.values())
        out = {
            "cli.main.calls": calls["cli.main"], "cli.main.s": total["cli.main"],
            "cli.write.s": total["cli.write"],
            "gallery.registry.calls": calls["gallery.registry"],
            "gallery.registry.s": total["gallery.registry"],
            "resolvent.duality_pass.s": self.duality_s,
            "resolvent.point_status.calls": len(ps),
            "resolvent.point_status.s": total["resolvent.point_status"],
            "resolvent.point_status.self_s": sum(
                spans[i][2] - spans[i][1] - child[i] for i in ps),
            "resolvent.point_status.p50_ms": float(np.percentile(ps_ms, 50)),
            "resolvent.point_status.p99_ms": float(np.percentile(ps_ms, 99)),
            "resolvent.summaries_per_cell": in_cell / max(len(ps), 1),
            "operators.certify.calls": calls["operators.certify"],
            "operators.certify.s": total["operators.certify"],
            "spaces.embedding_norm.calls": calls["spaces.embedding_norm"],
            "spaces.embedding_norm.s": total["spaces.embedding_norm"],
            "extensions.krein_difference_check.calls":
                calls["extensions.krein_difference_check"],
            "extensions.krein_difference_check.s":
                total["extensions.krein_difference_check"],
            "geneig.delta_eigenpair.calls": calls["geneig.delta_eigenpair"],
            "geneig.delta_eigenpair.s": total["geneig.delta_eigenpair"],
            "trace.spans": len(spans),
        }
        for s in STATUSES:
            out[f"resolvent.status.{s}"] = statuses[s]
        for name in TIMED_CALLS:
            out[f"resolvent.{name}.calls"] = calls[f"resolvent.{name}"]
            out[f"resolvent.{name}.s"] = total[f"resolvent.{name}"]
        for m in CERT_METHODS:
            out[f"operators.certify.outcome.{m}"] = self.counts[f"certify.outcome.{m}"]
        per_strategy_calls: Counter = Counter()
        per_strategy_s: Counter = Counter()
        for idx, strategy in self.strategy_of.items():
            per_strategy_calls[strategy] += 1
            per_strategy_s[strategy] += spans[idx][2] - spans[idx][1]
        for k in STRATEGIES:
            out[f"sections.summary.{k}.calls"] = per_strategy_calls[k]
            out[f"sections.summary.{k}.s"] = per_strategy_s[k]
            out[f"sections.summary.{k}.census_calls"] = self.census[k][0]
            out[f"sections.summary.{k}.census_s"] = self.census[k][1]
            out[f"sections.summary.{k}.n_sum"] = self.n_sum[k]
        n_summaries = sum(per_strategy_calls.values())
        out["sections.summary.repeat_share"] = \
            self.counts["summary.repeat"] / max(n_summaries, 1)
        return out
