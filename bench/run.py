"""interspec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan-banded --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` and nowhere else. With ``--trace 0`` the run measures the
end-to-end metrics with no wrappers installed. With ``--trace 1`` it runs
each round twice on identical inputs, untraced then traced, reports the
per-layer metrics from the traced rounds and the relative difference of the
two medians as the tracing overhead, and afterwards runs the accuracy probe.
The last line of standard output is the JSON result; a report and the
environment stamp are written to ``bench/out/``.

``--smoke`` runs every workload for one round at truncations n <= 128 and
one lambda per operation, traced and untraced, with every output check and
the probe, and exits non-zero if any of it fails.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS reads its thread count when it is loaded, so cap it before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import ctypes
import dataclasses
import gc
import gzip
import importlib
import json
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# loaded before any set-up is timed, so that setup_s covers interspec alone
import numpy as np
import scipy
import scipy.linalg
import scipy.sparse.linalg

from probe import run_probe
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Context

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("cli", "config", "gallery", "spaces", "operators", "sections", "resolvent",
           "extensions", "geneig")
SETUP_EDGE = 4       # set-up samples before and after the rounds; one more after each
PROBE_SAMPLES = 6
PROBE_N = 256
SMOKE_CONFIG = str(BENCH / "specs" / "smoke-config.json")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_share", "share"), ("conclusive_share", "share"),
              ("consistent_share", "share"))


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up: import, registry, spec loading


def _drop_interspec() -> dict:
    """Remove interspec from the module cache and return what was removed."""
    names = [m for m in sys.modules if m == "interspec" or m.startswith("interspec.")]
    return {name: sys.modules.pop(name) for name in names}


def set_up(spec_keys, config_path: str):
    """Import interspec afresh, build the gallery, load specs. Returns (seconds, ctx parts)."""
    _drop_interspec()
    start = time.perf_counter()
    mods = SimpleNamespace(**{m: importlib.import_module(f"interspec.{m}") for m in MODULES})
    entries = mods.gallery.registry()
    spec_paths = {key: str(BENCH / "specs" / f"{key}.json") for key in spec_keys}
    families = {key: mods.spaces.ScaleFamily.from_json(path)
                for key, path in spec_paths.items()}
    cfg = mods.config.RunConfig.from_json(config_path) if config_path \
        else mods.config.DEFAULT_CONFIG
    elapsed = time.perf_counter() - start
    return elapsed, mods, entries, families, spec_paths, cfg


def time_set_up(spec_keys, config_path: str) -> float:
    """Seconds for one more set-up; the run keeps its own interspec modules."""
    keep = _drop_interspec()
    try:
        return set_up(spec_keys, config_path)[0]
    finally:
        _drop_interspec()
        sys.modules.update(keep)
        gc.collect()


def import_library() -> None:
    if not (SRC / "interspec" / "__init__.py").is_file():
        raise SetupError(f"no interspec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("interspec")
    if Path(module.__file__).resolve().parent != (SRC / "interspec").resolve():
        raise SetupError(f"interspec imported from {module.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment stamp


def _openblas_builds() -> list:
    """Configuration and live thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                entry["config"] = get_config().decode()
                entry["threads"] = int(get_threads())
                break
        out.append(entry)
    return out


def environment(args, cfg) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_builds(),
        "blas_thread_cap": NPROC,
        "nproc": NPROC,
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_config": cfg.to_dict(),
    }


# ---------------------------------------------------------------------------
# rounds


def run_round(ops, log: list, op_times: list) -> tuple:
    """Run each op, timing only the program call. Returns (seconds, outcomes)."""
    spent = 0.0
    outcomes = []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a failed operation is counted, and the run goes on
            spent += time.perf_counter() - start
            log.append({"op": op.label, "error": traceback.format_exc(limit=3)})
            outcomes.append(None)
            continue
        took = time.perf_counter() - start
        spent += took
        op_times.append([op.label, took])
        try:
            outcome = op.check(result)
        except Exception:
            log.append({"op": op.label, "check_error": traceback.format_exc(limit=3)})
            outcome = None
        if outcome is not None and not outcome.ok:
            log.append({"op": op.label, "failed_check": True})
        outcomes.append(outcome)
    return spent, outcomes


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    config_path = SMOKE_CONFIG if args.smoke else ""
    import_library()
    elapsed, mods, entries, families, spec_paths, cfg = set_up(workload.specs, config_path)
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(mods, entries, families, cfg, config_path, spec_paths, work, args.smoke)
    if not args.smoke:
        # the first dense solves of a process run several times slower; one
        # untimed round at smoke size brings them to their steady speed
        warm = dataclasses.replace(ctx, cfg=mods.config.RunConfig.from_json(SMOKE_CONFIG),
                                   config_path=SMOKE_CONFIG, smoke=True)
        run_round(workload.build_round(warm, np.random.default_rng([args.seed, 1 << 21])), [], [])
    # set-up samples are spread over the run, so that their median is not
    # decided by a few seconds in which the machine happens to be slow
    setups = [elapsed] + [time_set_up(workload.specs, config_path)
                          for _ in range(SETUP_EDGE - 1)]
    log: list = []
    plain, traced, outcomes, op_times = [], [], [], []
    tracer = Tracer(mods)
    try:
        start = time.perf_counter()
        i = 0
        while True:
            build = lambda: workload.build_round(ctx, np.random.default_rng([args.seed, i]))
            spent, got = run_round(build(), log, op_times)
            plain.append(spent)
            outcomes += got
            if args.trace:
                with tracer:
                    spent, got = run_round(build(), log, op_times)
                traced.append(spent)
                outcomes += got
            setups.append(time_set_up(workload.specs, config_path))
            i += 1
            elapsed = time.perf_counter() - start
            if args.smoke or elapsed + elapsed / i > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups += [time_set_up(workload.specs, config_path) for _ in range(SETUP_EDGE)]

    done = [o for o in outcomes if o is not None]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is None or not o.ok)
    colored = sum(o.colored for o in done)
    contradicting = sum(o.contradicting for o in done)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(plain),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": (attempted - failed) / attempted,
        "conclusive_share": sum(o.conclusive for o in done) / max(colored, 1),
        "consistent_share": (colored - contradicting) / max(colored, 1),
    }
    report = {
        "environment": environment(args, cfg),
        "setup_s_samples": setups,
        "round_s": plain,
        "traced_round_s": traced,
        "op_s": op_times,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "cells_colored": colored,
        "contradicting_cells": contradicting,
        "end_to_end": end_to_end,
        "log": log,
    }
    if args.trace:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = sum(o.bytes_written for o in done)
        layers["checks.fail_rate"] = failed / attempted
        layers["checks.contradicting_cells"] = contradicting
        layers["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
        layers.update(run_probe(mods, cfg, probe_cases(args, ctx, workload, done)))
        report["per_layer"] = layers
        report["spans_file"] = write_spans(args, tracer)
    return report


def probe_cases(args, ctx, workload, done) -> list:
    """A seeded sample of the cells that made summaries, plus the workload's reference cases."""
    n = min(PROBE_N, ctx.cfg.scan_n_max)
    pool = [case for o in done for case in o.cases]
    rng = np.random.default_rng([args.seed, 1 << 20])
    picks = rng.choice(len(pool), size=min(PROBE_SAMPLES, len(pool)), replace=False) \
        if pool else []
    cases = [pool[int(k)] + (n,) for k in picks]
    return cases + [case[:4] + (min(case[4], ctx.cfg.scan_n_max),)
                    for case in workload.reference_cases(ctx)]


def write_spans(args, tracer) -> str:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-spans.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans},
                  handle)
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# output


def print_report(report: dict) -> None:
    env = report["environment"]
    e2e = report["end_to_end"]
    print(f"# {env['workload']} seed={env['seed']} rounds={len(report['round_s'])} "
          f"ops={report['attempted']} failed={report['failed']} "
          f"cells={report['cells_colored']}")
    print(f"# numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
          f"blas threads {[b.get('threads') for b in env['openblas']]}")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(report['setup_s_samples'])}"),
        ("wall_s", e2e["wall_s"], "s", f"median of {len(report['round_s'])} rounds"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss"),
        ("fail_rate", report["fail_rate"], "share", "reported as pass_share"),
        ("conclusive_share", e2e["conclusive_share"], "share", ""),
        ("contradicting_cells", report["contradicting_cells"], "count",
         "reported as consistent_share"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:>22} {value:>14.6g} {unit:<6} {note}")
    for name, value in report.get("per_layer", {}).items():
        print(f"{name:>44} {value:>14.6g}")
    for entry in report["log"]:
        print(f"# {json.dumps(entry)}")


def result_line(report: dict, trace: bool) -> str:
    metrics = report["per_layer"] if trace else report["end_to_end"]
    units = dict(LAYER_METRICS) if trace else dict(END_TO_END)
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    })


def write_report(report: dict) -> None:
    env = report["environment"]
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)


def smoke() -> int:
    status = 0
    for name in WORKLOADS:
        args = SimpleNamespace(workload=name, seed=0, seconds=1, trace=1, smoke=True)
        report = run(args)
        missing = [k for k, _ in LAYER_METRICS if k not in report["per_layer"]]
        ok = report["failed"] == 0 and report["attempted"] > 0 and not missing
        status = status or (0 if ok else 1)
        print(f"smoke {name}: {'ok' if ok else 'FAILED'} ops={report['attempted']} "
              f"failed={report['failed']} wall={report['end_to_end']['wall_s']:.3f}s "
              f"missing={missing}")
        for entry in report["log"]:
            print(f"#   {json.dumps(entry)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed < 0:
            parser.error("--workload and a non-negative --seed are required")
        report = run(args)
    except SetupError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    write_report(report)
    print_report(report)
    print(result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
