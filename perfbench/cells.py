"""Workloads (cell sets) and metric definitions of the sweep benchmark.

A cell is a plain dict of :class:`repro.harness.RunSpec` fields, so
``run.py`` never imports :mod:`repro`. Every workload uses call-edge
instrumentation and the counter trigger; the runner keeps its semantic,
Property-1, audit, certify and reconcile checks on.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List

ENGINES = ("fast", "compiled")
STRATEGIES = ("full-duplication", "partial-duplication", "no-duplication")

#: The twelve suite workloads (``repro.workloads.workload_names()``).
SUITE = (
    "compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
    "optcompiler", "pbob", "volano", "dynload", "osr",
)

SHORT_INTERVALS = (1, 100, 1000, 10000)

#: ``long`` scales: large enough that VM execution is >=90% of every
#: cell and first-run lowering a small share of the sweep, on both tiers.
#: Only static workloads: dynload and osr load or replace code at a rate
#: that grows with scale, and each event is certified outside the VM.
LONG_SCALES = {"javac": 60, "db": 60, "compress": 12, "jess": 5}
LONG_INTERVAL = 1000

WORKLOADS: Dict[str, Dict[str, object]] = {
    "short": {
        "why": "144 default-scale cells: lowering, transform and audit are"
               " about half the wall time; cold then warm baseline cache",
        "warm": True, "jobs": 1, "observed": False,
    },
    "long": {
        "why": "12 scaled-up static cells: steady guest execution dominates,"
               " so lowering and non-VM stages are a small share",
        "warm": False, "jobs": 1, "observed": False,
    },
    "observed": {
        "why": "short's 108 sampled cells streamed and profiled on a 2-job"
               " pool, then every spool read back and profiles merged",
        "warm": False, "jobs": 2, "observed": True,
    },
}


def _cell(workload: str, strategy: str, interval: int, scale=None) -> Dict[str, object]:
    return {
        "workload": workload,
        "strategy": strategy,
        "instrumentation": ["call-edge"],
        "trigger": "counter",
        "interval": interval,
        "scale": scale,
        "phase": 0,
    }


def make_cells(name: str, seed: int) -> List[Dict[str, object]]:
    """The workload's cells in run order, with counter phases set.

    The seed fixes the order (process-wide lowering caches make the
    first cell of a transformed shape pay for lowering) and each
    sampled cell's counter phase. Interval-1 cells keep phase 0: they
    are the section 4.4 perfect profiles.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "long":
        cells = [
            _cell(w, s, LONG_INTERVAL, scale)
            for w, scale in LONG_SCALES.items() for s in STRATEGIES
        ]
    else:
        intervals = SHORT_INTERVALS if name == "short" else SHORT_INTERVALS[1:]
        cells = [_cell(w, s, i) for w in SUITE for s in STRATEGIES for i in intervals]
    rng = random.Random(f"{name}/{seed}")
    rng.shuffle(cells)
    for cell in cells:
        if cell["interval"] > 1:
            cell["phase"] = rng.randrange(cell["interval"])
    return cells


def cell_key(cell: Dict[str, object]) -> str:
    """Identity of a cell across engines and passes."""
    return "{workload}@{scale}/{strategy}/{interval}/{phase}".format(**cell)


# ---------------------------------------------------------------------------
# metrics

#: End-to-end metrics printed as JSON (every workload reports each).
#: name -> (unit, better, what it feeds / means)
END_TO_END = {
    "setup_s": ("s", "lower", "import repro + Workload.compile, median of sweep processes"),
    "sweep_s.fast": ("s", "lower", "cold run_many wall, empty cache dir"),
    "sweep_s.compiled": ("s", "lower", "cold run_many wall, empty cache dir"),
    "cell_ms_p50.fast": ("ms", "lower", "median instrumented cell wall (cell_log)"),
    "cell_ms_p50.compiled": ("ms", "lower", "median instrumented cell wall (cell_log)"),
    "peak_rss_mb.fast": ("MB", "lower", "sweep process peak RSS, pool workers included"),
    "peak_rss_mb.compiled": ("MB", "lower", "sweep process peak RSS, pool workers included"),
    "overhead_pct": ("%", "lower", "mean simulated overhead of sampled cells (exact)"),
    "code_growth_pct": ("%", "lower", "mean transformed code size over baseline (exact)"),
}

#: End-to-end metrics printed in the human table only, because they are
#: not defined on every workload (or are always 0 when outputs are
#: correct, which the JSON ``failed`` count already carries).
END_TO_END_TABLE_ONLY = {
    "sweep_wall_s.fast": ("s", "lower", "raw wall time of sweep_s.fast"),
    "sweep_wall_s.compiled": ("s", "lower", "raw wall time of sweep_s.compiled"),
    "sweep_warm_s.fast": ("s", "lower", "short only: second process, cache filled"),
    "sweep_warm_s.compiled": ("s", "lower", "short only: second process, cache filled"),
    "cell_ms_p90.fast": ("ms", "lower", "only with >=100 cells, >=10 beyond p90"),
    "cell_ms_p90.compiled": ("ms", "lower", "only with >=100 cells, >=10 beyond p90"),
    "cells_failed_frac": ("ratio", "lower", "failed / attempted, both engines"),
    "overlap_pct": ("%", "higher", "short only: interval-1000 vs interval-1 profile"),
}

#: Per-layer metrics from the traced run.
#: name -> (unit, better, end-to-end metric it should move, where it stays flat)
PER_LAYER = {
    "workloads.s": ("s", "lower", "setup_s", "-"),
    "frontend.s": ("s", "lower", "setup_s", "-"),
    "opt.s": ("s", "lower", "setup_s", "-"),
    "opt.code_bytes": ("count", "lower", "setup_s", "-"),
    "bytecode.verify_s": ("s", "lower", "setup_s", "-"),
    "sampling.transform_s": ("s", "lower", "sweep_s.*, cell_ms_p50.* on short", "long"),
    "sampling.transform_calls": ("count", "lower", "sweep_s.* on short", "long"),
    "sampling.code_bytes": ("count", "lower", "code_growth_pct", "-"),
    "analysis.audit_s": ("s", "lower", "sweep_s.* on short", "long"),
    "analysis.certify_s": ("s", "lower", "sweep_s.* on short", "long"),
    "analysis.reconcile_s": ("s", "lower", "sweep_s.* on short", "long"),
    "cfg.builds": ("count", "lower", "sweep_s.* on short", "long"),
    "cfg.dominator_builds": ("count", "lower", "sweep_s.* on short", "long"),
    "bytecode.verify_calls": ("count", "lower", "sweep_s.* on short", "long"),
    "vm.baseline_s.fast": ("s", "lower", "sweep_s.fast on long and cold short", "sweep_warm_s.fast"),
    "vm.baseline_s.compiled": ("s", "lower", "sweep_s.compiled on long and cold short", "sweep_warm_s.compiled"),
    "vm.execute_s.fast": ("s", "lower", "sweep_s.fast on long", "-"),
    "vm.execute_s.compiled": ("s", "lower", "sweep_s.compiled on long", "-"),
    "vm.lower_s.fast": ("s", "lower", "sweep_s.fast, cell_ms_p50.fast on short", "long"),
    "vm.lower_s.compiled": ("s", "lower", "sweep_s.compiled, cell_ms_p50.compiled on short", "long"),
    "vm.py_compiles.fast": ("count", "lower", "sweep_s.fast on short", "-"),
    "vm.py_compiles.compiled": ("count", "lower", "sweep_s.compiled, sweep_warm_s.compiled on short", "-"),
    "vm.instr_per_s.fast": ("1/s", "higher", "sweep_s.fast on long", "-"),
    "vm.instr_per_s.compiled": ("1/s", "higher", "sweep_s.compiled on long", "-"),
    "vm.instructions": ("count", "lower", "sweep_s.* on long", "-"),
    "vm.cycles": ("count", "lower", "overhead_pct", "every perf-only change"),
    "vm.checks": ("count", "lower", "overhead_pct", "every perf-only change"),
    "vm.samples": ("count", "lower", "overhead_pct", "every perf-only change"),
    "telemetry.write_s": ("s", "lower", "sweep_s.* on observed", "short"),
    "telemetry.seal_s": ("s", "lower", "sweep_s.* on observed", "short"),
    "telemetry.read_s": ("s", "lower", "sweep_s.* on observed", "short"),
    "telemetry.spool_bytes": ("count", "lower", "sweep_s.* on observed", "short"),
    "telemetry.epochs": ("count", "lower", "sweep_s.* on observed", "short"),
    "profiling.snapshot_s": ("s", "lower", "sweep_s.* on observed", "short"),
    "profiling.merge_s": ("s", "lower", "sweep_s.* on observed", "short"),
    "harness.cache_hits": ("count", "higher", "sweep_warm_s.* on short", "-"),
    "harness.cache_misses": ("count", "lower", "sweep_warm_s.* on short", "-"),
    "harness.self_s": ("s", "lower", "sweep_s.* on short", "long"),
}

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
