"""One untraced sweep in a fresh process: ``ExperimentRunner.run_many``
over a workload's cells on one engine, results written as JSON.

Host speed on a shared machine drifts by tens of percent within
seconds, so every timing is also reported *normalized*. A fixed
pure-Python spin is timed right before and after each cell, and every
``SAMPLE_PERIOD_S`` during it by a sampler thread. The cell's time is
scaled by ``REFERENCE_SPIN_S / spin``, with the mean of those spins.
The result reads as seconds on a host where the spin takes
``REFERENCE_SPIN_S``. Raw wall times are kept alongside.

Usage (``run.py`` starts it; ``src`` must be importable)::

    python3 perfbench/sweep.py --workload short --engine fast --seed 1 \
        --cache DIR --out RESULT.json [--stream DIR]
"""

from __future__ import annotations

import threading
import time

#: The spin's time on an unloaded 2.1 GHz Xeon vCPU (CPython 3.11).
REFERENCE_SPIN_S = 250e-6
#: How often the sampler thread times the spin while a cell runs.
SAMPLE_PERIOD_S = 0.05


def host_spin() -> float:
    """Seconds a fixed pure-Python loop takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(3000):
            total += i & 7
            table[i & 63] = total
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Spin times taken every ``SAMPLE_PERIOD_S`` by a daemon thread.

    The thread holds the interpreter lock only while it spins, which
    stalls the sweep for about 1% of its time.
    """

    def __init__(self):
        self.samples = []  # (perf_counter, spin seconds)
        threading.Thread(target=self._sample, daemon=True).start()

    def _sample(self) -> None:
        while True:
            time.sleep(SAMPLE_PERIOD_S)
            self.samples.append((time.perf_counter(), host_spin()))

    def between(self, start: float, end: float):
        return [spin for when, spin in self.samples if start <= when <= end]


SPIN_AT_START = host_spin()
STARTED = time.perf_counter()  # set-up is timed from before ``import repro``

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from repro.analysis import reconcile_stream  # noqa: E402
from repro.harness import ExperimentRunner, RunSpec  # noqa: E402
from repro.harness.experiment import overhead_percent  # noqa: E402
from repro.profiles.overlap import overlap_percentage  # noqa: E402
from repro.sampling import Strategy  # noqa: E402
from repro.telemetry import SpoolReader  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

from cells import WORKLOADS, cell_key, make_cells  # noqa: E402


def to_spec(cell) -> RunSpec:
    return RunSpec(
        workload=cell["workload"],
        strategy=Strategy(cell["strategy"]),
        instrumentation=tuple(cell["instrumentation"]),
        trigger=cell["trigger"],
        interval=cell["interval"],
        scale=cell["scale"],
        phase=cell["phase"],
    )


def profile_digest(profiles) -> str:
    text = "|".join(profiles[name].to_json() for name in sorted(profiles))
    return hashlib.sha256(text.encode()).hexdigest()


def time_cells() -> None:
    """Record each computed cell's wall time and the mean host spin
    around and during it on its :class:`RunResult`. Pool workers fork
    from this process, so they inherit the wrapper (and start their own
    sampler) and ship both attributes back."""
    original = ExperimentRunner.run
    samplers = {}

    def run(self, spec):
        sampler = samplers.get(os.getpid())
        if sampler is None:
            sampler = samplers[os.getpid()] = HostSpeed()
        before = host_spin()
        started = time.perf_counter()
        result = original(self, spec)
        ended = time.perf_counter()
        if not hasattr(result, "host_spin"):  # not a memo hit
            spins = [before, host_spin()] + sampler.between(started, ended)
            result.host_seconds = ended - started
            result.host_spin = sum(spins) / len(spins)
        return result

    ExperimentRunner.run = run


def run_sweep(runner: ExperimentRunner, specs, failures):
    """``run_many`` over *specs*; on an error, each cell alone so the
    failures are counted per cell (finished cells are memo hits)."""
    try:
        return runner.run_many(specs)
    except Exception:  # noqa: BLE001 - every failure is counted below
        results = []
        for spec in specs:
            try:
                results.append(runner.run(spec))
            except Exception:  # noqa: BLE001
                failures.append({"cell": spec.describe(),
                                 "error": traceback.format_exc(limit=3)})
                results.append(None)
        return results


def read_back(results, failures):
    """The observed read side: every spool read and reconciled."""
    for result in results:
        if result is None:
            continue
        reader = SpoolReader(result.spool)
        dropped = int(result.manifest.telemetry.get("dropped_events", 0))
        verdict = reconcile_stream(result.stats, reader.records(),
                                   dropped_events=dropped)
        if not (verdict.ok and reader.closed):
            failures.append({"cell": result.spec.describe(),
                             "error": "spool does not reconcile with the run"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--engine", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache")
    parser.add_argument("--out", required=True)
    parser.add_argument("--stream", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and write only setup_s")
    args = parser.parse_args(argv)

    cells = make_cells(args.workload, args.seed)
    for name, scale in sorted({(c["workload"], c["scale"] or 0) for c in cells}):
        get_workload(name).compile(scale or None)
    setup_s = time.perf_counter() - STARTED
    setup_norm_s = setup_s * REFERENCE_SPIN_S / ((SPIN_AT_START + host_spin()) / 2)
    if args.setup_only:
        with open(args.out, "w") as handle:
            json.dump({"setup_s": setup_s, "setup_norm_s": setup_norm_s}, handle)
        return 0

    config = WORKLOADS[args.workload]
    observed = config["observed"]
    jobs = min(config["jobs"], os.cpu_count() or 1)
    runner = ExperimentRunner(
        engine=args.engine, cache=args.cache, jobs=jobs, ledger=False,
        stream=args.stream if observed else None, profile=observed,
    )
    specs = [to_spec(c) for c in cells]
    failures = []
    time_cells()
    started = time.perf_counter()
    results = run_sweep(runner, specs, failures)
    if observed:
        read_back(results, failures)
        runner.profile_summary()
    sweep_s = time.perf_counter() - started
    # Read before the checks below, which look baselines up again.
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    cache = {}
    for name in ("hits", "misses", "stores"):
        counter = runner.metrics.get(f"harness.baseline_cache.{name}")
        cache[name] = counter.value if counter is not None else 0

    out_cells = []
    raw = norm = 0.0
    for cell, spec, result in zip(cells, specs, results):
        if result is None:
            continue
        program, base = runner.baseline(spec.workload, spec.scale)
        norm_s = result.host_seconds * REFERENCE_SPIN_S / result.host_spin
        entry = {
            "key": cell_key(cell),
            "interval": spec.interval,
            "value": repr(result.value),
            "base_value": repr(base.value),
            "cycles": result.cycles,
            "base_cycles": base.stats.cycles,
            "stats": result.stats.as_dict(),
            "profiles": profile_digest(result.profiles),
            "code_bytes": result.code_bytes,
            "base_code_bytes": program.total_code_size_bytes(),
            "overhead_pct": overhead_percent(base.stats.cycles, result.cycles),
            "ms": result.host_seconds * 1e3,
            "norm_ms": norm_s * 1e3,
        }
        raw += result.host_seconds
        norm += norm_s
        if args.workload == "short" and spec.interval == 1000:
            # A memo hit: the sweep ran the interval-1 cell (paper 4.4).
            perfect = runner.perfect_profiles(
                spec.workload, spec.instrumentation, spec.scale, spec.strategy)
            entry["overlap_pct"] = overlap_percentage(
                perfect["call-edge"], result.profiles["call-edge"])
        if entry["value"] != entry["base_value"]:
            failures.append({"cell": spec.describe(), "error": "value differs from baseline"})
        out_cells.append(entry)

    payload = {
        "workload": args.workload,
        "engine": args.engine,
        "setup_s": setup_s,
        "setup_norm_s": setup_norm_s,
        "sweep_s": sweep_s,
        # Wall time scaled by the cells' time-weighted host speed.
        "sweep_norm_s": sweep_s * norm / raw if raw else sweep_s,
        "attempted": len(specs),
        "failures": failures,
        "cells": out_cells,
        "peak_rss_mb": rss_kb / 1024.0,
        "cache": cache,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
