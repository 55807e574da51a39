"""Instrumented-sweep benchmark: one command, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload short --seed 1 --seconds 20 --trace 0

``--trace 0`` runs rounds of the workload's untraced sweeps: one per
engine (fast, compiled), each in a fresh process with a fresh baseline
cache directory. It starts another round while that round would still
end within ``--seconds``, and prints the end-to-end metrics. Times are
host-normalized (see ``sweep.py``); raw wall times are printed too. ``--trace 1`` runs one untraced round, then the
traced run (``traced.py``) once per engine. It prints the per-layer
table, writes a Chrome trace under ``perfbench/out/``, and prints the
per-layer metrics. Either way, the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Every cell is checked: its value and output equal its baseline's (the
runner's semantic check, plus the value here); fast and compiled agree
bit for bit on cycles, ExecStats and profile counts; warm and traced
runs agree with the cold ones. Any mismatch, ``HarnessError`` or crash
counts as a failed cell, and a failed cell makes the command exit 1.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from cells import (
    END_TO_END,
    END_TO_END_TABLE_ONLY,
    ENGINES,
    PER_LAYER,
    WORKLOADS,
    make_cells,
)
from spans import PARENT_SPANS, PROBE_SPAN, Span, busy_by_name, write_chrome_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every child must end by then, so the command exits within 180 s.
DEADLINE_S = 170.0

SETUP_SPANS = {"workloads": "workloads.s", "frontend": "frontend.s",
               "opt": "opt.s", "bytecode.verify": "bytecode.verify_s"}
SWEEP_SPANS = {"sampling.transform": "sampling.transform_s",
               "analysis.audit": "analysis.audit_s",
               "analysis.certify": "analysis.certify_s",
               "analysis.reconcile": "analysis.reconcile_s",
               "telemetry.open": "telemetry.write_s",
               "telemetry.flush": "telemetry.write_s",
               "telemetry.seal": "telemetry.seal_s",
               "telemetry.read": "telemetry.read_s",
               "profiling.snapshot": "profiling.snapshot_s",
               "profiling.merge": "profiling.merge_s"}
ENGINE_SPANS = {"vm.baseline": "vm.baseline_s", "vm.execute": "vm.execute_s"}


class Children:
    """Starts the benchmark's child processes and always reaps them."""

    def __init__(self, started: float, work: str):
        self.deadline = started + DEADLINE_S
        self.work = work
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # Fixed string hashing: set and dict order, and with them the
        # children's memory layout, repeat from run to run.
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def run(self, script: str, *args: str) -> Optional[str]:
        """Run ``perfbench/<script>``; returns an error text or None."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return "no time left before the deadline"
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args], cwd=ROOT,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return f"{script} {' '.join(args)}: timed out"
        finally:
            # Pool workers share the child's process group; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            return f"{script} exited {proc.returncode}:\n{output[-2000:]}"
        return None


def load(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class Checks:
    """Counts attempted and failed cells; remembers why cells failed."""

    def __init__(self):
        self.attempted = 0
        self.failed_keys = set()
        self.errors: List[str] = []

    def sweep(self, label: str, error: Optional[str], result: Optional[dict], n_cells: int):
        self.attempted += n_cells
        if error is not None or result is None:
            self.failed_keys.update(f"{label}#{i}" for i in range(n_cells))
            self.errors.append(error or f"{label}: no result")
            return False
        for failure in result.get("failures", ()):
            self.failed_keys.add(f"{label}:{failure['cell']}")
            self.errors.append(f"{label}: {failure['cell']}: {failure['error']}")
        return True

    def agree(self, label: str, left: dict, right: dict, fields) -> None:
        """Cells of two runs of the same cells must match on *fields*."""
        rmap = {c["key"]: c for c in right["cells"]}
        for cell in left["cells"]:
            other = rmap.get(cell["key"])
            if other is None:
                continue  # already counted as failed where it is missing
            bad = [f for f in fields if cell[f] != other[f]]
            if bad:
                self.failed_keys.add(f"{label}:{cell['key']}")
                self.errors.append(f"{label}: {cell['key']} differs in {bad}")

    @property
    def failed(self) -> int:
        return len(self.failed_keys)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(kids: Children, workload: str, seed: int, checks: Checks) -> List[float]:
    """Set-up time of one more fresh process that only imports and
    compiles, so even a one-round run has three set-up samples."""
    out = os.path.join(kids.work, "setup.json")
    error = kids.run("sweep.py", "--workload", workload, "--engine", "fast",
                     "--seed", str(seed), "--out", out, "--setup-only")
    result = None if error else load(out)
    if result is None:
        checks.errors.append(error or "set-up process wrote no result")
        checks.failed_keys.add("setup")
        return []
    return [result["setup_norm_s"]]


def end_to_end(rounds: List[Dict[str, dict]], setups: List[float], checks: Checks):
    """End-to-end metrics from the untraced rounds.

    Returns (json metrics, table rows of (name, value, unit, note)).
    """
    metrics: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    setups = setups + [r["setup_norm_s"] for rnd in rounds for r in rnd.values() if r]
    metrics["setup_s"] = statistics.median(setups)
    notes["setup_s"] = f"median of {len(setups)} processes"
    for engine in ENGINES:
        colds = [rnd[f"cold.{engine}"] for rnd in rounds if rnd.get(f"cold.{engine}")]
        if not colds:
            continue
        metrics[f"sweep_s.{engine}"] = statistics.median(r["sweep_norm_s"] for r in colds)
        notes[f"sweep_s.{engine}"] = f"host-normalized, median of {len(colds)}"
        metrics[f"sweep_wall_s.{engine}"] = statistics.median(r["sweep_s"] for r in colds)
        notes[f"sweep_wall_s.{engine}"] = "raw wall time"
        warms = [rnd[f"warm.{engine}"] for rnd in rounds if rnd.get(f"warm.{engine}")]
        if warms:
            metrics[f"sweep_warm_s.{engine}"] = statistics.median(
                r["sweep_norm_s"] for r in warms)
            notes[f"sweep_warm_s.{engine}"] = f"host-normalized, median of {len(warms)}"
        # Each cell's fastest time over the rounds: a slow spell of the
        # host rarely hits the same cell in every fresh process.
        best: Dict[str, float] = {}
        for r in colds:
            for c in r["cells"]:
                best[c["key"]] = min(c["norm_ms"], best.get(c["key"], math.inf))
        cell_ms = list(best.values())
        n = len(cell_ms)
        metrics[f"cell_ms_p50.{engine}"] = statistics.median(cell_ms)
        notes[f"cell_ms_p50.{engine}"] = f"n={n} cells, best of {len(colds)} rounds"
        beyond = n - math.ceil(0.9 * n)
        if n >= 100 and beyond >= 10:
            metrics[f"cell_ms_p90.{engine}"] = percentile(cell_ms, 0.9)
            notes[f"cell_ms_p90.{engine}"] = f"n={n}, {beyond} beyond"
        metrics[f"peak_rss_mb.{engine}"] = statistics.median(r["peak_rss_mb"] for r in colds)
    first = next((r for rnd in rounds for r in rnd.values() if r), None)
    if first is not None:
        cells = first["cells"]
        sampled = [c["overhead_pct"] for c in cells if c["interval"] >= 100]
        metrics["overhead_pct"] = statistics.fmean(sampled)
        notes["overhead_pct"] = f"{len(sampled)} sampled cells"
        metrics["code_growth_pct"] = statistics.fmean(
            100.0 * (c["code_bytes"] / c["base_code_bytes"] - 1.0) for c in cells)
        overlaps = [c["overlap_pct"] for c in cells if "overlap_pct" in c]
        if overlaps:
            metrics["overlap_pct"] = statistics.fmean(overlaps)
            notes["overlap_pct"] = f"{len(overlaps)} interval-1000 cells"
    metrics["cells_failed_frac"] = checks.failed / max(1, checks.attempted)
    notes["cells_failed_frac"] = f"{checks.failed} of {checks.attempted}"
    rows = []
    for name, (unit, _, _) in {**END_TO_END, **END_TO_END_TABLE_ONLY}.items():
        rows.append((name, metrics.get(name), unit, notes.get(name, "")))
    return {k: metrics[k] for k in END_TO_END if k in metrics}, rows


def spans_of(traced: dict) -> List[Span]:
    return [Span(sid=sid, name=name, parent=parent, cell=cell, start=start,
                 end=end, args=args)
            for sid, name, parent, cell, start, end, args in traced["spans"]]


def per_layer(traced: Dict[str, dict], untraced: Dict[str, dict], jobs: int):
    """Per-layer metrics from the traced runs (one per engine) and the
    untraced round. Returns (metrics, table rows, traffic lines).

    Span times are host-normalized with the factor measured around
    their cell, like the untraced sweeps. The traced run is serial, so
    a pooled untraced sweep counts as its time multiplied by the pool
    size.
    """
    metrics: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    cell_wall = 0.0
    traffic = []
    for engine in ENGINES:
        factors = traced[engine]["factors"]
        busy = busy_by_name(spans_of(traced[engine]),
                            weight=lambda span: factors.get(span.cell, 1.0))
        get = lambda name: busy.get(name, [0, 0.0])  # noqa: E731
        for span, metric in {**SETUP_SPANS, **SWEEP_SPANS}.items():
            # Set-up runs once per traced process: report the mean.
            share = 1 / len(ENGINES) if span in SETUP_SPANS else 1
            metrics[metric] += get(span)[1] * share
            calls[metric] += get(span)[0]
        for span, metric in ENGINE_SPANS.items():
            metrics[f"{metric}.{engine}"] = get(span)[1]
            calls[f"{metric}.{engine}"] = get(span)[0]
        sweep_spans = [n for n in busy if n != PROBE_SPAN and n not in SETUP_SPANS]
        wall = sum(get(n)[1] for n in sweep_spans)
        layers = sum(get(n)[1] for n in sweep_spans if n not in PARENT_SPANS)
        probe = get(PROBE_SPAN)[1]
        execute = get("vm.execute")[1]
        baseline = get("vm.baseline")[1]
        lower = execute - probe
        metrics[f"vm.lower_s.{engine}"] = lower
        metrics[f"vm.instr_per_s.{engine}"] = traced[engine]["exact"]["vm.instructions"] / probe
        counts = traced[engine]["counts"]
        metrics[f"vm.py_compiles.{engine}"] = counts.get("vm.py_compiles", 0)
        for key in ("cfg.builds", "cfg.dominator_builds", "bytecode.verify_calls"):
            metrics[key] += counts.get(key, 0)
        untraced_s = untraced[f"cold.{engine}"]["sweep_norm_s"] * jobs
        metrics["harness.self_s"] += untraced_s - layers
        cell_wall += wall
        observe = sum(get(n)[1] for n in sweep_spans
                      if n.startswith(("telemetry.", "profiling.")))
        non_vm = wall - execute - baseline
        traffic.append(
            f"  {engine:9s} wall {wall:7.2f} s | non-VM + lowering "
            f"{100 * (non_vm + lower) / wall:5.1f}% | steady execute "
            f"{100 * probe / wall:5.1f}% | baselines {100 * baseline / wall:5.1f}% | "
            f"telemetry + profiling {100 * observe / wall:4.1f}% | "
            f"tracing overhead {wall - untraced_s:+.2f} s")
    exact = traced["fast"]["exact"]
    for key in ("opt.code_bytes", "sampling.code_bytes", "vm.instructions",
                "vm.cycles", "vm.checks", "vm.samples"):
        metrics[key] = exact.get(key, 0)
    for key in ("sampling.transform_calls", "telemetry.spool_bytes", "telemetry.epochs"):
        metrics[key] = sum(traced[e]["exact"].get(key, 0) for e in ENGINES)
    sweeps = [r for r in untraced.values() if r]
    metrics["harness.cache_hits"] = sum(r["cache"]["hits"] for r in sweeps)
    metrics["harness.cache_misses"] = sum(r["cache"]["misses"] for r in sweeps)
    values = {name: int(metrics[name]) if unit == "count" else metrics[name]
              for name, (unit, _, _, _) in PER_LAYER.items()}
    rows = []
    for name, (unit, _, feeds, flat) in PER_LAYER.items():
        share = ""
        if unit == "s" and name not in SETUP_SPANS.values() and cell_wall > 0:
            share = f"{100 * values[name] / cell_wall:.1f}%"
        rows.append((name, calls.get(name, ""), values[name], unit, share, feeds, flat))
    return values, rows, traffic


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_round(kids: Children, workload: str, seed: int, index: int, work: str,
              checks: Checks, warm: bool) -> Dict[str, dict]:
    """Cold sweeps on both engines (and warm reruns), each a fresh process."""
    n_cells = len(make_cells(workload, seed))
    results: Dict[str, dict] = {}
    order = ENGINES if index % 2 == 0 else ENGINES[::-1]
    passes = [("cold", e) for e in order] + ([("warm", e) for e in order] if warm else [])
    for kind, engine in passes:
        cache = os.path.join(work, f"cache-{index}-{engine}")
        out = os.path.join(work, f"{kind}-{index}-{engine}.json")
        args = ["--workload", workload, "--engine", engine, "--seed", str(seed),
                "--cache", cache, "--out", out]
        if WORKLOADS[workload]["observed"]:
            args += ["--stream", os.path.join(work, f"spools-{kind}-{index}-{engine}")]
        error = kids.run("sweep.py", *args)
        result = None if error else load(out)
        label = f"{kind}.{engine}#{index}"
        if checks.sweep(label, error, result, n_cells):
            results[f"{kind}.{engine}"] = result
    exact = ["value", "cycles", "stats", "profiles", "code_bytes"]
    fast, compiled = results.get("cold.fast"), results.get("cold.compiled")
    if fast and compiled:
        checks.agree(f"fast-vs-compiled#{index}", fast, compiled, exact)
    for engine in ENGINES:
        cold, rerun = results.get(f"cold.{engine}"), results.get(f"warm.{engine}")
        if cold and rerun:
            checks.agree(f"cold-vs-warm.{engine}#{index}", cold, rerun, exact)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT}/src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2

    outdir = os.path.join(HERE, "out")
    work = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    kids = Children(started, work)
    checks = Checks()
    warm = WORKLOADS[args.workload]["warm"]
    try:
        setups = measure_setup(kids, args.workload, args.seed, checks)
        rounds = []
        while True:
            round_started = time.monotonic()
            rounds.append(run_round(kids, args.workload, args.seed, len(rounds),
                                    work, checks, warm=bool(args.trace and warm)))
            now = time.monotonic()
            if args.trace or now + (now - round_started) - started > args.seconds:
                break
        e2e, rows = end_to_end(rounds, setups, checks)
        print(f"workload {args.workload} (seed {args.seed}): "
              f"{WORKLOADS[args.workload]['why']}")
        print(f"{'metric':24s} {'value':>12s} {'unit':6s} note")
        for name, value, unit, note in rows:
            print(f"{name:24s} {fmt(value):>12s} {unit:6s} {note}")
        metrics = e2e
        if args.trace:
            metrics = trace_run(kids, args, work, outdir, rounds[0], checks)
        for error in checks.errors[:20]:
            print("FAILED:", error.strip().splitlines()[-1] if error.strip() else error)
        complete = all(name in metrics for name in
                       (PER_LAYER if args.trace else END_TO_END))
        correct = checks.failed == 0 and complete
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, checks.attempted),
            "failed": checks.failed if complete else max(1, checks.failed),
            "metrics": {name: {"value": value,
                               "unit": (PER_LAYER if args.trace else END_TO_END)[name][0]}
                        for name, value in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_run(kids: Children, args, work: str, outdir: str, untraced: Dict[str, dict],
              checks: Checks) -> Dict[str, float]:
    """Traced sweeps per engine; checks them against the untraced round."""
    traced: Dict[str, dict] = {}
    n_cells = len(make_cells(args.workload, args.seed))
    for engine in ENGINES:
        out = os.path.join(work, f"traced-{engine}.json")
        error = kids.run("traced.py", "--workload", args.workload, "--engine", engine,
                         "--seed", str(args.seed), "--work", work, "--out", out)
        result = None if error else load(out)
        if checks.sweep(f"traced.{engine}", error, result, n_cells):
            traced[engine] = result
            if untraced.get(f"cold.{engine}"):
                checks.agree(f"traced-vs-untraced.{engine}", result,
                             untraced[f"cold.{engine}"],
                             ["value", "cycles", "stats", "profiles"])
    if len(traced) < len(ENGINES) or any(f"cold.{e}" not in untraced for e in ENGINES):
        return {}
    jobs = min(WORKLOADS[args.workload]["jobs"], os.cpu_count() or 1)
    metrics, rows, traffic = per_layer(traced, untraced, jobs)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}")
    spans = [s for e in ENGINES for s in spans_of(traced[e])]
    write_chrome_trace(stem + ".trace.json", spans,
                       {i + 1: e for i, e in enumerate(ENGINES)})
    lines = [f"per-layer metrics, {args.workload} (seed {args.seed}); "
             "busy = self time summed over calls, both engines unless suffixed",
             f"{'metric':26s} {'calls':>7s} {'value':>12s} {'unit':6s} "
             f"{'share':>6s}  -> moves / flat on"]
    for name, count, value, unit, share, feeds, flat in rows:
        lines.append(f"{name:26s} {str(count):>7s} {fmt(value):>12s} {unit:6s} "
                     f"{share:>6s}  -> {feeds} / {flat}")
    lines.append("traffic (share of traced cell wall, per engine):")
    lines += traffic
    lines.append(f"chrome trace: {os.path.relpath(stem + '.trace.json', ROOT)}")
    text = "\n".join(lines)
    with open(stem + ".layers.txt", "w") as handle:
        handle.write(text + "\n")
    print(text)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
