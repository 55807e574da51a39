"""The traced run: a workload's cells driven serially, layer by layer.

Each cell calls the same public functions, in the same order, as
``ExperimentRunner.run``, with one span around each call (see
:mod:`spans`). Work the runner does not split out, such as epoch
flushes and load-time certification inside the VM, is timed through a
recorder subclass and a wrapped code-event hook. Calls to
``CFG.from_function``, the dominator computation, ``verify_function``
and the builtin ``compile`` are counted by rebinding those names in
every loaded ``repro`` module for the length of the run; nothing in
``src/`` changes.

After each cell, a *probe* runs the cell's transformed program again.
Process-wide lowering caches are warm by then, so the probe's time is
steady execution, and execute minus probe is the cell's first-run
lowering. Probes are kept outside the cell spans and out of every
count. Spans are later host-normalized with spins taken around and
during their cell, as in ``sweep.py``.

Usage (``run.py`` starts it after the untraced sweeps)::

    python3 perfbench/traced.py --workload short --engine fast --seed 1 \
        --work DIR --out RESULT.json
"""

from __future__ import annotations

import argparse
import builtins
import collections
import json
import os
import re
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import (
    IncrementalCertifier,
    audit_program,
    reconcile,
    reconcile_profile,
    reconcile_stream,
)
from repro.bytecode import verifier
from repro.bytecode.verifier import verify_program
from repro.cfg import dominators
from repro.cfg.graph import CFG
from repro.errors import HarnessError
from repro.frontend.checker import check
from repro.frontend.codegen import generate
from repro.frontend.parser import parse
from repro.harness.experiment import DEFAULT_FUEL, make_instrumentations
from repro.instrument.call_edge import assign_call_site_ids
from repro.opt.pipeline import optimize_program
from repro.profiling.decomposition import decompose
from repro.profiling.profiler import (
    DEFAULT_INTERVAL,
    OverheadProfiler,
    merge_snapshots,
)
from repro.sampling import Strategy
from repro.sampling.framework import SamplingFramework
from repro.sampling.properties import property1_vs_baseline
from repro.sampling.triggers import make_trigger
from repro.sampling.yieldpoints import insert_yieldpoints
from repro.telemetry import SpoolReader, StreamingRecorder
from repro.telemetry.manifest import RunManifest, spec_as_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.vm.cost_model import CostModel
from repro.vm.interpreter import VM
from repro.workloads.suite import get_workload, prepare_baseline

from cells import ENGINES, WORKLOADS, cell_key, make_cells
from spans import READ_CELL, PROBE_SPAN, SETUP_CELL, Tracer
from sweep import REFERENCE_SPIN_S, HostSpeed, host_spin, profile_digest, to_spec

DUPLICATING = (Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION)


class CallCounter:
    """Counts calls to a few ``repro`` functions while installed."""

    def __init__(self):
        self.counts: Dict[str, int] = collections.Counter()
        self.enabled = True
        self._undo: List[tuple] = []

    def _wrap(self, key, original):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return original(*args, **kwargs)

        return counted

    def rebind_function(self, key: str, original) -> None:
        """Point every ``repro`` module global bound to *original* at a
        counting wrapper (covers ``from x import f`` at module level)."""
        wrapper = self._wrap(key, original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def rebind_attr(self, key: str, owner, attr: str) -> None:
        original = owner.__dict__[attr]
        target = original.__func__ if isinstance(original, classmethod) else original
        wrapper = self._wrap(key, target)
        setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


@contextmanager
def counting():
    counter = CallCounter()
    counter.rebind_attr("cfg.builds", CFG, "from_function")
    counter.rebind_function("cfg.dominator_builds", dominators.immediate_dominators)
    counter.rebind_function("bytecode.verify_calls", verifier.verify_function)
    counter.rebind_attr("vm.py_compiles", builtins, "compile")
    try:
        yield counter
    finally:
        counter.restore()


class TimedStreamingRecorder(StreamingRecorder):
    """A streaming recorder whose mid-run epoch flushes are spans."""

    __slots__ = ("tracer",)

    def flush_epoch(self, force: bool = False) -> bool:
        with self.tracer.span("telemetry.flush"):
            return super().flush_epoch(force)


@dataclass
class Baseline:
    program: object
    result: object


class TracedPipeline:
    """One engine's traced sweep; mirrors ``ExperimentRunner.run``."""

    def __init__(self, engine: str, tracer: Tracer, counter: Optional[CallCounter] = None,
                 stream: Optional[str] = None):
        self.engine = engine
        self.tracer = tracer
        self.counter = counter
        self.stream = stream
        self.cost_model = CostModel()
        self.fuel = DEFAULT_FUEL
        self.programs: Dict[tuple, object] = {}
        self.baselines: Dict[tuple, Baseline] = {}
        self.snapshots: List[dict] = []
        self.spools: List[tuple] = []
        self.metrics = MetricsRegistry()
        self.exact = collections.Counter()

    # -- set-up: workloads -> frontend -> opt -> bytecode verifier ---------

    def setup(self, name: str, scale: Optional[int]) -> None:
        """Build the baseline program as ``Workload.compile`` does."""
        span = self.tracer.span
        workload = get_workload(name)
        actual = workload.default_scale if scale is None else scale
        if workload.builder is not None:
            with span("workloads", workload=name):
                program = prepare_baseline(workload.builder(actual))
        else:
            with span("workloads", workload=name):
                source = workload.render_source(actual)
            with span("frontend", workload=name):
                program = generate(check(parse(source)), entry="main")
            with span("bytecode.verify", workload=name):
                verify_program(program)
            with span("opt", workload=name):
                program = optimize_program(program, level=2)
            self.exact["opt.code_bytes"] += program.total_code_size_bytes()
            with span("bytecode.verify", workload=name):
                verify_program(program)
            with span("workloads", workload=name):
                program = insert_yieldpoints(program)
                assign_call_site_ids(program)
            with span("bytecode.verify", workload=name):
                verify_program(program)
        self.programs[(name, scale)] = program

    # -- one cell ------------------------------------------------------------

    def baseline(self, name: str, scale: Optional[int]) -> Baseline:
        key = (name, scale)
        if key not in self.baselines:
            program = self.programs[key].copy()
            with self.tracer.span("vm.baseline", workload=name):
                result = VM(program, cost_model=self.cost_model, fuel=self.fuel,
                            timer_period=100_000, engine=self.engine).run()
            self.baselines[key] = Baseline(program, result)
        return self.baselines[key]

    def _spool(self, prefix: str, cell) -> Optional[str]:
        if self.stream is None:
            return None
        return os.path.join(self.stream, prefix + re.sub(r"[^A-Za-z0-9@.=_-]+", "-", cell_key(cell)))

    def _observers(self, spec, path: Optional[str]):
        if self.stream is None:
            return None, None
        profiler = OverheadProfiler(interval=DEFAULT_INTERVAL, cct=True)
        with self.tracer.span("telemetry.open"):
            recorder = TimedStreamingRecorder(
                path, capacity=65536, profiler=profiler, label=spec.describe(),
                meta={"workload": spec.workload, "strategy": spec.strategy.value,
                      "engine": self.engine, "trigger": spec.trigger,
                      "interval": spec.interval,
                      "instrumentation": list(spec.instrumentation)},
            )
            recorder.tracer = self.tracer
        return recorder, profiler

    def run_cell(self, cell) -> Dict[str, object]:
        """Run one cell with spans; returns what the checks compare."""
        spec = to_spec(cell)
        span = self.tracer.span
        self.tracer.cell = cell_key(cell)
        with span("cell"):
            base = self.baseline(spec.workload, spec.scale)
            with span("sampling.transform"):
                instrumentations = make_instrumentations(spec.instrumentation)
                framework = SamplingFramework(spec.strategy)
                transformed = framework.transform(base.program, instrumentations)
            self.exact["sampling.transform_calls"] += 1
            with span("analysis.audit"):
                audit = audit_program(transformed, strategy=spec.strategy.value,
                                      label=spec.describe())
            if not audit.ok:
                raise HarnessError(f"{spec.describe()}: static audit failed")
            certifier = None
            if transformed.is_dynamic():
                with span("analysis.certify"):
                    certifier = IncrementalCertifier.from_program(
                        transformed, strategy=spec.strategy.value, label=spec.describe())
            trigger = make_trigger(spec.trigger, spec.interval, phase=spec.phase)
            recorder, profiler = self._observers(spec, self._spool("", cell))
            with span("vm.execute") as execute:
                vm = VM(transformed, cost_model=self.cost_model, trigger=trigger,
                        timer_period=spec.timer_period, fuel=self.fuel,
                        engine=self.engine, recorder=recorder, profiler=profiler)
                if certifier is not None:
                    certifier.attach(vm)
                    vm.on_code_event = self._traced_hook(certifier.on_event)
                result = vm.run()
            if result.value != base.result.value or result.output != base.result.output:
                raise HarnessError(f"{spec.describe()}: transformed program diverged")
            if spec.strategy in DUPLICATING and not property1_vs_baseline(
                    result.stats, base.result.stats):
                raise HarnessError(f"{spec.describe()}: Property 1 violated")
            with span("analysis.reconcile"):
                if certifier is not None:
                    if not certifier.ok:
                        raise HarnessError(f"{spec.describe()}: loaded code failed its audit")
                    verdict = reconcile(certifier.dynamic_certificate(), result.stats)
                else:
                    verdict = reconcile(audit.certificate, result.stats)
            if not verdict.ok:
                raise HarnessError(f"{spec.describe()}: run contradicts its certificate")
            payload = None
            if profiler is not None:
                with span("profiling.snapshot"):
                    snapshot = profiler.snapshot()
                with span("analysis.reconcile"):
                    bound = reconcile_profile(snapshot)
                if not bound.ok:
                    raise HarnessError(f"{spec.describe()}: profiler sample bound violated")
                with span("profiling.snapshot"):
                    payload = {"snapshot": snapshot,
                               "decomposition": decompose(
                                   snapshot, measured_wall=execute.duration).as_dict(),
                               "bound": bound.as_dict()}
                self.snapshots.append(snapshot)
            code_bytes = transformed.total_code_size_bytes()
            digest = profile_digest({i.profile.name: i.profile for i in instrumentations})
            if recorder is not None:
                self._seal(spec, trigger, result, recorder, payload, audit, verdict)
        self._probe(spec, cell, transformed)
        stats = result.stats
        self.exact["sampling.code_bytes"] += code_bytes
        self.exact["vm.instructions"] += stats.instructions
        self.exact["vm.cycles"] += stats.cycles
        self.exact["vm.checks"] += stats.checks_executed
        self.exact["vm.samples"] += stats.samples_taken
        return {"key": cell_key(cell), "value": repr(result.value),
                "cycles": result.cycles, "stats": stats.as_dict(),
                "profiles": digest}

    def _traced_hook(self, on_event):
        def hook(*args):
            with self.tracer.span("analysis.certify"):
                on_event(*args)
        return hook

    def _seal(self, spec, trigger, result, recorder, payload, audit, verdict) -> None:
        """Freeze metrics, seal the spool, build and absorb the manifest."""
        with self.tracer.span("telemetry.seal"):
            recorder.sync_metrics()
            recorder.close()
            recorder.records()
            manifest = RunManifest(
                spec=spec_as_dict(spec), engine=self.engine, trigger=trigger.config(),
                seed=None, cycles=result.stats.cycles, value=result.value,
                wall_seconds=0.0, stats=result.stats.as_dict(),
                metrics=recorder.metrics.snapshot(), telemetry=recorder.summary(),
                source="serial",
                analysis={"ok": audit.ok, "verdict": verdict.as_dict()},
                profiling=payload or {}, plan={},
            )
            self.metrics.merge_snapshot(manifest.metrics)
        self.spools.append((self.tracer.cell, str(recorder.writer.path), result.stats,
                            int(manifest.telemetry.get("dropped_events", 0))))
        self.exact["telemetry.epochs"] += recorder.epochs_flushed

    def _probe(self, spec, cell, transformed) -> None:
        """Run the cell's transformed program again, right after the
        cell, so host speed drifts little between the two runs."""
        path = self._spool("probe-", cell)
        if self.counter is not None:
            self.counter.enabled = False
        try:
            with self.tracer.span(PROBE_SPAN):
                recorder, profiler = self._observers(spec, path)
                VM(transformed, cost_model=self.cost_model,
                   trigger=make_trigger(spec.trigger, spec.interval, phase=spec.phase),
                   timer_period=spec.timer_period, fuel=self.fuel,
                   engine=self.engine, recorder=recorder, profiler=profiler).run()
        finally:
            if self.counter is not None:
                self.counter.enabled = True
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)

    # -- observed read side ----------------------------------------------

    def read_back(self) -> None:
        span = self.tracer.span
        self.tracer.cell = READ_CELL
        for key, path, stats, dropped in self.spools:
            with span("cell.read", of=key):
                with span("telemetry.read"):
                    reader = SpoolReader(path)
                    records = reader.records()
                with span("analysis.reconcile"):
                    verdict = reconcile_stream(stats, records, dropped_events=dropped)
            if not (verdict.ok and reader.closed):
                raise HarnessError(f"{path}: spool does not reconcile with the run")
        with span("sweep.merge"):
            with span("profiling.merge"):
                merge_snapshots(self.snapshots)
        self.exact["telemetry.spool_bytes"] += sum(
            os.path.getsize(os.path.join(root, name))
            for _, path, _, _ in self.spools
            for root, _, names in os.walk(path) for name in names)


def traced_sweep(workload: str, engine: str, seed: int, work: str) -> Dict[str, object]:
    cells = make_cells(workload, seed)
    tracer = Tracer()
    tracer.track = ENGINES.index(engine) + 1
    observed = WORKLOADS[workload]["observed"]
    stream = os.path.join(work, f"spools-traced-{engine}") if observed else None
    # Host speed around each piece of work, as in sweep.py: a span's
    # normalized time is its time times its cell's factor.
    factors: Dict[str, float] = {}
    sampler = HostSpeed()

    @contextmanager
    def host_speed(key: str):
        before = host_spin()
        started = time.perf_counter()
        yield
        spins = [before, host_spin()] + sampler.between(started, time.perf_counter())
        factors[key] = REFERENCE_SPIN_S * len(spins) / sum(spins)

    with counting() as counter:
        pipeline = TracedPipeline(engine, tracer, counter, stream)
        with host_speed(SETUP_CELL):
            tracer.cell = SETUP_CELL
            for name, scale in sorted({(c["workload"], c["scale"] or 0) for c in cells}):
                pipeline.setup(name, scale or None)
        setup_counts = dict(counter.counts)
        results = []
        for cell in cells:
            with host_speed(cell_key(cell)):
                results.append(pipeline.run_cell(cell))
        if observed:
            with host_speed(READ_CELL):
                pipeline.read_back()
        counts = {k: v - setup_counts.get(k, 0) for k, v in counter.counts.items()}
    return {
        "engine": engine,
        "cells": results,
        "counts": counts,
        "exact": dict(pipeline.exact),
        "factors": factors,
        "spans": [[s.sid, s.name, s.parent, s.cell, s.start, s.end, s.args]
                  for s in tracer.spans],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--engine", required=True, choices=ENGINES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    payload = traced_sweep(args.workload, args.engine, args.seed, args.work)
    with open(args.out, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
