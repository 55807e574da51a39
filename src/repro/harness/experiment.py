"""Experiment runner: one place that composes workloads, instrumentation,
sampling strategies, triggers and the VM into measured runs.

Every benchmark in ``benchmarks/`` and every table generator in
:mod:`repro.harness.tables` goes through :class:`ExperimentRunner`, so
they all share baseline caching, semantic-preservation tripwires, and
Property-1 verification. Each cell runs the stages of :data:`STAGES`
over one :class:`Cell`; the ``trace``, ``metrics``, ``audit`` and
``profile`` commands run the same stages (docs/HARNESS.md). The runner
runs the per-shape half (:data:`SHAPE_STAGES`) once per transformed
program and hands its outputs to every other cell of that shape
(:class:`Shape`).
"""

from __future__ import annotations

import copy
import os
import re
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.analysis import (
    AuditReport,
    IncrementalCertifier,
    ReconcileVerdict,
    Severity,
    audit_program,
    reconcile,
    reconcile_plan,
    reconcile_profile,
    reconcile_stream,
)
from repro.bytecode.program import Program
from repro.errors import HarnessError
from repro.harness.baseline_cache import (
    CACHE_DIR_ENV,
    BaselineCache,
    baseline_key,
)
from repro.harness.formatting import render_table
from repro.harness.parallel import (
    CellOutcome,
    RunnerConfig,
    WorkerLost,
    cell_seed,
    effective_jobs,
    run_specs,
    shape_key,
)
from repro.instrument import (
    BranchBiasInstrumentation,
    CallEdgeInstrumentation,
    CCTInstrumentation,
    EdgeProfileInstrumentation,
    FieldAccessInstrumentation,
    BlockCountInstrumentation,
    Instrumentation,
    ParameterValueInstrumentation,
    PathProfileInstrumentation,
)
from repro.instrument.base import EmptyInstrumentation
from repro.profiles.profile import Profile
from repro.profiling.decomposition import DecompositionReport, decompose
from repro.profiling.ledger import PerfLedger, make_record, resolve_ledger
from repro.profiling.profiler import (
    DEFAULT_INTERVAL as DEFAULT_PROFILE_INTERVAL,
    OverheadProfiler,
    merge_snapshots,
)
from repro.sampling.framework import (
    SamplingFramework, Strategy, TransformReport, transform_planned,
)
from repro.sampling.properties import property1_vs_baseline
from repro.sampling.triggers import Trigger, make_trigger
from repro.profiles.overlap import overlap_percentage
from repro.telemetry.compaction import (
    CompactingRecorder,
    Record,
    inflate,
    sample_site_profile,
)
from repro.telemetry.exporters import (
    compact_jsonl_to_records,
    events_to_jsonl,
    records_to_compact_jsonl,
)
from repro.telemetry.manifest import RunManifest, spec_as_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.streaming import StreamingRecorder
from repro.vm.cost_model import CostModel
from repro.vm.engine import resolve_engine
from repro.vm.interpreter import VM, VMResult
from repro.vm.tracing import ExecStats
from repro.workloads.suite import Workload, get_workload

#: Default instruction budget for experiment runs.
DEFAULT_FUEL = 100_000_000

#: Registry of instrumentation kinds available to specs.
_INSTRUMENTATION_FACTORIES = {
    "call-edge": CallEdgeInstrumentation,
    "field-access": FieldAccessInstrumentation,
    "block-count": BlockCountInstrumentation,
    "edge-profile": EdgeProfileInstrumentation,
    "param-value": ParameterValueInstrumentation,
    "path-profile": PathProfileInstrumentation,
    "branch-bias": BranchBiasInstrumentation,
    "cct": CCTInstrumentation,
    "none": EmptyInstrumentation,
}


def make_instrumentations(kinds: Tuple[str, ...]) -> List[Instrumentation]:
    """Fresh instrumentation objects for the given kind names."""
    try:
        return [_INSTRUMENTATION_FACTORIES[kind]() for kind in kinds]
    except KeyError as exc:
        raise HarnessError(
            f"unknown instrumentation kind {exc.args[0]!r}; available: "
            f"{sorted(_INSTRUMENTATION_FACTORIES)}"
        ) from None


@dataclass(frozen=True)
class RunSpec:
    """A fully described experiment configuration."""

    workload: str
    strategy: Strategy = Strategy.EXHAUSTIVE
    instrumentation: Tuple[str, ...] = ("call-edge",)
    trigger: str = "never"  # never | counter | timer | randomized
    interval: Optional[int] = None
    yieldpoint_opt: bool = False
    scale: Optional[int] = None
    timer_period: int = 100_000
    #: counter-trigger phase (first sample arrives ``interval - phase``
    #: checks in); used to average out deterministic aliasing
    phase: int = 0
    #: randomized-trigger seed; None derives a deterministic per-cell
    #: seed from the spec content (see :func:`repro.harness.parallel.cell_seed`)
    seed: Optional[int] = None
    #: per-function strategy assignment — sorted (function, strategy
    #: value) pairs, the hashable form a
    #: :meth:`~repro.analysis.planner.StrategyPlan.key` produces. When
    #: set, the program is transformed by
    #: :func:`~repro.sampling.framework.transform_planned` with
    #: ``strategy`` as the default for unplanned functions, audited
    #: under the per-function stamps, and reconciled per function
    #: (:func:`~repro.analysis.reconcile.reconcile_plan`).
    plan: Optional[Tuple[Tuple[str, str], ...]] = None

    def describe(self) -> str:
        parts = [self.workload, self.strategy.value]
        if self.plan is not None:
            parts[1] = f"planned[{len(self.plan)}]/{self.strategy.value}"
        parts.append("+".join(self.instrumentation) or "none")
        if self.trigger != "never":
            parts.append(
                f"{self.trigger}"
                + (f"@{self.interval}" if self.interval else "")
            )
        if self.yieldpoint_opt:
            parts.append("yp-opt")
        return " / ".join(parts)


@dataclass
class RunResult:
    """Everything measured from one configured run."""

    spec: RunSpec
    value: int
    cycles: int
    stats: ExecStats
    profiles: Dict[str, Profile] = field(default_factory=dict)
    transform_report: Optional[TransformReport] = None
    transform_seconds: float = 0.0
    code_bytes: int = 0
    #: static audit of the transformed program
    audit: Optional[AuditReport] = None
    #: provenance document when the runner has telemetry enabled
    #: (picklable, so pool workers ship it back with the result)
    manifest: Optional[RunManifest] = None
    #: VM execution wall time for this cell (the profiled span; excludes
    #: transform, audit and verification work around the run)
    vm_seconds: float = 0.0
    #: self-profiling payload when the runner has profiling enabled:
    #: {"snapshot", "decomposition", "bound"} — plain dicts, picklable
    profile: Optional[Dict[str, object]] = None
    #: retained (compacted) telemetry stream when the runner has
    #: compaction enabled — a tuple of Events and SuppressedRuns;
    #: NamedTuples, so pool workers ship it back with the result
    records: Optional[Tuple[Record, ...]] = None
    #: path of the cell's live-export spool directory when the runner
    #: streams (``ExperimentRunner(stream=...)``); readable during and
    #: after the run with :class:`~repro.telemetry.SpoolReader`
    spool: Optional[str] = None


@dataclass
class CellRecord:
    """One computed experiment cell in the runner's timing log."""

    label: str
    seconds: float
    source: str  # "serial" | "pool:<pid>" | "baseline" | "baseline-cache"
    baseline_cache_hit: bool = False


@dataclass
class Cell:
    """One experiment cell on its way through :data:`STAGES`.

    :meth:`ExperimentRunner.run` and the ``trace``, ``metrics``,
    ``audit`` and ``profile`` commands each build one and hand it to
    :func:`run_stages`; every stage reads what the earlier ones filled
    in and adds its own fields. A cell is single-use: its trigger,
    recorder and profiler are stateful.
    """

    spec: RunSpec
    #: the untransformed program
    program: Program
    #: names the cell in errors, audit reports and certificates
    label: str
    engine: str
    #: the untransformed program's run, which ``verify`` compares against
    baseline: Optional[VMResult] = None
    cost_model: CostModel = field(default_factory=CostModel)
    fuel: int = DEFAULT_FUEL
    #: consecutive loop iterations per sample (full duplication)
    sample_iterations: int = 1
    #: also run the whole-program lint rules in ``audit``
    program_rules: bool = False
    #: receives the stages' ``harness.*`` counters
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: start of the cell's wall time (the manifest's ``wall_seconds``)
    started: float = field(default_factory=time.perf_counter)
    recorder: Optional[TelemetryRecorder] = None
    profiler: Optional[OverheadProfiler] = None
    # -- stage outputs --------------------------------------------------
    instrumentations: List[Instrumentation] = field(default_factory=list)
    transformed: Optional[Program] = None
    transform_report: Optional[TransformReport] = None
    transform_seconds: float = 0.0
    audit: Optional[AuditReport] = None
    certifier: Optional[IncrementalCertifier] = None
    trigger: Optional[Trigger] = None
    seed: Optional[int] = None
    result: Optional[VMResult] = None
    #: VM construction plus ``run()``; the decomposition's measured wall
    vm_seconds: float = 0.0
    verdict: Optional[ReconcileVerdict] = None
    #: profiler sample-bound verdict and overhead decomposition
    bound: Optional[ReconcileVerdict] = None
    decomposition: Optional[DecompositionReport] = None
    #: {"snapshot", "decomposition", "bound"} — plain dicts, picklable
    profile: Optional[Dict[str, object]] = None
    records: Optional[Tuple[Record, ...]] = None
    spool: Optional[str] = None
    manifest: Optional[RunManifest] = None

    def observe(
        self,
        telemetry: bool = False,
        capacity: int = 65536,
        compaction: bool = False,
        spool: Optional[str] = None,
        profile_interval: Optional[int] = None,
    ) -> None:
        """Choose the cell's profiler and recorder.

        *profile_interval* attaches an :class:`OverheadProfiler`
        (context-keyed when streaming). *spool* streams epochs to that
        directory through a :class:`StreamingRecorder`; otherwise
        *telemetry* attaches a plain or, with *compaction*, a
        compacting recorder.
        """
        if profile_interval is not None:
            self.profiler = OverheadProfiler(
                interval=profile_interval, cct=spool is not None
            )
        spec = self.spec
        if spool is not None:
            self.recorder = StreamingRecorder(
                spool,
                capacity=capacity,
                profiler=self.profiler,
                label=self.label,
                meta=dict(
                    workload=spec.workload, strategy=spec.strategy.value,
                    engine=self.engine, trigger=spec.trigger,
                    interval=spec.interval,
                    instrumentation=list(spec.instrumentation),
                ),
            )
        elif telemetry:
            self.recorder = (
                CompactingRecorder(capacity=capacity)
                if compaction
                else TelemetryRecorder(capacity=capacity)
            )

    def run_result(self) -> RunResult:
        """The :class:`RunResult` of a cell that passed every stage."""
        value, stats = self.result.value, self.result.stats
        return RunResult(
            self.spec, value, stats.cycles, stats,
            profiles={
                i.profile.name: _own_profile(i.profile)
                for i in self.instrumentations
            },
            transform_report=self.transform_report,
            transform_seconds=self.transform_seconds,
            code_bytes=self.transformed.total_code_size_bytes(),
            audit=self.audit,
            manifest=self.manifest,
            vm_seconds=self.vm_seconds,
            profile=self.profile,
            records=self.records,
            spool=self.spool,
        )


def spec_trigger(spec: RunSpec) -> Tuple[Trigger, Optional[int]]:
    """The sampling trigger *spec* describes, and the seed it uses.

    A randomized trigger is seeded from the spec — its explicit seed,
    else :func:`cell_seed` — so the jitter stream, and with it the
    cell's result, is independent of process, order and pool size.
    """
    if spec.trigger == "randomized":
        seed = spec.seed if spec.seed is not None else cell_seed(spec)
        return make_trigger(spec.trigger, spec.interval, seed=seed), seed
    if spec.trigger == "counter" and spec.phase:
        trigger = make_trigger(spec.trigger, spec.interval, phase=spec.phase)
    else:
        trigger = make_trigger(spec.trigger, spec.interval)
    return trigger, spec.seed


def _transform(cell: Cell) -> None:
    spec = cell.spec
    cell.instrumentations = make_instrumentations(spec.instrumentation)
    started = time.perf_counter()
    if spec.plan is not None:
        # Mixed-strategy transform: each function under its planned
        # strategy, spec.strategy as the default, and a PlannedLoader
        # keeping dynamically arriving code on plan.
        cell.transformed = transform_planned(
            cell.program, cell.instrumentations, dict(spec.plan),
            default=spec.strategy, yieldpoint_opt=spec.yieldpoint_opt,
        )
    else:
        framework = SamplingFramework(
            spec.strategy, yieldpoint_opt=spec.yieldpoint_opt,
            sample_iterations=cell.sample_iterations,
        )
        checks_only = spec.strategy in (
            Strategy.CHECKS_ONLY_ENTRY, Strategy.CHECKS_ONLY_BACKEDGE,
        )
        cell.transformed = framework.transform(
            cell.program, None if checks_only else cell.instrumentations
        )
        cell.transform_report = framework.last_report
    cell.transform_seconds = time.perf_counter() - started


def _audit(cell: Cell) -> None:
    # Planned programs mix strategies, so the per-function
    # ``notes["sampling"]`` stamps are authoritative for the audit (a
    # single expected strategy would raise AUD009 mismatches).
    spec = cell.spec
    strategy = None if spec.plan is not None else spec.strategy.value
    cell.audit = audit_program(
        cell.transformed, strategy=strategy, label=cell.label,
        program_rules=cell.program_rules,
    )
    _admit(cell)


def _admit(cell: Cell) -> None:
    """The per-cell half of ``audit``, which a reused :class:`Shape`
    runs too: count the cell's audit, fail the cell on an ERROR
    finding, and give a dynamic program the cell's own certifier."""
    report = cell.audit
    cell.metrics.counter("harness.audit.cells").inc()
    if report.findings:
        cell.metrics.counter("harness.audit.findings").inc(
            len(report.findings)
        )
    if not report.ok:
        raise HarnessError(
            f"{cell.label}: static audit failed\n" + report.render()
        )
    # Dynamic programs change their function table mid-run, so the
    # pre-run certificate stops describing the executed code: an
    # incremental certifier audits every loaded/replaced function at
    # its load event and maintains the certificate by deltas.
    if cell.transformed.is_dynamic():
        cell.certifier = IncrementalCertifier.from_program(
            cell.transformed, strategy=report.strategy, label=cell.label
        )


def _execute(cell: Cell) -> None:
    cell.trigger, cell.seed = spec_trigger(cell.spec)
    started = time.perf_counter()
    vm = VM(
        cell.transformed, cost_model=cell.cost_model, trigger=cell.trigger,
        timer_period=cell.spec.timer_period, fuel=cell.fuel,
        engine=cell.engine, recorder=cell.recorder, profiler=cell.profiler,
    )
    if cell.certifier is not None:
        cell.certifier.attach(vm)
    cell.result = vm.run()
    cell.vm_seconds = time.perf_counter() - started


_DUPLICATING = frozenset(
    {Strategy.FULL_DUPLICATION.value, Strategy.PARTIAL_DUPLICATION.value}
)


def _verify(cell: Cell) -> None:
    result, base, spec = cell.result, cell.baseline, cell.spec
    if result.value != base.value or result.output != base.output:
        raise HarnessError(
            f"{cell.label}: transformed program diverged "
            f"(value {result.value} vs {base.value})"
        )
    strategies = {spec.strategy.value}
    strategies.update(value for _, value in spec.plan or ())
    if strategies & _DUPLICATING and not property1_vs_baseline(
        result.stats, base.stats
    ):
        raise HarnessError(
            f"{cell.label}: Property 1 violated "
            f"(checks={result.stats.checks_executed}, "
            f"bound={base.stats.check_opportunities})"
        )


def _reconcile(cell: Cell) -> None:
    """Hold the run's check counters to the cell's certificate: the
    incrementally maintained one for dynamic programs (code loaded
    mid-run can introduce checks the pre-run certificate never
    promised), else the static audit's. Planned (mixed-strategy) runs
    reconcile per function when telemetry is on — a no-duplication
    function must never execute a CHECK — and against the whole-program
    bound otherwise."""
    certifier, stats = cell.certifier, cell.result.stats
    if certifier is not None and not certifier.ok:
        raise HarnessError(
            f"{cell.label}: dynamically loaded code failed its audit "
            f"({certifier.loads} load(s), {certifier.replaces} replace(s))"
        )
    if certifier is not None:
        certificate = certifier.dynamic_certificate()
    else:
        certificate = cell.audit.certificate
    if cell.spec.plan is not None:
        recorder = cell.recorder
        measured = None if recorder is None else recorder.metrics.snapshot()
        verdict = reconcile_plan(certificate, stats, measured)
    else:
        verdict = reconcile(certificate, stats)
    cell.metrics.counter("harness.audit.reconciled").inc()
    if not verdict.ok:
        cell.metrics.counter("harness.audit.reconcile_violations").inc(
            len(verdict.violations)
        )
        kind = "incremental cost" if certifier is not None else "cost"
        raise HarnessError(
            f"{cell.label}: run contradicts its {kind} certificate: "
            + "; ".join(verdict.violations)
        )
    cell.verdict = verdict


def _profile(cell: Cell) -> None:
    if cell.profiler is None:
        return
    snapshot = cell.profiler.snapshot()
    bound = reconcile_profile(snapshot)
    cell.metrics.counter("harness.profile.cells").inc()
    if not bound.ok:
        raise HarnessError(
            f"{cell.label}: profiler sample bound violated: "
            + "; ".join(bound.violations)
        )
    cell.bound = bound
    cell.decomposition = decompose(snapshot, measured_wall=cell.vm_seconds)
    cell.profile = {
        "snapshot": snapshot,
        "decomposition": cell.decomposition.as_dict(),
        "bound": bound.as_dict(),
    }


def _seal(cell: Cell) -> None:
    recorder = cell.recorder
    if recorder is None:
        return
    wall_seconds = time.perf_counter() - cell.started
    # Ring occupancy / eviction / compaction counters become first-class
    # metrics before the snapshot is frozen into the manifest.
    recorder.sync_metrics()
    if isinstance(recorder, StreamingRecorder):
        # Seal the spool after metrics are frozen and before the
        # manifest snapshot is taken, so the spool's merged end-of-run
        # state and the manifest agree bit-for-bit.
        recorder.close()
        cell.spool = str(recorder.writer.path)
        cell.metrics.counter("harness.stream.cells").inc()
    if isinstance(recorder, CompactingRecorder):
        cell.records = recorder.records()
    audit, stats = cell.audit, cell.result.stats
    cell.manifest = RunManifest(
        spec=spec_as_dict(cell.spec),
        engine=cell.engine,
        trigger=cell.trigger.config(),
        seed=cell.seed,
        cycles=stats.cycles,
        value=cell.result.value,
        wall_seconds=wall_seconds,
        stats=stats.as_dict(),
        metrics=recorder.metrics.snapshot(),
        telemetry=recorder.summary(),
        source="serial",
        analysis={
            "ok": audit.ok,
            "errors": audit.count(Severity.ERROR),
            "warnings": audit.count(Severity.WARNING),
            "certificate": audit.certificate.as_dict(),
            "verdict": cell.verdict.as_dict(),
            "incremental": (
                cell.certifier.as_dict()
                if cell.certifier is not None
                else None
            ),
        },
        profiling=cell.profile or {},
        plan=_plan_section(cell.spec),
    )


#: The cell pipeline, in order. ``verify`` needs the cell's baseline;
#: ``profile`` and ``seal`` do nothing without a profiler or recorder.
STAGES: Dict[str, Callable[[Cell], None]] = {
    "transform": _transform,
    "audit": _audit,
    "execute": _execute,
    "verify": _verify,
    "reconcile": _reconcile,
    "profile": _profile,
    "seal": _seal,
}

#: The per-shape half of :data:`STAGES`. The sample interval is a
#: run-time value of the trigger, never baked into the code, so these
#: outputs depend only on the cell's :func:`shape_key` (plus
#: ``sample_iterations``) and :class:`ExperimentRunner` computes them
#: once per shape.
SHAPE_STAGES: Tuple[str, ...] = ("transform", "audit")
#: The per-cell half: every cell runs all of it.
CELL_STAGES: Tuple[str, ...] = tuple(
    name for name in STAGES if name not in SHAPE_STAGES
)

#: Bucket bounds, in seconds, of the ``harness.stage.<name>`` histograms.
STAGE_SECONDS_BOUNDS: Tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)


def run_stages(cell: Cell, stages: Iterable[str] = STAGES) -> Cell:
    """Run the named *stages* of :data:`STAGES` over *cell*, in order.

    Each stage that completes observes its wall time into the
    ``harness.stage.<name>`` histogram of ``cell.metrics``. A
    :class:`HarnessError` raised inside a stage leaves with its
    ``stage`` attribute set to the stage's name.
    """
    for name in stages:
        started = time.perf_counter()
        try:
            STAGES[name](cell)
        except HarnessError as exc:
            if exc.stage is None:
                exc.stage = name
            raise
        cell.metrics.histogram(
            f"harness.stage.{name}", bounds=STAGE_SECONDS_BOUNDS
        ).observe(time.perf_counter() - started)
    return cell


@dataclass
class Shape:
    """What :data:`SHAPE_STAGES` computed for the first cell of a shape,
    handed to every later cell of that shape.

    Shared by those cells: the instrumentation objects (their profiles
    are reset per cell), the transformed functions, classes, loadables
    and loader, the transform report and time, and the audit verdict.
    Each cell gets its own function table, relabelled audit report and
    certificate, and incremental certifier (:meth:`adopt`). Only a shape
    whose audit passed is ever built.
    """

    instrumentations: List[Instrumentation]
    transformed: Program
    transform_report: Optional[TransformReport]
    transform_seconds: float
    audit: AuditReport

    @classmethod
    def of(cls, cell: Cell) -> "Shape":
        """Capture *cell*'s per-shape outputs before it executes."""
        return cls(
            cell.instrumentations, _own_table(cell.transformed),
            cell.transform_report, cell.transform_seconds, cell.audit,
        )

    def adopt(self, cell: Cell) -> None:
        """Fill in *cell*'s per-shape outputs, as if it had run
        :data:`SHAPE_STAGES` itself."""
        for instrumentation in self.instrumentations:
            instrumentation.reset()
        cell.instrumentations = self.instrumentations
        cell.transformed = _own_table(self.transformed)
        cell.transform_report = self.transform_report
        cell.transform_seconds = self.transform_seconds
        cell.audit = replace(
            self.audit, label=cell.label,
            certificate=replace(self.audit.certificate, label=cell.label),
        )
        _admit(cell)


def _own_table(program: Program) -> Program:
    """A program over *program*'s functions, classes, loadables and
    loader with its own function table: LOADFN/REPLACEFN write to the
    table, never to a :class:`Function`."""
    shell = copy.copy(program)
    shell.functions = dict(program.functions)
    shell._installed_template = dict(program._installed_template)
    return shell


def _own_profile(profile: Profile) -> Profile:
    """A copy of *profile* that later runs of its instrumentation
    cannot change."""
    own = Profile(profile.name)
    own.merge(profile)
    return own


class ExperimentRunner:
    """Caches per-workload baselines and runs configured experiments.

    Every cell passes every check of :data:`STAGES`: it computes the
    baseline's value and output, duplicating strategies keep Property 1,
    its transformed program passes the static audit (plus load-time
    audits for dynamic programs), and its check counters reconcile
    against the cost certificate. A failure raises :class:`HarnessError`
    naming the stage; the audit report and verdict ride on
    :attr:`RunResult.audit` and (with telemetry on) in the manifest's
    ``analysis`` section.

    Results are memoized per :class:`RunSpec` (cells are deterministic,
    so a repeat is always identical), baselines are additionally cached
    on disk when a persistent cache is configured, and batches of cells
    can be fanned out over worker processes via :meth:`run_many`.

    Args:
        cost_model: shared cycle model (one per runner so baselines and
            variants are comparable).
        fuel: interpreter instruction budget per run.
        cache: persistent baseline cache — a :class:`BaselineCache`, a
            directory path, True for the default directory, False to
            disable. The default (None) enables the cache only when
            ``$REPRO_CACHE_DIR`` is set, so ad-hoc runners stay free of
            disk side effects.
        jobs: default worker count for :meth:`run_many`; None defers to
            ``$REPRO_JOBS`` (else 1), <=0 means all cores.
        engine: VM execution engine for every cell ("fast",
            "reference", or "compiled"); None defers to
            ``$REPRO_ENGINE``, else the process default ("fast"). All
            engines produce bit-identical results, so the choice never
            appears in cache keys.
        telemetry: attach a :class:`TelemetryRecorder` to every
            configured run and emit a :class:`RunManifest` per computed
            cell (collected in :attr:`manifests`, including cells
            computed by pool workers). Telemetry never changes a cell's
            ExecStats/profiles — the differential test in
            tests/test_telemetry.py pins this on every workload.
        telemetry_capacity: per-run flight-recorder ring size.
        compaction: (with telemetry on) attach a
            :class:`~repro.telemetry.compaction.CompactingRecorder`
            instead of a plain recorder: runs of identical events
            collapse into suppression windows, the retained stream rides
            on :attr:`RunResult.records`, and every cell's manifest
            carries ``vm.telemetry.compaction.*`` metrics. The inflated
            stream is bit-equal to what a plain recorder retains, so no
            downstream consumer changes (docs/OBSERVABILITY.md).
        profile: attach an :class:`OverheadProfiler` to every configured
            run: each cell's manifest and :class:`RunResult` carry an
            overhead-decomposition report reconciled against the cell's
            VM wall time, and the profiler's Property-1-style sample
            bound is enforced per cell (violations raise
            :class:`HarnessError`). Profiling never changes a cell's
            ExecStats/profiles — pinned by tests/test_profiling.py.
        profile_interval: boundaries per profiler sample.
        ledger: continuous perf-regression ledger — a
            :class:`~repro.profiling.PerfLedger`, a path, or None to
            enable only when ``$REPRO_LEDGER`` is set. When active, the
            parent process appends one machine-normalized throughput
            record per computed cell (pool workers never append — their
            cells are recorded by the parent, so the ledger sees each
            cell exactly once).
        stream: directory for live telemetry export. When set, every
            configured run attaches a context-keyed
            :class:`~repro.telemetry.StreamingRecorder` that flushes
            epochs to a per-cell spool under this directory while the
            VM runs — implies ``telemetry`` and ``compaction``, and
            (with ``profile`` on) switches the profiler to CCT mode so
            spools carry per-context attribution. The spool path rides
            on :attr:`RunResult.spool` and in the manifest's telemetry
            section (``repro watch <spool>`` tails it live). The
            retained record stream and every end-of-run snapshot are
            bit-identical to a non-streaming context-keyed run —
            pinned by tests/test_streaming.py.

    The runner always keeps a :class:`MetricsRegistry` in
    :attr:`metrics` — harness-level instruments (baseline-cache
    traffic, audit and shape counters, ``harness.stage.*`` timers,
    including the deltas pool workers report back) are recorded there
    even with telemetry off; VM metric snapshots are merged in per
    manifest when telemetry is on.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        fuel: int = DEFAULT_FUEL,
        cache: Union[BaselineCache, str, bool, None] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        telemetry: bool = False,
        telemetry_capacity: int = 65536,
        compaction: bool = False,
        profile: bool = False,
        profile_interval: int = DEFAULT_PROFILE_INTERVAL,
        ledger: Union[PerfLedger, str, bool, None] = None,
        plan: Union["object", None] = None,
        stream: Union[str, "os.PathLike", None] = None,
    ):
        self.cost_model = cost_model or CostModel()
        self.fuel = fuel
        self.baseline_cache = _resolve_cache(cache)
        self.jobs = jobs
        self.engine = resolve_engine(engine)
        self.telemetry = bool(telemetry)
        self.telemetry_capacity = telemetry_capacity
        self.compaction = bool(compaction)
        self.profile = bool(profile)
        self.profile_interval = profile_interval
        self.ledger = resolve_ledger(ledger)
        self.plan = _plan_key(plan)
        self.stream = None if stream is None else str(stream)
        if self.stream is not None:
            # Streaming rides on the compacting recorder, so it implies
            # the full telemetry stack.
            self.telemetry = True
            self.compaction = True
        self.metrics = MetricsRegistry()
        self.manifests: List[RunManifest] = []
        self.profile_snapshots: List[Dict[str, object]] = []
        self._baselines: Dict[Tuple[str, Optional[int]], Tuple[Program, VMResult]] = {}
        self._run_memo: Dict[RunSpec, RunResult] = {}
        self._shape_memo: Dict[Tuple[object, ...], Shape] = {}
        self.cell_log: List[CellRecord] = []
        self.memo_hits = 0

    # -- baselines -----------------------------------------------------------

    def baseline(
        self, workload_name: str, scale: Optional[int] = None
    ) -> Tuple[Program, VMResult]:
        """The workload's baseline program and its (cached) run.

        Lookup order: this runner's in-memory dict, then the persistent
        disk cache (keyed by program content + cost model + run
        config, so any config change is an automatic miss), then a
        fresh execution whose result is published to both.
        """
        key = (workload_name, scale)
        cached = self._baselines.get(key)
        if cached is not None:
            return cached
        workload: Workload = get_workload(workload_name)
        program = workload.compile(scale)
        started = time.perf_counter()
        result: Optional[VMResult] = None
        disk_key: Optional[str] = None
        cache_before = self._cache_counts()
        if self.baseline_cache is not None:
            disk_key = baseline_key(
                program, self.cost_model, self.fuel, 100_000
            )
            result = self.baseline_cache.get(disk_key)
        from_disk = result is not None
        if result is None:
            result = VM(
                program, cost_model=self.cost_model, fuel=self.fuel,
                timer_period=100_000, engine=self.engine,
            ).run()
            if self.baseline_cache is not None and disk_key is not None:
                self.baseline_cache.put(
                    disk_key, result, label=f"{workload_name}/scale={scale}"
                )
        self._record_cache_delta(cache_before)
        self.cell_log.append(
            CellRecord(
                label=f"baseline:{workload_name}"
                + (f"@{scale}" if scale is not None else ""),
                seconds=time.perf_counter() - started,
                source="baseline-cache" if from_disk else "baseline",
                baseline_cache_hit=from_disk,
            )
        )
        self._baselines[key] = (program, result)
        return program, result

    def baseline_cycles(self, workload_name: str, scale: Optional[int] = None) -> int:
        return self.baseline(workload_name, scale)[1].stats.cycles

    # -- metrics plumbing ----------------------------------------------------

    _CACHE_COUNTERS = ("hits", "misses", "stores")

    def _cache_counts(self) -> Tuple[int, ...]:
        cache = self.baseline_cache
        if cache is None:
            return (0, 0, 0)
        return tuple(
            getattr(cache.stats, name) for name in self._CACHE_COUNTERS
        )

    def _record_cache_delta(self, before: Tuple[int, ...]) -> None:
        """Fold baseline-cache activity since *before* into the registry."""
        for name, b, a in zip(
            self._CACHE_COUNTERS, before, self._cache_counts()
        ):
            if a > b:
                self.metrics.counter(
                    f"harness.baseline_cache.{name}"
                ).inc(a - b)

    def _absorb(
        self, spec: RunSpec, result: RunResult, record: CellRecord
    ) -> None:
        """Fold one computed cell (serial, or shipped back from a pool
        worker) into the memo, the metrics, the sweep-level profile, the
        perf ledger and the cell log."""
        self._run_memo[spec] = result
        if result.manifest is not None:
            result.manifest.source = record.source
            self.manifests.append(result.manifest)
            self.metrics.merge_snapshot(result.manifest.metrics)
        if result.profile is not None:
            self.profile_snapshots.append(result.profile["snapshot"])
        self._ledger_append(spec, result)
        self.cell_log.append(record)

    def profile_summary(self) -> Dict[str, object]:
        """All absorbed cell profiles folded into one snapshot.

        :func:`~repro.profiling.merge_snapshots` is associative and
        commutative, so the summary is independent of cell order and of
        how cells were split between the parent and pool workers.
        """
        return merge_snapshots(self.profile_snapshots)

    def _ledger_append(self, spec: RunSpec, run_result: RunResult) -> None:
        """One perf-ledger record per computed cell (parent-side only:
        pool workers are built without a ledger, so each cell is
        recorded exactly once, here, when its result lands)."""
        if self.ledger is None or run_result.vm_seconds <= 0:
            return
        stats = run_result.stats
        self.ledger.append(
            make_record(
                bench="harness",
                key=f"{spec.workload}/{spec.strategy.value}/{self.engine}",
                metric="vm_instr_per_sec",
                value=stats.instructions / run_result.vm_seconds,
                meta={
                    "trigger": spec.trigger,
                    "interval": spec.interval,
                    "instrumentation": list(spec.instrumentation),
                    "profiled": run_result.profile is not None,
                },
            )
        )
        self.metrics.counter("harness.ledger.appends").inc()

    # -- configured runs ----------------------------------------------------------

    def _spool_path(self, spec: RunSpec) -> str:
        """Per-cell spool directory under :attr:`stream`.

        The name combines the human-readable spec description with the
        cell's content seed, so it is stable across processes (pool
        workers derive the same path) yet unique per cell. The content
        seed leaves out an explicit randomized-trigger seed, so one is
        appended when set.
        """
        safe = re.sub(r"[^A-Za-z0-9@.+=_-]+", "-", spec.describe())
        name = f"{safe.strip('-')}-{cell_seed(spec):08x}"
        if spec.seed is not None:
            name += f"-seed{spec.seed}"
        return os.path.join(self.stream, name)

    def _apply_plan(self, spec: RunSpec) -> RunSpec:
        """Fold the runner-level strategy plan into *spec* (a spec's own
        plan always wins; a planless runner leaves specs untouched)."""
        if self.plan is not None and spec.plan is None:
            return replace(spec, plan=self.plan)
        return spec

    def run(self, spec: RunSpec) -> RunResult:
        """Transform per *spec*, execute, verify, and measure: the
        baseline, then every stage of :data:`STAGES` over one
        :class:`Cell`.

        Results are memoized: cells are deterministic, so a repeated
        spec returns the first computation's result unchanged. So is
        the per-shape half (:data:`SHAPE_STAGES`): the first cell of a
        shape runs it, later ones adopt its :class:`Shape`
        (``harness.shape.misses`` / ``harness.shape.hits``).
        """
        spec = self._apply_plan(spec)
        memoized = self._run_memo.get(spec)
        if memoized is not None:
            self.memo_hits += 1
            return memoized
        started = time.perf_counter()
        program, base = self.baseline(spec.workload, spec.scale)
        cell = Cell(
            spec, program, spec.describe(), self.engine, baseline=base,
            cost_model=self.cost_model, fuel=self.fuel,
            metrics=self.metrics, started=started,
        )
        cell.observe(
            telemetry=self.telemetry,
            capacity=self.telemetry_capacity,
            compaction=self.compaction,
            spool=None if self.stream is None else self._spool_path(spec),
            profile_interval=self.profile_interval if self.profile else None,
        )
        key = (shape_key(spec), cell.sample_iterations)
        shape = self._shape_memo.get(key)
        if shape is None:
            self.metrics.counter("harness.shape.misses").inc()
            run_stages(cell, SHAPE_STAGES)
            self._shape_memo[key] = Shape.of(cell)
        else:
            self.metrics.counter("harness.shape.hits").inc()
            shape.adopt(cell)
        run_stages(cell, CELL_STAGES)
        record = CellRecord(
            label=spec.describe(),
            seconds=time.perf_counter() - started,
            source="serial",
        )
        self._absorb(spec, cell.run_result(), record)
        return self._run_memo[spec]

    # -- batched / parallel execution ---------------------------------------------

    def run_many(
        self, specs: Sequence[RunSpec], jobs: Optional[int] = None
    ) -> List[RunResult]:
        """Run every spec, fanning uncomputed cells over worker
        processes when more than one job is configured.

        The returned list matches *specs* positionally. Cells are
        deterministic, so the outcome is bit-identical to a serial
        loop regardless of the worker count; only wall time changes.
        A pool worker that dies raises :class:`WorkerLost`, a
        :class:`HarnessError` naming the unfinished cells; the cells
        that finished are memoized first.
        """
        specs = [self._apply_plan(spec) for spec in specs]
        jobs = effective_jobs(jobs if jobs is not None else self.jobs)
        pending: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec not in self._run_memo and spec not in seen:
                seen.add(spec)
                pending.append(spec)
        if pending and jobs > 1 and len(pending) > 1:
            try:
                outcomes = run_specs(
                    pending, RunnerConfig.from_runner(self), jobs
                )
            except WorkerLost as lost:
                # Keep the cells that finished, so a retry only reruns
                # the ones named in the error.
                for spec, outcome in zip(pending, lost.outcomes):
                    if outcome is not None:
                        self._absorb_outcome(spec, outcome)
                raise
            for spec, outcome in zip(pending, outcomes):
                self._absorb_outcome(spec, outcome)
        return [self.run(spec) for spec in specs]

    def _absorb_outcome(self, spec: RunSpec, outcome: CellOutcome) -> None:
        """Fold one pool-computed cell into the memo, metrics and log.

        The worker's ``harness.*`` delta is merged here (its registry
        is not ours); its VM metrics arrive with the manifest."""
        self.metrics.merge_snapshot(outcome.metrics)
        self._absorb(
            spec,
            outcome.result,
            CellRecord(
                label=spec.describe(),
                seconds=outcome.seconds,
                source=f"pool:{outcome.worker_pid}",
                baseline_cache_hit=(
                    "harness.baseline_cache.hits" in outcome.metrics
                ),
            ),
        )

    def prefetch(
        self, specs: Sequence[RunSpec], jobs: Optional[int] = None
    ) -> None:
        """Populate the memo for *specs* (parallel when configured).

        Table generators call this with their full experiment matrix
        before assembling rows, so row construction itself stays a
        sequence of memo hits and the serial code path is untouched.
        """
        self.run_many(specs, jobs=jobs)

    # -- reporting ----------------------------------------------------------------

    def timing_report(self, top: int = 15) -> str:
        """Human-readable per-cell timing / cache-hit accounting."""
        computed = [rec for rec in self.cell_log]
        rows = [
            [
                rec.label,
                rec.seconds * 1000.0,
                rec.source,
                "hit" if rec.baseline_cache_hit else "-",
            ]
            for rec in sorted(
                computed, key=lambda rec: -rec.seconds
            )[:top]
        ]
        text = render_table(
            ["cell", "ms", "source", "baseline-cache"],
            rows,
            title=f"Harness timing: {top} slowest of "
            f"{len(computed)} computed cells",
            decimals=1,
        )
        pool_cells = sum(
            1 for rec in computed if rec.source.startswith("pool:")
        )
        workers = len(
            {rec.source for rec in computed if rec.source.startswith("pool:")}
        )
        lines = [
            text,
            f"  cells computed: {len(computed)} "
            f"({pool_cells} in pool across {workers} worker(s)), "
            f"memo hits: {self.memo_hits}",
            f"  compute seconds: "
            f"{sum(rec.seconds for rec in computed):.2f}",
        ]
        if self.baseline_cache is not None:
            # Sourced from the metrics registry, not the cache handle:
            # the registry also accumulates the deltas pool workers
            # report back, which the parent's handle never sees.
            hits, misses, stores = (
                self._metric_value(f"harness.baseline_cache.{name}")
                for name in self._CACHE_COUNTERS
            )
            lines.append(
                f"  baseline cache [{self.baseline_cache.directory}]: "
                f"{hits} hit(s), {misses} miss(es), "
                f"{stores} store(s)"
            )
        else:
            lines.append("  baseline cache: disabled")
        return "\n".join(lines)

    def _metric_value(self, key: str) -> int:
        instrument = self.metrics.get(key)
        return instrument.value if instrument is not None else 0

    # -- derived measures ---------------------------------------------------------

    def overhead_pct(self, spec: RunSpec) -> float:
        """Total overhead of *spec* relative to the baseline, percent."""
        result = self.run(spec)
        base = self.baseline_cycles(spec.workload, spec.scale)
        return overhead_percent(base, result.cycles)

    def perfect_profiles(
        self,
        workload_name: str,
        instrumentation: Tuple[str, ...],
        scale: Optional[int] = None,
        strategy: Strategy = Strategy.FULL_DUPLICATION,
    ) -> Dict[str, Profile]:
        """The paper's *perfect profile*: the given strategy run at
        sample interval 1, "causing all execution to occur in
        duplicated code" (§4.4). Sampled profiles are compared against
        the same strategy's interval-1 profile, so the overlap metric
        isolates sampling degradation.
        """
        result = self.run(
            RunSpec(
                workload=workload_name,
                strategy=strategy,
                instrumentation=instrumentation,
                trigger="counter",
                interval=1,
                scale=scale,
            )
        )
        return result.profiles

    def exhaustive_profiles(
        self,
        workload_name: str,
        instrumentation: Tuple[str, ...],
        scale: Optional[int] = None,
    ) -> Dict[str, Profile]:
        """Profiles from a plain exhaustive run (every event counted)."""
        result = self.run(
            RunSpec(
                workload=workload_name,
                strategy=Strategy.EXHAUSTIVE,
                instrumentation=instrumentation,
                scale=scale,
            )
        )
        return result.profiles

    # -- compaction accuracy -------------------------------------------------

    def compaction_accuracy(
        self, spec: RunSpec, perfect_interval: int = 1
    ) -> Dict[str, object]:
        """Measure what suppression + compact encoding cost in accuracy
        and bought in bytes for one cell.

        Runs *spec* with the compacting recorder, plus the same cell at
        ``perfect_interval`` (the §4.4 perfect-profile configuration),
        and reports:

        * ``overlap_percentage`` — §4.4 overlap between the sample-site
          profile of the suppressed stream and of the exact
          (interval-``perfect_interval``) stream;
        * ``compaction_ratio`` — plain-JSONL bytes of the inflated
          stream over compact-JSONL bytes of the suppressed stream;
        * ``roundtrip_ok`` — the compact encoding re-inflated
          bit-equal to the original events;
        * ``stream_ok`` — the stream reconciles against the run's
          ExecStats sample counters (:func:`reconcile_stream`).

        The report also lands in the cell manifest's
        ``telemetry["compaction_accuracy"]`` section, so archived runs
        carry their own accuracy evidence.
        """
        if not (self.telemetry and self.compaction):
            raise HarnessError(
                "compaction_accuracy needs ExperimentRunner("
                "telemetry=True, compaction=True)"
            )
        result = self.run(spec)
        records = result.records or ()
        perfect = self.run(
            replace(
                spec, trigger="counter", interval=perfect_interval,
                phase=0, seed=None,
            )
        )
        exact_profile = sample_site_profile(
            perfect.records or (), name="exact"
        )
        sampled_profile = sample_site_profile(records, name="suppressed")
        events = inflate(records)
        raw_bytes = len(events_to_jsonl(events).encode("utf-8"))
        compact_text = records_to_compact_jsonl(records)
        compact_bytes = len(compact_text.encode("utf-8"))
        roundtrip_ok = (
            inflate(compact_jsonl_to_records(compact_text)) == events
        )
        telemetry = (
            result.manifest.telemetry if result.manifest is not None else {}
        )
        dropped_events = int(telemetry.get("dropped_events", 0))
        stream_verdict = reconcile_stream(
            result.stats, records, dropped_events=dropped_events
        )
        report: Dict[str, object] = {
            "label": spec.describe(),
            "engine": self.engine,
            "interval": spec.interval,
            "perfect_interval": perfect_interval,
            "events": len(events),
            "records": len(records),
            "dropped_events": dropped_events,
            "raw_bytes": raw_bytes,
            "compact_bytes": compact_bytes,
            "compaction_ratio": (
                round(raw_bytes / compact_bytes, 3) if compact_bytes else 1.0
            ),
            "overlap_percentage": round(
                overlap_percentage(exact_profile, sampled_profile), 3
            ),
            "roundtrip_ok": roundtrip_ok,
            "stream_ok": stream_verdict.ok,
        }
        self.metrics.counter("harness.compaction.cells").inc()
        if result.manifest is not None:
            result.manifest.telemetry["compaction_accuracy"] = report
        return report

    def compaction_matrix(
        self,
        workloads: Optional[Sequence[str]] = None,
        strategies: Optional[Sequence[Strategy]] = None,
        instrumentation: Tuple[str, ...] = ("call-edge",),
        interval: int = 1000,
        scale: Optional[int] = None,
        perfect_interval: int = 1,
    ) -> List[Dict[str, object]]:
        """The workload × duplication-strategy accuracy matrix: one
        :meth:`compaction_accuracy` report per cell, full suite by
        default."""
        if workloads is None:
            from repro.workloads import all_workloads

            workloads = [w.name for w in all_workloads()]
        if strategies is None:
            strategies = COMPACTION_MATRIX_STRATEGIES
        return [
            self.compaction_accuracy(
                RunSpec(
                    workload=name,
                    strategy=strategy,
                    instrumentation=instrumentation,
                    trigger="counter",
                    interval=interval,
                    scale=scale,
                ),
                perfect_interval=perfect_interval,
            )
            for name in workloads
            for strategy in strategies
        ]


#: Strategies covered by the compaction accuracy matrix: the three
#: sampled code-duplication variants (exhaustive runs never sample, and
#: checks-only strategies are covered by the per-cell CLI path).
COMPACTION_MATRIX_STRATEGIES: Tuple[Strategy, ...] = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _plan_section(spec: RunSpec) -> Dict[str, object]:
    """The manifest's ``plan`` section for one cell (empty when the
    spec carries no per-function assignment)."""
    if spec.plan is None:
        return {}
    assignments = dict(spec.plan)
    counts: Dict[str, int] = {}
    for value in assignments.values():
        counts[value] = counts.get(value, 0) + 1
    return {
        "default": spec.strategy.value,
        "assignments": assignments,
        "strategies": counts,
    }


def _plan_key(
    plan: Union["object", None]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Normalize a runner-level plan argument to ``RunSpec.plan`` form:
    a StrategyPlan (via ``.key()``), a mapping, an iterable of pairs,
    or None."""
    if plan is None:
        return None
    key = getattr(plan, "key", None)
    if callable(key):
        plan = key()
    if isinstance(plan, dict):
        plan = plan.items()
    return tuple(sorted((str(f), str(s)) for f, s in plan))


def _resolve_cache(
    cache: Union[BaselineCache, str, bool, None]
) -> Optional[BaselineCache]:
    """Interpret the runner's ``cache`` argument (see its docstring)."""
    if cache is None:
        env = os.environ.get(CACHE_DIR_ENV)
        return BaselineCache(env) if env else None
    if cache is False:
        return None
    if cache is True:
        return BaselineCache()
    if isinstance(cache, BaselineCache):
        return cache
    return BaselineCache(cache)


def overhead_percent(baseline_cycles: int, cycles: int) -> float:
    """100 * (cycles / baseline - 1)."""
    if baseline_cycles <= 0:
        raise HarnessError("baseline has no cycles")
    return 100.0 * (cycles / baseline_cycles - 1.0)
