"""Parallel sweep execution: fan experiment cells over worker processes.

The experiment matrix behind every table and figure is embarrassingly
parallel — each (workload x strategy x trigger x interval) cell is an
independent, deterministic simulation. This module provides the pool
that :meth:`repro.harness.ExperimentRunner.run_many` fans cells out
over:

* each worker process builds its own :class:`ExperimentRunner` from a
  picklable :class:`RunnerConfig` (cost model, fuel, cache directory,
  engine and observability settings) in its initializer, so per-workload compilation and
  baseline execution happen at most once per worker — or once *ever*
  when a persistent baseline cache directory is shared;
* cells are dispatched in *shape groups* (:func:`shape_groups`): the
  cells whose transformed program is the same — same
  :func:`shape_key` — go to one worker as one task, so the process-wide
  lowering caches of the fast and compiled tiers pay for each shape
  once per sweep rather than once per worker. The key leaves out
  interval, phase, trigger, seed and timer period: sampling is
  counter-based, so the interval is a run-time value of the trigger,
  never baked into the code. A group larger than its fair share
  (``ceil(cells / jobs)``) is split, so a sweep with fewer shapes than
  workers still keeps every worker busy;
* results are collected back into submission order, so the caller sees
  the exact list it would get from a serial loop;
* every cell is seeded deterministically from its spec content
  (:func:`cell_seed`), never from worker identity, scheduling order, or
  wall clock — the same spec produces bit-identical results at any
  ``--jobs`` value. ``tests/test_parallel_harness.py`` holds the
  tripwire asserting jobs=1 and jobs=4 agree cell-for-cell;
* a worker process that dies mid-sweep fails the sweep instead of
  hanging it: the pool reports it as ``BrokenProcessPool`` and
  :func:`run_specs` raises :class:`WorkerLost`, a
  :class:`~repro.errors.HarnessError` naming the cells that did not
  finish.

Workers prefer the ``fork`` start method (cheap on Linux, inherits the
parent's compiled-workload caches) and fall back to ``spawn`` where
fork is unavailable.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.snapshots import METRICS
from repro.vm.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import RunResult, RunSpec

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


class JobsError(HarnessError, ValueError):
    """``$REPRO_JOBS`` is not an integer. A :class:`HarnessError`, so the
    CLI reports it as an error; a ValueError, as it always was."""


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``--jobs`` value: explicit arg, else ``$REPRO_JOBS``,
    else 1. Zero or negative means "all cores"."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise JobsError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs <= 0:
        return max(1, multiprocessing.cpu_count())
    return jobs


def cell_seed(spec: "RunSpec") -> int:
    """A deterministic 32-bit seed derived from the cell's content.

    Used for the randomized-counter trigger so each cell perturbs its
    intervals differently, yet identically across processes, runs, and
    pool sizes. Intentionally *not* Python's ``hash`` (randomized per
    interpreter) and not derived from worker state.
    """
    payload = "|".join(
        [
            spec.workload,
            spec.strategy.value,
            ",".join(spec.instrumentation),
            spec.trigger,
            str(spec.interval),
            str(spec.scale),
            str(spec.timer_period),
            str(spec.phase),
            str(spec.yieldpoint_opt),
        ]
        # Planned cells mix per-function strategies, so the assignment
        # is part of the cell's identity; planless specs keep their
        # historical seeds.
        + ([str(spec.plan)] if spec.plan is not None else [])
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def shape_key(spec: "RunSpec") -> Tuple[object, ...]:
    """The spec fields that determine the cell's transformed program.

    Interval, phase, trigger, seed and timer period are left out: they
    configure the run-time trigger, so every cell that differs only in
    them runs the same code and hits the same lowering-cache entries.
    """
    return (
        spec.workload,
        spec.scale,
        spec.strategy,
        spec.instrumentation,
        spec.yieldpoint_opt,
        spec.plan,
    )


def shape_groups(specs: Sequence["RunSpec"], jobs: int) -> List[List[int]]:
    """Indices into *specs*, grouped by :func:`shape_key` in
    first-appearance order; a group longer than the fair share
    ``ceil(len(specs) / jobs)`` is cut into consecutive pieces of that
    size."""
    groups: Dict[Tuple[object, ...], List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(shape_key(spec), []).append(index)
    share = -(-len(specs) // max(1, jobs))
    return [
        group[start:start + share]
        for group in groups.values()
        for start in range(0, len(group), share)
    ]


# ---------------------------------------------------------------------------
# worker plumbing


@dataclass(frozen=True)
class RunnerConfig:
    """Everything a worker needs to rebuild the parent's runner."""

    cost_model: CostModel
    fuel: int
    cache_dir: Optional[str] = None
    engine: str = "fast"
    telemetry: bool = False
    telemetry_capacity: int = 65536
    compaction: bool = False
    #: self-profiling travels to workers; the perf ledger deliberately
    #: does not — cells computed in a pool are appended by the parent
    #: (see ExperimentRunner._ledger_append), keeping the append-only
    #: file single-writer.
    profile: bool = False
    profile_interval: int = 64
    #: live-export spool root; workers derive the same per-cell spool
    #: paths as the parent (cell_seed is content-addressed), so a
    #: streamed sweep produces one spool per cell wherever it ran.
    stream: Optional[str] = None

    @classmethod
    def from_runner(cls, runner) -> "RunnerConfig":
        cache = runner.baseline_cache
        return cls(
            cost_model=runner.cost_model,
            fuel=runner.fuel,
            cache_dir=str(cache.directory) if cache is not None else None,
            engine=runner.engine,
            telemetry=runner.telemetry,
            telemetry_capacity=runner.telemetry_capacity,
            compaction=runner.compaction,
            profile=runner.profile,
            profile_interval=runner.profile_interval,
            stream=runner.stream,
        )

    def build_runner(self):
        from repro.harness.experiment import ExperimentRunner

        return ExperimentRunner(
            cost_model=self.cost_model,
            fuel=self.fuel,
            cache=self.cache_dir if self.cache_dir is not None else False,
            jobs=1,
            engine=self.engine,
            telemetry=self.telemetry,
            telemetry_capacity=self.telemetry_capacity,
            compaction=self.compaction,
            profile=self.profile,
            profile_interval=self.profile_interval,
            ledger=False,
            stream=self.stream,
        )


@dataclass
class CellOutcome:
    """One executed cell plus its provenance and timing.

    ``metrics`` is the change the cell made to the worker runner's
    ``harness.*`` instruments (a :data:`repro.snapshots.METRICS` delta:
    baseline-cache traffic, audit and shape counters, stage timers).
    The parent merges it into its own registry, so a pooled sweep counts
    what a serial one does. VM metrics are left out: they travel in the
    cell's manifest.
    """

    result: "RunResult"
    seconds: float
    worker_pid: int
    metrics: Dict[str, Dict[str, object]]


class WorkerLost(HarnessError):
    """A pool worker process died before the sweep finished.

    ``outcomes`` lines up with the submitted specs and holds ``None``
    for each cell in ``unfinished``, so the caller can keep the cells
    that did complete.
    """

    def __init__(
        self,
        outcomes: List[Optional[CellOutcome]],
        unfinished: List["RunSpec"],
    ):
        self.outcomes = outcomes
        self.unfinished = unfinished
        super().__init__(
            f"pool: a worker process died; {len(unfinished)} cell(s) did "
            "not finish: " + "; ".join(spec.describe() for spec in unfinished)
        )


_WORKER_RUNNER = None


def _init_worker(config: RunnerConfig) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = config.build_runner()


def _run_cell(spec: "RunSpec") -> CellOutcome:
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always runs
        raise RuntimeError("worker pool used without initialization")
    before = _harness_metrics(runner)
    started = time.perf_counter()
    result = runner.run(spec)
    seconds = time.perf_counter() - started
    return CellOutcome(
        result=result,
        seconds=seconds,
        worker_pid=os.getpid(),
        metrics=METRICS.diff(before, _harness_metrics(runner)),
    )


def _harness_metrics(runner) -> Dict[str, Dict[str, object]]:
    return {
        key: entry for key, entry in runner.metrics.snapshot().items()
        if key.startswith("harness.")
    }


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _run_group(specs: List["RunSpec"]) -> List[CellOutcome]:
    return [_run_cell(spec) for spec in specs]


def run_specs(
    specs: Sequence["RunSpec"],
    config: RunnerConfig,
    jobs: int,
) -> List[CellOutcome]:
    """Execute *specs* over *jobs* worker processes, in order.

    Falls back to an in-process loop for jobs<=1 or tiny batches, so
    callers can route everything through one entry point. Pool tasks
    are the :func:`shape_groups` of *specs*; a cell that raises
    re-raises here, and a worker that dies raises :class:`WorkerLost`.
    """
    specs = list(specs)
    jobs = max(1, jobs)
    if jobs == 1 or len(specs) <= 1:
        _init_worker(config)
        try:
            return [_run_cell(spec) for spec in specs]
        finally:
            _reset_worker()
    # Imported here so that importing repro, and every serial sweep,
    # does not pay for the executor machinery.
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    groups = shape_groups(specs, jobs)
    outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(groups)),
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(config,),
    ) as pool:
        futures = {
            pool.submit(_run_group, [specs[i] for i in group]): group
            for group in groups
        }
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(wait=False, cancel_futures=True)
    # Leaving the ``with`` joined the pool: every future is now either
    # finished or cancelled.
    failed = None
    for future, group in futures.items():
        if future.cancelled():
            continue
        error = future.exception()
        if error is None:
            for index, outcome in zip(group, future.result()):
                outcomes[index] = outcome
        elif failed is None:
            failed = error
    if isinstance(failed, BrokenProcessPool):
        unfinished = [s for s, o in zip(specs, outcomes) if o is None]
        raise WorkerLost(outcomes, unfinished) from failed
    if failed is not None:
        raise failed
    return outcomes


def _reset_worker() -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = None
