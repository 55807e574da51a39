"""Parallel sweep engine: pool execution must be invisible in the data.

Every experiment cell is deterministic (simulated VM, cycle cost
model, seeded triggers), so running a sweep through the worker pool
must produce results bit-identical to the serial loop — same ExecStats
field-for-field, same profiles key-for-key, cell-for-cell. These tests
pin that contract, plus the knobs around it: ``effective_jobs`` env
parsing, per-cell seed derivation, RunnerConfig round-trips, the
timing report's accounting, shape-group scheduling, and the error a
dead worker raises.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.harness import (
    ExperimentRunner,
    RunSpec,
    RunnerConfig,
    cell_seed,
    effective_jobs,
)
from repro.harness.parallel import JOBS_ENV, shape_groups, shape_key
from repro.sampling import Strategy
from repro.vm import CostModel

#: A small but shape-diverse sweep: exhaustive + both duplication
#: strategies, counter and randomized triggers, two workloads.
SWEEP = [
    RunSpec("compress", Strategy.EXHAUSTIVE, ("call-edge",)),
    RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="counter", interval=10),
    RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="randomized", interval=10),
    RunSpec("jess", Strategy.PARTIAL_DUPLICATION, ("block-count",),
            trigger="counter", interval=25),
    RunSpec("jess", Strategy.NO_DUPLICATION, ("block-count",),
            trigger="counter", interval=25),
    RunSpec("jess", Strategy.FULL_DUPLICATION, ("none",)),
]


def _cell_fingerprint(result):
    """Everything observable about one cell, in comparable form."""
    return (
        result.value,
        result.cycles,
        result.stats.as_dict(),
        {
            kind: dict(profile.counts)
            for kind, profile in result.profiles.items()
        },
    )


class TestPoolDeterminism:
    """Satellite 3: --jobs 1 and --jobs 4 agree cell-for-cell."""

    def test_serial_and_parallel_sweeps_identical(self):
        serial = ExperimentRunner(cache=False)
        parallel = ExperimentRunner(cache=False)
        serial_results = serial.run_many(SWEEP, jobs=1)
        parallel_results = parallel.run_many(SWEEP, jobs=4)
        assert len(serial_results) == len(parallel_results) == len(SWEEP)
        for spec, s_res, p_res in zip(SWEEP, serial_results,
                                      parallel_results):
            assert _cell_fingerprint(s_res) == _cell_fingerprint(p_res), (
                f"pool changed the data for {spec.describe()}"
            )

    def test_pool_results_match_individual_runs(self):
        """run_many is just a faster spelling of [run(s) for s in specs]."""
        pooled = ExperimentRunner(cache=False)
        pooled_results = pooled.run_many(SWEEP[:4], jobs=2)
        solo = ExperimentRunner(cache=False)
        for spec, pooled_res in zip(SWEEP[:4], pooled_results):
            assert _cell_fingerprint(solo.run(spec)) == _cell_fingerprint(
                pooled_res
            )

    def test_run_many_memoizes(self):
        runner = ExperimentRunner(cache=False)
        first = runner.run_many(SWEEP[:2], jobs=2)
        hits_before = runner.memo_hits
        second = runner.run_many(SWEEP[:2], jobs=2)
        assert runner.memo_hits > hits_before
        for a, b in zip(first, second):
            assert a is b  # memo returns the same object, not a rerun


class TestJobsKnob:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert effective_jobs(3) == 3

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert effective_jobs(None) == 5

    def test_garbage_env_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValueError, match=JOBS_ENV):
            effective_jobs(None)

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(0) == multiprocessing.cpu_count()
        assert effective_jobs(-1) == multiprocessing.cpu_count()


class TestCellSeed:
    def test_deterministic(self):
        spec = SWEEP[2]
        assert cell_seed(spec) == cell_seed(spec)

    def test_sensitive_to_spec_content(self):
        a = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=10)
        b = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=11)
        assert cell_seed(a) != cell_seed(b)

    def test_fits_in_32_bits(self):
        for spec in SWEEP:
            assert 0 <= cell_seed(spec) < 2 ** 32

    def test_explicit_seed_overrides_derived(self):
        base = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                       trigger="randomized", interval=10)
        runner = ExperimentRunner(cache=False)
        derived = runner.run(base)
        pinned = runner.run(
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=10,
                    seed=cell_seed(base))
        )
        assert _cell_fingerprint(derived) == _cell_fingerprint(pinned)


class TestRunnerConfig:
    def test_round_trip_preserves_measurement_inputs(self):
        runner = ExperimentRunner(
            cost_model=CostModel(check_cost=3), cache=False
        )
        rebuilt = RunnerConfig.from_runner(runner).build_runner()
        spec = SWEEP[1]
        assert _cell_fingerprint(runner.run(spec)) == _cell_fingerprint(
            rebuilt.run(spec)
        )

    def test_config_is_picklable(self):
        import pickle

        from repro.harness import cost_model_fingerprint

        config = RunnerConfig.from_runner(ExperimentRunner(cache=False))
        thawed = pickle.loads(pickle.dumps(config))
        assert cost_model_fingerprint(thawed.cost_model) == (
            cost_model_fingerprint(config.cost_model)
        )
        assert (thawed.fuel, thawed.cache_dir, thawed.engine) == (
            config.fuel, config.cache_dir, config.engine)


class TestTimingReport:
    def test_report_accounts_for_pool_cells(self):
        runner = ExperimentRunner(cache=False)
        runner.run_many(SWEEP, jobs=2)
        report = runner.timing_report()
        assert "cells computed" in report
        assert "in pool across" in report
        assert "baseline cache: disabled" in report
        # every sweep cell shows up in the log with a source
        pool_cells = [
            rec for rec in runner.cell_log if rec.source.startswith("pool:")
        ]
        assert len(pool_cells) == len(SWEEP)

    def test_serial_report_has_no_pool_cells(self):
        runner = ExperimentRunner(cache=False)
        runner.run_many(SWEEP[:2], jobs=1)
        assert all(
            not rec.source.startswith("pool:") for rec in runner.cell_log
        )


#: Three transformed-program shapes x two intervals, interleaved the
#: way a shuffled sweep submits them.
SHAPES = [
    ("compress", Strategy.FULL_DUPLICATION),
    ("jess", Strategy.PARTIAL_DUPLICATION),
    ("db", Strategy.NO_DUPLICATION),
]
SHAPE_SWEEP = [
    RunSpec(workload, strategy, ("call-edge",), trigger="counter",
            interval=interval)
    for interval in (10, 100)
    for workload, strategy in SHAPES
]


def _pool_sources(runner):
    """cell label -> "pool:<pid>" for every pool-computed cell."""
    return {
        rec.label: rec.source
        for rec in runner.cell_log
        if rec.source.startswith("pool:")
    }


class TestShapeGroups:
    def test_key_ignores_run_time_trigger_fields(self):
        base = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                       trigger="counter", interval=10)
        for other in (
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=1000, phase=7, seed=3,
                    timer_period=5000),
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",)),
        ):
            assert shape_key(other) == shape_key(base)
        for other in (
            RunSpec("jess", Strategy.FULL_DUPLICATION, ("call-edge",)),
            RunSpec("compress", Strategy.NO_DUPLICATION, ("call-edge",)),
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("block-count",)),
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    scale=2),
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    yieldpoint_opt=True),
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    plan=(("main", "none"),)),
        ):
            assert shape_key(other) != shape_key(base)

    def test_groups_in_first_appearance_order(self):
        assert shape_groups(SHAPE_SWEEP, 2) == [[0, 3], [1, 4], [2, 5]]

    def test_group_over_fair_share_is_split(self):
        one_shape = [
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="counter", interval=interval)
            for interval in (10, 20, 30, 40, 50)
        ]
        assert shape_groups(one_shape, 2) == [[0, 1, 2], [3, 4]]
        assert shape_groups(one_shape, 8) == [[0], [1], [2], [3], [4]]
        # A lone small group next to a large one: only the large splits.
        mixed = one_shape + [SHAPE_SWEEP[1]]
        assert shape_groups(mixed, 2) == [[0, 1, 2], [3, 4], [5]]


class TestShapeScheduling:
    """The pool runs each shape's cells in one worker, invisibly."""

    def test_matches_serial_in_submission_order(self):
        serial = ExperimentRunner(cache=False).run_many(SHAPE_SWEEP, jobs=1)
        pooled_runner = ExperimentRunner(cache=False)
        pooled = pooled_runner.run_many(SHAPE_SWEEP, jobs=2)
        assert [res.spec for res in pooled] == SHAPE_SWEEP
        for s_res, p_res in zip(serial, pooled):
            assert _cell_fingerprint(s_res) == _cell_fingerprint(p_res)
        assert list(_pool_sources(pooled_runner)) == [
            spec.describe() for spec in SHAPE_SWEEP
        ]

    def test_each_shape_stays_in_one_worker(self):
        # Fair share is 3 cells, so no 2-cell shape group is split.
        assert len(shape_groups(SHAPE_SWEEP, 2)) == len(SHAPES)
        runner = ExperimentRunner(cache=False)
        runner.run_many(SHAPE_SWEEP, jobs=2)
        sources = _pool_sources(runner)
        by_shape = {}
        for spec in SHAPE_SWEEP:
            by_shape.setdefault(shape_key(spec), set()).add(
                sources[spec.describe()]
            )
        assert all(len(pids) == 1 for pids in by_shape.values()), by_shape

    def test_single_shape_sweep_uses_every_worker(self):
        one_shape = [
            RunSpec("jess", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="counter", interval=interval)
            for interval in (10, 20, 30, 40)
        ]
        runner = ExperimentRunner(cache=False)
        runner.run_many(one_shape, jobs=2)
        assert len(set(_pool_sources(runner).values())) == 2


class TestLoweringOncePerShape:
    def test_pool_lowers_no_more_than_serial(self, monkeypatch):
        """Compiled-tier lowerings that missed the process-wide cache,
        counted from the runner's merged metrics: the pool must not
        repeat a shape's lowering in a second worker."""
        from repro.vm import compiler, engine

        def fresh_lowerings(jobs):
            # Cold caches in this process, inherited by forked workers.
            for name in ("_LOWER_CACHE", "_LEAF_CACHE", "_REGION_CODE_CACHE"):
                monkeypatch.setattr(compiler, name, {})
            monkeypatch.setattr(engine, "_CODE_CACHE", {})
            runner = ExperimentRunner(
                cache=False, engine="compiled", telemetry=True
            )
            runner.run_many(SHAPE_SWEEP, jobs=jobs)
            regions = runner.metrics.get("vm.compiled.regions").value
            hits = runner.metrics.get("vm.compiled.cache_hits")
            return regions - (hits.value if hits is not None else 0)

        serial = fresh_lowerings(1)
        assert serial > 0
        assert fresh_lowerings(2) <= serial


#: Two shapes of two cells each, so a 2-job pool runs each shape whole
#: in one worker, as the serial loop does.
TWO_SHAPES = [
    RunSpec(workload, strategy, ("call-edge",), trigger="counter",
            interval=interval)
    for workload, strategy in (
        ("compress", Strategy.FULL_DUPLICATION),
        ("jess", Strategy.PARTIAL_DUPLICATION),
    )
    for interval in (100, 1000)
]


class TestPoolHarnessMetrics:
    @pytest.mark.parametrize("cached", [False, True])
    def test_pool_counts_what_serial_counts(self, cached, tmp_path):
        """Workers ship their ``harness.*`` deltas back: audit, shape
        and baseline-cache counters equal the serial sweep's, and so do
        the stage timers' counts."""

        def harness(jobs):
            cache = str(tmp_path / f"jobs{jobs}") if cached else False
            runner = ExperimentRunner(cache=cache, jobs=jobs)
            runner.run_many(TWO_SHAPES)
            return {
                key: entry for key, entry in runner.metrics.snapshot().items()
                if key.startswith("harness.")
            }

        serial, pooled = harness(1), harness(2)
        assert serial["harness.audit.cells"]["value"] == 4
        assert serial["harness.shape.misses"]["value"] == 2
        assert serial["harness.stage.execute"]["count"] == 4
        if cached:
            assert serial["harness.baseline_cache.stores"]["value"] == 2
        assert pooled.keys() == serial.keys()
        for key, entry in serial.items():
            if entry["type"] == "histogram":
                assert pooled[key]["count"] == entry["count"], key
            else:
                assert pooled[key] == entry, key


#: Child process for the dead-worker test: the pool worker that picks
#: up the jess cell exits without a word, as a crashed interpreter would.
_DEAD_WORKER_SCRIPT = """
import json, os, sys
from repro.errors import HarnessError
from repro.harness import ExperimentRunner, RunSpec, parallel
from repro.sampling import Strategy

specs = [
    RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="counter", interval=10),
    RunSpec("jess", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="counter", interval=10),
    RunSpec("db", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="counter", interval=10),
]
run_cell = parallel._run_cell

def dying_run_cell(spec):
    if spec.workload == "jess":
        os._exit(1)
    return run_cell(spec)

parallel._run_cell = dying_run_cell
runner = ExperimentRunner(cache=False)
try:
    runner.run_many(specs, jobs=2)
except HarnessError as exc:
    print(json.dumps({
        "message": str(exc),
        "unfinished": [spec.describe() for spec in exc.unfinished],
        "memoized": len(runner._run_memo),
    }))
    sys.exit(0)
sys.exit("run_many returned despite a dead worker")
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched cell function reaches workers only through fork",
)
class TestDeadWorker:
    def test_dead_worker_raises_harness_error(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # A hang shows up as TimeoutExpired rather than a stuck suite.
        child = subprocess.run(
            [sys.executable, "-c", _DEAD_WORKER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        message = report["message"]
        assert message.startswith("pool: a worker process died")
        jess = "jess / full-duplication / call-edge / counter@10"
        assert jess in report["unfinished"]
        for label in report["unfinished"]:
            assert label in message
        # Cells that finished before the crash were kept.
        assert report["memoized"] + len(report["unfinished"]) == 3
