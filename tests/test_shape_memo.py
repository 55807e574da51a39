"""The runner's per-shape memo: transform and audit run once per shape.

Cells that differ only in interval, phase, trigger or seed run the same
transformed program (``repro.harness.parallel.shape_key``), so
``ExperimentRunner`` runs ``SHAPE_STAGES`` for the first cell of a
shape and hands the result to the rest (``experiment.Shape``). Each test
below pins one guard that sharing needs: a later cell of a shape must
give exactly what it gives as the first cell of a fresh runner, and an
earlier cell's result must never change afterwards.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest

from repro.analysis import AuditReport, Finding, Severity, plan_program
from repro.errors import HarnessError
from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import SHAPE_STAGES, Cell, Shape, run_stages
from repro.harness.parallel import shape_key
from repro.sampling import Strategy
from repro.sampling.framework import SamplingFramework
from repro.workloads.suite import get_workload

ENGINES = ("reference", "fast", "compiled")
DUPLICATING = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _spec(workload, strategy, interval, **kwargs):
    kwargs.setdefault("instrumentation", ("call-edge",))
    return RunSpec(
        workload, strategy, trigger="counter", interval=interval, **kwargs
    )


def _digest(result) -> str:
    text = "|".join(
        result.profiles[name].to_json() for name in sorted(result.profiles)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(result):
    """Everything a cell reports, minus wall times."""
    manifest = None
    if result.manifest is not None:
        manifest = result.manifest.as_dict()
        manifest.pop("wall_seconds")
    return {
        "value": result.value,
        "cycles": result.cycles,
        "stats": result.stats.as_dict(),
        "profiles": _digest(result),
        "code_bytes": result.code_bytes,
        "audit": result.audit.as_dict(),
        "manifest": manifest,
    }


def _counter(runner, name) -> int:
    instrument = runner.metrics.get(name)
    return 0 if instrument is None else instrument.value


def _check_siblings(engine, pairs, **runner_kwargs):
    """Run each (first, later) pair of same-shape specs back to back in
    one runner; each later cell must equal its own run in a fresh runner
    (where it is the first of its shape), and no first cell's result may
    change while its siblings run."""
    shared = ExperimentRunner(engine=engine, cache=False, **runner_kwargs)
    firsts = []
    for first, later in pairs:
        assert shape_key(first) == shape_key(later)
        result = shared.run(first)
        firsts.append((result, _observed(result)))
        shared.run(later)
    for result, seen in firsts:
        assert _observed(result) == seen
    fresh = ExperimentRunner(engine=engine, cache=False, **runner_kwargs)
    for _, later in pairs:
        assert _observed(shared.run(later)) == _observed(fresh.run(later))
    assert _counter(shared, "harness.shape.hits") == len(pairs)
    assert _counter(fresh, "harness.shape.hits") == 0
    return shared


@pytest.mark.parametrize("engine", ENGINES)
class TestSharedShape:
    def test_isolation(self, engine):
        # Interval 1 samples everything, so a profile left over from it
        # would swamp the interval-100 cell's.
        _check_siblings(
            engine,
            [(_spec("compress", Strategy.FULL_DUPLICATION, 1),
              _spec("compress", Strategy.FULL_DUPLICATION, 100))],
            telemetry=True,
        )

    def test_dynamic_siblings(self, engine):
        # dynload and osr load and replace functions mid-run: each cell
        # needs its own function table and incremental certifier (the
        # manifest's analysis.incremental lists its load events).
        runner = _check_siblings(
            engine,
            [
                (_spec(workload, strategy, 1), _spec(workload, strategy, 100))
                for workload in ("dynload", "osr")
                for strategy in DUPLICATING
            ],
            telemetry=True,
        )
        incremental = [
            m.analysis["incremental"] for m in runner.manifests
        ]
        assert all(i is not None and i["ok"] for i in incremental)
        assert all(i["loads"] + i["replaces"] > 0 for i in incremental)

    def test_labels_name_their_own_cell(self, engine):
        runner = ExperimentRunner(engine=engine, cache=False, telemetry=True)
        for interval in (1, 100, 1000):
            spec = _spec("dynload", Strategy.PARTIAL_DUPLICATION, interval)
            result = runner.run(spec)
            label = spec.describe()
            assert result.audit.label == label
            assert result.audit.certificate.label == label
            analysis = result.manifest.analysis
            assert analysis["certificate"]["label"] == label
            assert analysis["incremental"]["certificate"]["label"] == label
        assert _counter(runner, "harness.shape.hits") == 2

    def test_planned_and_checks_only(self, engine):
        plan = plan_program(
            get_workload("compress").compile(),
            instrumentation=("call-edge", "block-count"),
        )
        planned = [
            _spec("compress", Strategy.FULL_DUPLICATION, interval,
                  instrumentation=("call-edge", "block-count"),
                  plan=plan.key())
            for interval in (1, 100)
        ]
        # Checks-only programs carry no instrumentation, yet the cell
        # still owns (empty) profiles.
        checks_only = [
            _spec("jess", Strategy.CHECKS_ONLY_BACKEDGE, interval)
            for interval in (1, 100)
        ]
        _check_siblings(engine, [planned, checks_only], telemetry=True)


def test_each_cell_owns_its_function_table():
    """LOADFN/REPLACEFN write the function table, so a cell adopting a
    shape gets its own table over the shared functions. (The VM also
    runs dynamic programs on a private copy; this pins the memo's own
    guard.)"""
    spec = _spec("dynload", Strategy.FULL_DUPLICATION, 1)
    program = get_workload("dynload").compile()
    first = run_stages(Cell(spec, program, "first", "fast"), SHAPE_STAGES)
    shape = Shape.of(first)

    def adopted(label):
        cell = Cell(replace(spec, interval=100), program, label, "fast")
        shape.adopt(cell)
        return cell.transformed

    loaded = adopted("loads").define_at_runtime("plug_mix")[0]
    sibling = adopted("sibling")
    assert "plug_mix" not in shape.transformed.functions
    assert "plug_mix" not in sibling.functions
    assert sibling.installed_template("plug_mix") is None
    assert sibling.loader is shape.transformed.loader
    assert all(
        sibling.functions[name] is fn
        for name, fn in first.transformed.functions.items()
    )
    assert loaded.name == "plug_mix"


def test_counts_and_transform_calls_on_the_short_matrix(monkeypatch):
    """The benchmark's `short` cell set: 12 workloads x 3 strategies x
    4 intervals is 36 shapes of 4 cells each."""
    calls = []
    transform = SamplingFramework.transform

    def counting(self, *args, **kwargs):
        calls.append(self.strategy)
        return transform(self, *args, **kwargs)

    monkeypatch.setattr(SamplingFramework, "transform", counting)
    workloads = (
        "compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
        "optcompiler", "pbob", "volano", "dynload", "osr",
    )
    specs = [
        _spec(workload, strategy, interval)
        for workload, strategy, interval in itertools.product(
            workloads, DUPLICATING, (1, 100, 1000, 10000)
        )
    ]
    runner = ExperimentRunner(engine="fast", cache=False)
    runner.run_many(specs, jobs=1)
    assert len(calls) == 36
    assert _counter(runner, "harness.shape.misses") == 36
    assert _counter(runner, "harness.shape.hits") == 108
    assert _counter(runner, "harness.audit.cells") == 144
    assert _counter(runner, "harness.audit.reconciled") == 144
    stages = runner.metrics.snapshot()
    assert stages["harness.stage.transform"]["count"] == 36
    assert stages["harness.stage.audit"]["count"] == 36
    for name in ("execute", "verify", "reconcile", "profile", "seal"):
        assert stages[f"harness.stage.{name}"]["count"] == 144


def test_failed_audit_fails_every_cell_of_its_shape(monkeypatch):
    import repro.harness.experiment as exp

    def broken_audit(program, strategy=None, label=None, **kw):
        report = AuditReport(label=label or "x", strategy=strategy)
        report.findings = [
            Finding("AUD003", Severity.ERROR, "main",
                    "duplicated code contains a cycle")
        ]
        return report

    monkeypatch.setattr(exp, "audit_program", broken_audit)
    runner = ExperimentRunner(cache=False)
    for interval in (1, 100, 1000):
        spec = _spec("compress", Strategy.FULL_DUPLICATION, interval)
        with pytest.raises(HarnessError, match="static audit failed") as err:
            runner.run(spec)
        assert err.value.stage == "audit"
        assert str(err.value).startswith(spec.describe() + ":")
    # A failed shape is never memoized: every cell re-audits.
    assert _counter(runner, "harness.shape.misses") == 3
    assert _counter(runner, "harness.shape.hits") == 0
    assert _counter(runner, "harness.audit.cells") == 3
