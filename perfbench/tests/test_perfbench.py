"""Tests of the benchmark's own arithmetic, names and traced pipeline.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from cells import (  # noqa: E402
    END_TO_END,
    END_TO_END_TABLE_ONLY,
    METRIC_NAME,
    PER_LAYER,
    WORKLOADS,
    make_cells,
)
from spans import PROBE_SPAN, Span, Tracer, busy_by_name, chrome_trace, self_times  # noqa: E402


def span(sid, name, parent, start, end):
    return Span(sid=sid, name=name, parent=parent, cell="c0", start=start, end=end)


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            span(0, "cell", None, 0.0, 10.0),
            span(1, "vm.execute", 0, 1.0, 5.0),
            span(2, "telemetry.flush", 1, 2.0, 3.0),
            span(3, "telemetry.flush", 1, 4.0, 4.5),
            span(4, "analysis.audit", 0, 6.0, 8.0),
        ]
        own = self_times(spans)
        assert own == pytest.approx({0: 4.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 2.0})
        # Self times partition the root's duration.
        assert sum(own.values()) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(0, "cell", None, 0.0, 10.0),
            span(1, "a", 0, 1.0, 3.0),
            span(2, "b", 0, 2.0, 5.0),
            span(3, "c", 0, 8.0, 12.0),
        ]
        # covered: [1, 5] and [8, 10] -> 6 of 10
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_busy_skips_everything_under_a_probe(self):
        spans = [
            span(0, "cell", None, 0.0, 4.0),
            span(1, "telemetry.flush", 0, 1.0, 2.0),
            span(2, PROBE_SPAN, None, 5.0, 9.0),
            span(3, "telemetry.flush", 2, 6.0, 7.0),
        ]
        busy = busy_by_name(spans)
        assert busy["telemetry.flush"] == [1, pytest.approx(1.0)]
        assert busy[PROBE_SPAN] == [1, pytest.approx(3.0)]

    def test_tracer_nests_and_exports(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.cell = "k"
        with tracer.span("cell"):
            with tracer.span("sampling.transform"):
                pass
        outer, inner = tracer.spans
        assert inner.parent == outer.sid and inner.cell == "k"
        events = chrome_trace(tracer.spans, {0: "setup"})["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["cell", "sampling.transform"]
        assert complete[1]["args"]["cell"] == "k"
        json.dumps(events)


class TestNames:
    def test_metric_names_are_valid(self):
        names = list(END_TO_END) + list(END_TO_END_TABLE_ONLY) + list(PER_LAYER)
        assert len(names) == len(set(names))
        for name in names:
            assert METRIC_NAME.match(name), name

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
            name: unit for name, (unit, _, _) in END_TO_END.items()}
        assert {m["name"]: m["better"] for m in spec["end_to_end"]} == {
            name: better for name, (_, better, _) in END_TO_END.items()}
        assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
            name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_cells_follow_the_seed(self):
        assert make_cells("short", 3) == make_cells("short", 3)
        assert make_cells("short", 3) != make_cells("short", 4)
        cells = make_cells("short", 3)
        assert len(cells) == 144
        assert all(c["phase"] == 0 for c in cells if c["interval"] == 1)
        assert all(0 <= c["phase"] < c["interval"] for c in cells)
        assert len(make_cells("observed", 3)) == 108
        assert all(c["interval"] == 1000 for c in make_cells("long", 3))


@pytest.mark.parametrize("engine", ["fast", "compiled"])
@pytest.mark.parametrize("workload", ["compress", "dynload"])
def test_traced_pipeline_equals_runner(engine, workload, tmp_path):
    from repro.harness import ExperimentRunner
    from sweep import profile_digest, to_spec
    from traced import TracedPipeline, counting

    cell = {"workload": workload, "strategy": "full-duplication",
            "instrumentation": ["call-edge"], "trigger": "counter",
            "interval": 100, "scale": None, "phase": 37}
    runner = ExperimentRunner(engine=engine, cache=False, jobs=1, ledger=False)
    expected = runner.run(to_spec(cell))
    tracer = Tracer()
    with counting() as counter:
        pipeline = TracedPipeline(engine, tracer, counter)
        pipeline.setup(workload, None)
        got = pipeline.run_cell(cell)
    assert got["value"] == repr(expected.value)
    assert got["cycles"] == expected.cycles
    assert got["stats"] == expected.stats.as_dict()
    assert got["profiles"] == profile_digest(expected.profiles)
    names = {s.name for s in tracer.spans}
    assert {"cell", "sampling.transform", "analysis.audit", "vm.execute",
            "analysis.reconcile", PROBE_SPAN} <= names
    assert counter.counts["cfg.builds"] > 0
    assert counter.counts["bytecode.verify_calls"] > 0


def test_traced_set_up_builds_the_workload_program():
    from repro.bytecode.disassembler import disassemble_program
    from repro.workloads.suite import get_workload
    from traced import TracedPipeline

    pipeline = TracedPipeline("fast", Tracer())
    for name in ("javac", "osr"):
        pipeline.setup(name, None)
        assert disassemble_program(pipeline.programs[(name, None)]) == \
            disassemble_program(get_workload(name).compile())


def test_streamed_cell_equals_runner(tmp_path):
    from repro.harness import ExperimentRunner
    from sweep import to_spec
    from traced import TracedPipeline

    cell = {"workload": "jess", "strategy": "partial-duplication",
            "instrumentation": ["call-edge"], "trigger": "counter",
            "interval": 1000, "scale": None, "phase": 5}
    runner = ExperimentRunner(engine="compiled", cache=False, jobs=1, ledger=False,
                              stream=str(tmp_path / "runner"), profile=True)
    expected = runner.run(to_spec(cell))
    tracer = Tracer()
    pipeline = TracedPipeline("compiled", tracer, stream=str(tmp_path / "traced"))
    pipeline.setup("jess", None)
    got = pipeline.run_cell(cell)
    pipeline.read_back()
    assert got["cycles"] == expected.cycles
    assert got["stats"] == expected.stats.as_dict()
    names = {s.name for s in tracer.spans}
    assert {"telemetry.open", "telemetry.seal", "telemetry.read",
            "profiling.snapshot", "profiling.merge"} <= names
    assert pipeline.exact["telemetry.spool_bytes"] > 0
