"""Golden bytes for the snapshot wire formats.

Spools written by older versions must stay readable, and epoch records
must stay byte-for-byte identical across refactors of the snapshot
algebra (:mod:`repro.snapshots`). The literals below were captured from
the hand-written merge/diff functions that preceded the schema-driven
ones, by replaying the deterministic sequences built here: a streaming
recorder fed scripted metric updates and a profiler on a fake clock.
"""

from __future__ import annotations

import hashlib
import json
import types

import pytest

from repro.profiling import OverheadProfiler, merge_snapshots
from repro.profiling.cct import diff_cct_table, merge_cct_tables
from repro.telemetry import (
    MetricsRegistry,
    SpoolReader,
    StreamingRecorder,
    diff_metrics_snapshot,
    diff_profile_snapshot,
)
from repro.telemetry.compaction import apply_metrics_delta

EPOCHS = 18


class _FakeClock:
    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _frames(*names):
    return [
        types.SimpleNamespace(function=types.SimpleNamespace(name=name))
        for name in names
    ]


_COMPONENTS = ("dispatch", "check", "payload", "poll", "trampoline")


def _profile_step(profiler, i):
    """Epoch *i*'s profiler activity; the span stays open on odd epochs
    so mid-span snapshots are covered too."""
    if profiler._run_started is None:
        profiler.start()
    for j in range(1 + i % 4):
        fn = f"f{(i + j) % 3}"
        profiler.boundary(_COMPONENTS[(i * j) % len(_COMPONENTS)], fn,
                          j % 2, 1 + j, _frames("main", fn), 0)
    if i % 2 == 0:
        profiler.stop()


def _metrics_step(registry, i):
    registry.counter("cells").inc(i % 3)
    registry.counter("by", {"fn": f"f{i % 2}"}).inc()
    registry.gauge("ratio").set(round(i / 7, 4))
    if i % 4 == 1:
        registry.gauge("mode").set(i)
    registry.histogram("lat", bounds=(4, 16, 64)).observe(i * 3)
    registry.histogram("secs", bounds=(1, 10)).observe(0.1 * i)
    if i >= 9:
        registry.counter("late").inc(5)


def epoch_records(path, **profiler_options):
    """Drive a streaming recorder through :data:`EPOCHS` forced epoch
    flushes; returns the spool's epochs as parsed payloads."""
    profiler = OverheadProfiler(interval=1, clock=_FakeClock(),
                                **profiler_options)
    recorder = StreamingRecorder(path, profiler=profiler)
    for i in range(EPOCHS):
        _metrics_step(recorder.metrics, i)
        if i == 5:
            # No delta can express a changed interval (it merges to
            # None), so this epoch must fall back to a keyframe.
            profiler.interval = 2
        _profile_step(profiler, i)
        recorder.flush_epoch(force=True)
    recorder.writer.close()
    lines = []
    for segment in sorted(path.glob("segment-*.jsonl")):
        lines.extend(segment.read_text(encoding="utf-8").splitlines())
    return [json.loads(line) for line in lines], recorder, profiler


def _wire(record):
    return json.dumps(record, separators=(",", ":"))


def stream_digest(epochs, field):
    """sha256 over the wire bytes of every epoch's *field* record."""
    blob = "\n".join(_wire(epoch[field]) for epoch in epochs)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_snapshots():
    """Three profiler snapshots: plain, suppressed + CCT, and one with a
    different interval."""
    out = []
    for interval, options, steps in (
        (1, {}, (0, 1, 2)),
        (1, {"suppress": True, "cct": True}, (3, 4)),
        (4, {"cct": True}, (5, 6, 7)),
    ):
        profiler = OverheadProfiler(interval=interval, clock=_FakeClock(),
                                    **options)
        for i in steps:
            _profile_step(profiler, i)
        if profiler._run_started is not None:
            profiler.stop()
        out.append(profiler.snapshot())
    return out


def metrics_snapshots():
    """Two registry snapshots of the same run (base, current) plus an
    independent worker's snapshot."""
    registry = MetricsRegistry()
    for i in range(4):
        _metrics_step(registry, i)
    base = registry.snapshot()
    for i in range(4, 11):
        _metrics_step(registry, i)
    worker = MetricsRegistry()
    for i in range(2, 6):
        _metrics_step(worker, i)
    return base, registry.snapshot(), worker.snapshot()


def merged_registry(*snapshots):
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


CCT_BASE = {"main": {"check": [2, 0.5]}, "main;f": {"dispatch": [1, 0.25]}}
CCT_CURRENT = {
    "main": {"check": [5, 1.0], "dispatch": [1, 0.125]},
    "main;f": {"dispatch": [1, 0.25]},
    "main;g": {"check": [3, 0.375]},
}


# ---------------------------------------------------------------------------
# literals captured from the hand-written functions

#: Record kinds per epoch (K = keyframe, D = delta).
METRICS_KINDS = 'KDDDDDDDDDDDDDDDKD'
PROFILE_KINDS = 'KDDDDKDDDDDDDDDDKD'

METRICS_DIGEST = (
    '817926d97f5db88c4d51a26ab310ce5cfc1ba5c760aa0f84957faecf11bd56c1'
)

PROFILE_DIGESTS = {
    "plain": '238401a9fe4da222d96667241fa6708beb549f1e1d4f8558d1480cc0d709b6ec',
    "full": '352c71cf01c841f4a699f055b6ced43eb7b222eea1ba17139246b902795fb752',
}

#: Wire bytes of the metrics records of epochs 0-2 (keyframe, deltas).
METRICS_WIRE = [
    (
        '{"kind":"keyframe","seq":0,"snapshot":{"by{fn=f0}":{"type":"counte'
        'r","value":1},"cells":{"type":"counter","value":0},"lat":{"type":"'
        'histogram","count":1,"sum":0,"min":0,"max":0,"bounds":[4,16,64],"b'
        'uckets":[1,0,0,0]},"ratio":{"type":"gauge","value":0.0},"secs":{"t'
        'ype":"histogram","count":1,"sum":0.0,"min":0.0,"max":0.0,"bounds":'
        '[1,10],"buckets":[1,0,0]}}}'
    ),
    (
        '{"kind":"delta","seq":1,"changed":{"by{fn=f1}":{"type":"counter","'
        'value":1},"cells":{"type":"counter","value":1},"lat":{"type":"hist'
        'ogram","count":1,"sum":3,"min":0,"max":3,"bounds":[4,16,64],"bucke'
        'ts":[1,0,0,0]},"mode":{"type":"gauge","value":1},"ratio":{"type":"'
        'gauge","value":0.1429},"secs":{"type":"histogram","count":1,"sum":'
        '0.1,"min":0.0,"max":0.1,"bounds":[1,10],"buckets":[1,0,0]}}}'
    ),
    (
        '{"kind":"delta","seq":2,"changed":{"by{fn=f0}":{"type":"counter","'
        'value":1},"cells":{"type":"counter","value":2},"lat":{"type":"hist'
        'ogram","count":1,"sum":6,"min":0,"max":6,"bounds":[4,16,64],"bucke'
        'ts":[0,1,0,0]},"ratio":{"type":"gauge","value":0.2857},"secs":{"ty'
        'pe":"histogram","count":1,"sum":0.20000000000000004,"min":0.0,"max'
        '":0.2,"bounds":[1,10],"buckets":[1,0,0]}}}'
    ),
]

#: Wire bytes of the profile records of epochs 0-2, per profiler.
PROFILE_WIRE = {
    "plain": [
        (
            '{"kind":"keyframe","seq":0,"snapshot":{"version":1,"interval":1,"r'
            'uns":1,"boundaries":1,"samples":1,"elapsed_seconds":0.002,"wall_se'
            'conds":{"dispatch":0.001,"compiled":0.0,"check":0.0,"dup":0.0,"tra'
            'mpoline":0.0,"payload":0.0,"poll":0.0,"runtime":0.001},"sample_cou'
            'nts":{"dispatch":1,"compiled":0,"check":0,"dup":0,"trampoline":0,"'
            'payload":0,"poll":0,"runtime":0},"heat":{"f0@0":1},"op_heat":{"PUS'
            'H":1},"stacks":{"main;f0":[1,0.001]}}}'
        ),
        (
            '{"kind":"delta","seq":1,"changed":{"version":1,"interval":1,"runs"'
            ':1,"boundaries":2,"samples":2,"elapsed_seconds":0.003,"wall_second'
            's":{"dispatch":0.001,"check":0.001},"sample_counts":{"dispatch":1,'
            '"check":1},"heat":{"f1@0":1,"f2@1":1},"op_heat":{"PUSH":1,"POP":1}'
            ',"stacks":{"main;f1":[1,0.001],"main;f2":[1,0.001]}}}'
        ),
        (
            '{"kind":"delta","seq":2,"changed":{"version":1,"interval":1,"runs"'
            ':0,"boundaries":3,"samples":3,"elapsed_seconds":0.0040000000000000'
            '03,"wall_seconds":{"dispatch":0.002,"trampoline":0.001000000000000'
            '0009,"payload":0.0010000000000000009,"runtime":0.00100000000000000'
            '09},"sample_counts":{"dispatch":1,"trampoline":1,"payload":1},"hea'
            't":{"f0@1":1,"f1@0":1,"f2@0":1},"op_heat":{"PUSH":1,"POP":1,"DUP":'
            '1},"stacks":{"main;f0":[1,0.0010000000000000009],"main;f1":[1,0.00'
            '10000000000000009],"main;f2":[1,0.002]}}}'
        ),
    ],
    "full": [
        (
            '{"kind":"keyframe","seq":0,"snapshot":{"version":1,"interval":1,"r'
            'uns":1,"boundaries":1,"samples":1,"elapsed_seconds":0.002,"wall_se'
            'conds":{"dispatch":0.001,"compiled":0.0,"check":0.0,"dup":0.0,"tra'
            'mpoline":0.0,"payload":0.0,"poll":0.0,"runtime":0.001},"sample_cou'
            'nts":{"dispatch":1,"compiled":0,"check":0,"dup":0,"trampoline":0,"'
            'payload":0,"poll":0,"runtime":0},"heat":{"f0@0":1},"op_heat":{"PUS'
            'H":1},"stacks":{"main;f0":[1,0.001]},"suppression":{"samples":1,"f'
            'lushes":1,"max_run":1},"cct":{"main;f0":{"dispatch":[1,0.001]}}}}'
        ),
        (
            '{"kind":"delta","seq":1,"changed":{"version":1,"interval":1,"runs"'
            ':1,"boundaries":2,"samples":2,"elapsed_seconds":0.003,"wall_second'
            's":{"dispatch":0.001,"check":0.001},"sample_counts":{"dispatch":1,'
            '"check":1},"heat":{"f1@0":1,"f2@1":1},"op_heat":{"PUSH":1,"POP":1}'
            ',"stacks":{"main;f1":[1,0.001],"main;f2":[1,0.001]},"suppression":'
            '{"samples":2,"flushes":2,"max_run":1},"cct":{"main;f1":{"dispatch"'
            ':[1,0.001]},"main;f2":{"check":[1,0.001]}}}}'
        ),
        (
            '{"kind":"delta","seq":2,"changed":{"version":1,"interval":1,"runs"'
            ':0,"boundaries":3,"samples":3,"elapsed_seconds":0.0040000000000000'
            '03,"wall_seconds":{"dispatch":0.002,"trampoline":0.001000000000000'
            '0009,"payload":0.0010000000000000009,"runtime":0.00100000000000000'
            '09},"sample_counts":{"dispatch":1,"trampoline":1,"payload":1},"hea'
            't":{"f0@1":1,"f1@0":1,"f2@0":1},"op_heat":{"PUSH":1,"POP":1,"DUP":'
            '1},"stacks":{"main;f0":[1,0.0010000000000000009],"main;f1":[1,0.00'
            '10000000000000009],"main;f2":[1,0.002]},"suppression":{"samples":3'
            ',"flushes":3,"max_run":1},"cct":{"main;f0":{"payload":[1,0.0010000'
            '000000000009]},"main;f1":{"trampoline":[1,0.0010000000000000009]},'
            '"main;f2":{"dispatch":[1,0.002]}}}}'
        ),
    ],
}

METRICS_DIFF_WIRE = (
    '{"by{fn=f0}":{"type":"counter","value":4},"by{fn=f1}":{"type":"cou'
    'nter","value":3},"cells":{"type":"counter","value":7},"lat":{"type'
    '":"histogram","count":7,"sum":147,"min":0,"max":30,"bounds":[4,16,'
    '64],"buckets":[0,2,5,0]},"late":{"type":"counter","value":10},"mod'
    'e":{"type":"gauge","value":9},"ratio":{"type":"gauge","value":1.42'
    '86},"secs":{"type":"histogram","count":7,"sum":4.9,"min":0.0,"max"'
    ':1.0,"bounds":[1,10],"buckets":[7,0,0]}}'
)

PROFILE_DIFF_WIRE = (
    '{"version":1,"interval":1,"runs":1,"boundaries":5,"samples":5,"ela'
    'psed_seconds":0.006,"wall_seconds":{"dispatch":0.002,"check":0.001'
    ',"trampoline":0.001,"poll":0.001,"runtime":0.001},"sample_counts":'
    '{"dispatch":2,"check":1,"trampoline":1,"poll":1},"heat":{"f0@0":1,'
    '"f0@1":1,"f1@0":1,"f2@0":1,"f1@1":1},"op_heat":{"PUSH":2,"POP":1,"'
    'DUP":1,"SWAP":1},"stacks":{"main;f0":[2,0.002],"main;f1":[2,0.002]'
    ',"main;f2":[1,0.001]},"suppression":{"samples":5,"flushes":5,"max_'
    'run":1},"cct":{"main;f0":{"dispatch":[1,0.001],"trampoline":[1,0.0'
    '01]},"main;f1":{"poll":[1,0.001],"dispatch":[1,0.001]},"main;f2":{'
    '"check":[1,0.001]}}}'
)

CCT_DIFF_WIRE = (
    '{"main":{"check":[3,0.5],"dispatch":[1,0.125]},"main;g":{"check":['
    '3,0.375]}}'
)

#: Merge outputs, compared as values (key order is not part of them).
METRICS_MERGE = (
    '{"by{fn=f0}": {"type": "counter", "value": 8}, "by{fn=f1}": {"type'
    '": "counter", "value": 7}, "cells": {"type": "counter", "value": 1'
    '5}, "lat": {"type": "histogram", "count": 15, "sum": 207, "min": 0'
    ', "max": 30, "bounds": [4, 16, 64], "buckets": [2, 8, 5, 0]}, "lat'
    'e": {"type": "counter", "value": 10}, "mode": {"type": "gauge", "v'
    'alue": 5}, "ratio": {"type": "gauge", "value": 0.7143}, "secs": {"'
    'type": "histogram", "count": 15, "sum": 6.9, "min": 0.0, "max": 1.'
    '0, "bounds": [1, 10], "buckets": [15, 0, 0]}}'
)

METRICS_APPLY = (
    '{"by{fn=f0}": {"type": "counter", "value": 6}, "by{fn=f1}": {"type'
    '": "counter", "value": 5}, "cells": {"type": "counter", "value": 1'
    '0}, "lat": {"type": "histogram", "count": 11, "sum": 165, "min": 0'
    ', "max": 30, "bounds": [4, 16, 64], "buckets": [2, 4, 5, 0]}, "lat'
    'e": {"type": "counter", "value": 10}, "mode": {"type": "gauge", "v'
    'alue": 9}, "ratio": {"type": "gauge", "value": 1.4286}, "secs": {"'
    'type": "histogram", "count": 11, "sum": 5.5, "min": 0.0, "max": 1.'
    '0, "bounds": [1, 10], "buckets": [11, 0, 0]}}'
)

PROFILE_MERGE = (
    '{"version": 1, "interval": null, "runs": 5, "boundaries": 20, "sam'
    'ples": 13, "elapsed_seconds": 0.018000000000000002, "wall_seconds"'
    ': {"dispatch": 0.005, "compiled": 0.0, "check": 0.003, "dup": 0.0,'
    ' "trampoline": 0.003000000000000001, "payload": 0.001, "poll": 0.0'
    '01, "runtime": 0.005000000000000001}, "sample_counts": {"dispatch"'
    ': 5, "compiled": 0, "check": 3, "dup": 0, "trampoline": 3, "payloa'
    'd": 1, "poll": 1, "runtime": 0}, "heat": {"f0@0": 3, "f0@1": 2, "f'
    '1@0": 3, "f2@0": 2, "f2@1": 1, "f1@1": 2}, "op_heat": {"PUSH": 5, '
    '"POP": 4, "DUP": 3, "SWAP": 1}, "stacks": {"main;f0": [5, 0.005], '
    '"main;f1": [5, 0.005000000000000001], "main;f2": [3, 0.003]}, "cct'
    '": {"main;f0": {"dispatch": [1, 0.001], "trampoline": [2, 0.002]},'
    ' "main;f1": {"poll": [1, 0.001], "dispatch": [1, 0.001], "check": '
    '[1, 0.001]}, "main;f2": {"check": [1, 0.001]}}, "suppression": {"s'
    'amples": 5, "flushes": 5, "max_run": 1}}'
)

PROFILE_MERGE_AB = (
    '{"version": 1, "interval": 1, "runs": 3, "boundaries": 11, "sample'
    's": 11, "elapsed_seconds": 0.014000000000000002, "wall_seconds": {'
    '"dispatch": 0.005, "compiled": 0.0, "check": 0.002, "dup": 0.0, "t'
    'rampoline": 0.002000000000000001, "payload": 0.001, "poll": 0.001,'
    ' "runtime": 0.003000000000000001}, "sample_counts": {"dispatch": 5'
    ', "compiled": 0, "check": 2, "dup": 0, "trampoline": 2, "payload":'
    ' 1, "poll": 1, "runtime": 0}, "heat": {"f0@0": 2, "f0@1": 2, "f1@0'
    '": 3, "f2@0": 2, "f2@1": 1, "f1@1": 1}, "op_heat": {"PUSH": 5, "PO'
    'P": 3, "DUP": 2, "SWAP": 1}, "stacks": {"main;f0": [4, 0.004], "ma'
    'in;f1": [4, 0.004000000000000001], "main;f2": [3, 0.003]}, "cct": '
    '{"main;f0": {"dispatch": [1, 0.001], "trampoline": [1, 0.001]}, "m'
    'ain;f1": {"poll": [1, 0.001], "dispatch": [1, 0.001]}, "main;f2": '
    '{"check": [1, 0.001]}}, "suppression": {"samples": 5, "flushes": 5'
    ', "max_run": 1}}'
)

CCT_MERGE = (
    '{"main": {"check": [7, 1.5], "dispatch": [1, 0.125]}, "main;f": {"'
    'dispatch": [2, 0.5]}, "main;g": {"check": [3, 0.375]}}'
)


# ---------------------------------------------------------------------------
# the pins


@pytest.mark.parametrize("variant", ["plain", "full"])
def test_epoch_records_are_byte_identical(tmp_path, variant):
    options = {"suppress": True, "cct": True} if variant == "full" else {}
    epochs, recorder, profiler = epoch_records(tmp_path / "spool", **options)
    kinds = {
        field: "".join(e[field]["kind"][0].upper() for e in epochs)
        for field in ("metrics", "profile")
    }
    assert kinds == {"metrics": METRICS_KINDS, "profile": PROFILE_KINDS}
    assert [_wire(e["metrics"]) for e in epochs[:3]] == METRICS_WIRE
    assert [_wire(e["profile"]) for e in epochs[:3]] == PROFILE_WIRE[variant]
    assert stream_digest(epochs, "metrics") == METRICS_DIGEST
    assert stream_digest(epochs, "profile") == PROFILE_DIGESTS[variant]
    reader = SpoolReader(tmp_path / "spool")
    assert reader.final_metrics() == recorder.metrics.snapshot()
    assert len(reader.profile_snapshots()) == EPOCHS
    assert reader.final_profile()["samples"] == profiler.samples


def test_diff_outputs_are_byte_identical():
    base, current, _ = metrics_snapshots()
    a, b, _ = profile_snapshots()
    assert _wire(diff_metrics_snapshot(base, current)) == METRICS_DIFF_WIRE
    assert _wire(
        diff_profile_snapshot(a, merge_snapshots([a, b]))
    ) == PROFILE_DIFF_WIRE
    assert _wire(diff_cct_table(CCT_BASE, CCT_CURRENT)) == CCT_DIFF_WIRE


def test_merge_outputs_are_unchanged():
    base, current, worker = metrics_snapshots()
    a, b, c = profile_snapshots()
    delta = diff_metrics_snapshot(base, current)
    assert merged_registry(current, worker) == json.loads(METRICS_MERGE)
    assert json.dumps(merged_registry(current, worker)) == METRICS_MERGE
    assert apply_metrics_delta(base, delta) == json.loads(METRICS_APPLY)
    assert merge_snapshots([a, b, c]) == json.loads(PROFILE_MERGE)
    assert merge_snapshots([a, b]) == json.loads(PROFILE_MERGE_AB)
    assert merge_cct_tables(CCT_BASE, CCT_CURRENT) == json.loads(CCT_MERGE)
