"""Property suite for the snapshot algebra (:mod:`repro.snapshots`).

For every registered surface: merge is associative, commutative for
every field kind except ``last`` (gauges are last-write-wins), has the
empty snapshot as its identity, and ``apply(base, diff(base, cur)) ==
cur`` for a *cur* that evolved monotonically from *base* — also after
the delta's JSON round trip. Floats are drawn as ``k/1024`` with
bounded ``k``, so every sum is exact.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.profiling import OverheadProfiler, merge_snapshots
from repro.profiling.profiler import COMPONENTS
from repro.snapshots import METRICS, SURFACES, SnapshotStream, replay
from repro.telemetry import (
    SpoolReader,
    StreamingRecorder,
    diff_metrics_snapshot,
    reconstruct_metrics_snapshots,
)

COUNTS = st.integers(0, 1000)
EXACT = st.integers(0, 1 << 20).map(lambda k: k / 1024)
SIGNED = st.integers(-(1 << 20), 1 << 20).map(lambda k: k / 1024)

#: Histogram bounds are fixed per key, as a registry fixes them.
BOUNDS = {"h0": [4, 16], "h1": [1, 10, 100]}


def _histogram(key):
    n = len(BOUNDS[key]) + 1
    return st.builds(
        lambda count, total, lo, hi, buckets: {
            "type": "histogram", "count": count, "sum": total,
            "min": lo, "max": hi, "bounds": list(BOUNDS[key]),
            "buckets": buckets,
        },
        COUNTS, EXACT, st.none() | EXACT, st.none() | EXACT,
        st.lists(COUNTS, min_size=n, max_size=n),
    )


def metrics_snapshots(gauges=True):
    entries = {
        "c0": st.builds(lambda v: {"type": "counter", "value": v}, COUNTS),
        "c1{fn=f}": st.builds(
            lambda v: {"type": "counter", "value": v}, COUNTS
        ),
        "h0": _histogram("h0"),
        "h1": _histogram("h1"),
    }
    if gauges:
        entries["g0"] = st.builds(
            lambda v: {"type": "gauge", "value": v}, COUNTS | SIGNED
        )
    return st.fixed_dictionaries({}, optional=entries)


def cct_tables():
    cell = st.dictionaries(
        st.sampled_from(["check", "dispatch", "payload"]),
        st.tuples(COUNTS, EXACT).map(list), max_size=3,
    )
    return st.dictionaries(
        st.sampled_from(["main", "main;f", "main;f;g", "main;h"]), cell,
        max_size=4,
    )


def profile_snapshots():
    def table(keys, values):
        return st.dictionaries(st.sampled_from(keys), values, max_size=4)

    return st.fixed_dictionaries(
        {
            "version": st.just(1),
            "interval": st.sampled_from([1, 64, 1000, None]),
            "runs": COUNTS,
            "boundaries": COUNTS,
            "samples": COUNTS,
            "elapsed_seconds": EXACT,
            "wall_seconds": st.fixed_dictionaries(
                {c: EXACT for c in COMPONENTS}
            ),
            "sample_counts": st.fixed_dictionaries(
                {c: COUNTS for c in COMPONENTS}
            ),
            "heat": table(["f@0", "f@3", "g@1"], COUNTS),
            "op_heat": table(["CHECK", "INSTR", "PUSH"], COUNTS),
            "stacks": table(
                ["main", "main;f", "main;g"],
                st.tuples(COUNTS, EXACT).map(list),
            ),
        },
        optional={
            "suppression": st.fixed_dictionaries(
                {"samples": COUNTS, "flushes": COUNTS, "max_run": COUNTS}
            ),
            "cct": cct_tables(),
        },
    )


#: surface -> (snapshot strategy, commutative-only strategy, empty)
CASES = {
    "metrics": (metrics_snapshots(), metrics_snapshots(gauges=False), {}),
    "profile": (profile_snapshots(), profile_snapshots(),
                merge_snapshots([])),
    "cct": (cct_tables(), cct_tables(), {}),
}

SETTINGS = settings(max_examples=60, deadline=None)


def test_every_registered_surface_is_covered():
    assert set(CASES) == set(SURFACES)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@SETTINGS
@given(data=st.data())
def test_merge_is_associative(surface, data):
    schema, (snapshots, _, _) = SURFACES[surface], CASES[surface]
    a, b, c = (data.draw(snapshots) for _ in range(3))
    left = schema.merge(schema.merge(a, b), c)
    assert left == schema.merge(a, schema.merge(b, c))
    assert left == schema.merge(a, b, c)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@SETTINGS
@given(data=st.data())
def test_merge_is_commutative_without_last_fields(surface, data):
    schema, (_, snapshots, _) = SURFACES[surface], CASES[surface]
    a, b = data.draw(snapshots), data.draw(snapshots)
    assert schema.merge(a, b) == schema.merge(b, a)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@SETTINGS
@given(data=st.data())
def test_empty_snapshot_is_the_identity(surface, data):
    schema, (snapshots, _, empty) = SURFACES[surface], CASES[surface]
    a = data.draw(snapshots)
    assert schema.merge(empty, a) == a
    assert schema.merge(a, empty) == a


@pytest.mark.parametrize("surface", sorted(SURFACES))
@SETTINGS
@given(data=st.data())
def test_apply_diff_round_trips_through_json(surface, data):
    schema, (snapshots, _, _) = SURFACES[surface], CASES[surface]
    base, step = data.draw(snapshots), data.draw(snapshots)
    cur = schema.merge(base, step)  # monotone evolution from base
    delta = json.loads(json.dumps(schema.diff(base, cur)))
    schema.validate(delta)
    assert schema.merge(base, delta) == cur


@pytest.mark.parametrize("surface", sorted(SURFACES))
@SETTINGS
@given(data=st.data())
def test_stream_replays_every_snapshot(surface, data):
    schema, (snapshots, _, _) = SURFACES[surface], CASES[surface]
    steps = data.draw(st.lists(snapshots, min_size=1, max_size=6))
    history = [steps[0]]
    for step in steps[1:]:
        history.append(schema.merge(history[-1], step))
    stream = SnapshotStream(schema, keyframe_every=4)
    records = json.loads(json.dumps([stream.push(s) for s in history]))
    assert list(replay(schema, records)) == history


# ---------------------------------------------------------------------------
# regressions


def _profile(interval):
    profiler = OverheadProfiler(interval=interval)
    profiler.start()
    profiler.stop()
    return profiler.snapshot()


def test_empty_profile_casts_no_interval_vote():
    a = _profile(1000)
    assert merge_snapshots([merge_snapshots([]), a])["interval"] == 1000
    assert merge_snapshots([merge_snapshots([]), a]) == merge_snapshots([a])
    assert merge_snapshots([a, _profile(64)])["interval"] is None


def test_diff_rejects_a_key_that_changed_type():
    base = {"x": {"type": "counter", "value": 1}}
    current = {"x": {"type": "gauge", "value": 1}}
    with pytest.raises(ReproError, match="'x'"):
        diff_metrics_snapshot(base, current)


def test_diff_rejects_changed_histogram_bounds():
    def hist(bounds):
        return {"h": {"type": "histogram", "count": 1, "sum": 1, "min": 1,
                      "max": 1, "bounds": bounds,
                      "buckets": [1] + [0] * len(bounds)}}

    for bounds in ([4, 32], [4, 16, 64]):
        with pytest.raises(ReproError, match="'h'"):
            diff_metrics_snapshot(hist([4, 16]), hist(bounds))


def test_unknown_metric_type_is_rejected():
    with pytest.raises(ReproError, match="unknown type"):
        METRICS.merge({"x": {"type": "summary", "value": 1}})


def _spool(tmp_path):
    profiler = OverheadProfiler(interval=1)
    recorder = StreamingRecorder(tmp_path / "spool", profiler=profiler)
    for i in range(3):
        recorder.metrics.counter("x").inc(i + 1)
        profiler.start()
        profiler.stop()
        recorder.flush_epoch(force=True)
    recorder.close()
    return tmp_path / "spool"


def _corrupt(spool, epoch, field, **changes):
    segment = spool / "segment-000000.jsonl"
    lines = segment.read_text(encoding="utf-8").splitlines()
    payload = json.loads(lines[epoch])
    payload[field].update(changes)
    lines[epoch] = json.dumps(payload, separators=(",", ":"))
    segment.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("field", ["metrics", "profile"])
def test_reader_rejects_unknown_record_kind(tmp_path, field):
    spool = _spool(tmp_path)
    _corrupt(spool, 1, field, kind="bogus")
    reader = SpoolReader(spool)
    replay_field = {"metrics": reader.metrics_snapshots,
                    "profile": reader.profile_snapshots}[field]
    with pytest.raises(ReproError, match=f"{field} of epoch 1: .*'bogus'"):
        replay_field()
    if field == "metrics":
        records = [epoch["metrics"] for epoch in reader.epochs]
        with pytest.raises(ReproError, match="'bogus'"):
            reconstruct_metrics_snapshots(records)


def test_reader_rejects_malformed_keyframe(tmp_path):
    spool = _spool(tmp_path)
    _corrupt(spool, 0, "metrics",
             snapshot={"x": {"type": "counter", "value": "five"}})
    with pytest.raises(ReproError, match="metrics of epoch 0: 'x'"):
        SpoolReader(spool).final_metrics()


def test_reader_replays_an_intact_spool(tmp_path):
    reader = SpoolReader(_spool(tmp_path))  # three epochs + the final one
    values = [s["x"]["value"] for s in reader.metrics_snapshots()]
    assert values == [1, 3, 6, 6]
    assert [s["runs"] for s in reader.profile_snapshots()] == [1, 2, 3, 3]
