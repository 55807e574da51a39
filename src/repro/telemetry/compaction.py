"""Trace-aware redundancy suppression for telemetry streams.

At production sampling intervals the flight recorder is dominated by
*runs*: per-(kind, thread, site) sequences whose successive events
differ only by constant strides — the sequence number advances by the
same step, the cycle stamp by the same period, integer payload fields
(tick indices, dup-enter stamps) by the same delta. A deterministic
cycle-accurate simulator produces such runs by construction whenever
the guest sits in a loop, so collapsing them is *lossless*: a
:class:`SuppressedRun` stores the first event plus the strides and the
repeat count, and :func:`inflate` regenerates the original events
bit-for-bit (pinned across all three engines by
tests/test_compaction.py).

The module has three layers:

* **suppression windows** — :class:`StreamCompactor` keeps one open
  window per (kind, tid, function, pc) key and folds each pushed event
  into its window when the strides match, else flushes a record. The
  :class:`CompactingRecorder` subclass routes the standard
  ``TelemetryRecorder`` hook surface through a compactor, so both
  engines compact transparently; with ``suppress=False`` it *is* the
  plain recorder (the same compile-time no-op contract as
  ``NullRecorder`` — engines only ever branch on ``recorder is None``).
* **delta-encoded snapshots** — the metrics and profile bindings of
  the one snapshot algebra in :mod:`repro.snapshots`: a delta is itself
  a valid snapshot, so keyframe + deltas reconstruct through the same
  merge pool workers use. :func:`diff_metrics_snapshot` /
  :func:`apply_metrics_delta` and :func:`diff_profile_snapshot` are
  the schemas' ``diff``/``merge``; :class:`DeltaSnapshotStream` and
  :func:`reconstruct_metrics_snapshots` are the generic keyframe
  writer and replay bound to metrics.
* **records on the wire** — :func:`records_to_jsonl` /
  :func:`records_from_jsonl` serialize mixed Event/SuppressedRun
  streams; ``repro.telemetry.exporters`` re-inflates them for the
  Chrome exporter so existing consumers never see a compacted record.

Accuracy is quantified with the paper's own §4.4 metric:
:func:`sample_site_profile` projects a (possibly suppressed) stream
onto a (function, pc) sample profile, and the harness compares it
against a perfect interval-1 profile with ``overlap_percentage``
(docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import pathlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.profiles.profile import Profile
from repro.snapshots import (
    DEFAULT_KEYFRAME_EVERY,
    METRICS,
    PROFILE,
    SnapshotStream,
    replay,
)
from repro.telemetry.events import SAMPLE_FIRED, Event, event_from_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TelemetryRecorder


class SuppressedRun(NamedTuple):
    """``count`` events collapsed into one record.

    The i-th original event (0-based) is::

        Event(first.seq + i * seq_stride,
              first.kind,
              first.cycles + i * cycles_stride,
              first.tid, first.function, first.pc,
              data with each strideable field advanced by i * stride)

    ``data_strides`` aligns with ``first.data``; a stride of 0 means the
    field is constant across the run (which also covers non-integer
    payload values — only exact-int fields ever get a nonzero stride).
    """

    first: Event
    count: int
    seq_stride: int
    cycles_stride: int
    data_strides: Tuple[int, ...]

    @property
    def span_cycles(self) -> int:
        """Time span covered by the run (first to last event)."""
        return (self.count - 1) * self.cycles_stride

    def events(self) -> Iterator[Event]:
        """Regenerate the collapsed events, in order."""
        first = self.first
        yield first
        data = first.data
        strides = self.data_strides
        for i in range(1, self.count):
            if strides and any(strides):
                row = tuple(
                    (k, v if s == 0 else v + i * s)
                    for (k, v), s in zip(data, strides)
                )
            else:
                row = data
            yield Event(
                first.seq + i * self.seq_stride,
                first.kind,
                first.cycles + i * self.cycles_stride,
                first.tid,
                first.function,
                first.pc,
                row,
            )


#: A compacted stream element: a plain event or a collapsed run.
Record = Union[Event, SuppressedRun]


def record_weight(record: Record) -> int:
    """How many original events a record stands for."""
    return record.count if isinstance(record, SuppressedRun) else 1


def total_event_weight(records: Iterable[Record]) -> int:
    return sum(record_weight(r) for r in records)


def inflate(records: Iterable[Record]) -> List[Event]:
    """Re-inflate a compacted stream to the original events.

    Events come back in global ``seq`` order regardless of how runs
    interleaved, so ``inflate(compact(stream)) == stream`` exactly.
    """
    out: List[Event] = []
    for record in records:
        if isinstance(record, SuppressedRun):
            out.extend(record.events())
        else:
            out.append(record)
    out.sort(key=lambda e: e.seq)
    return out


def _strideable(value: Any) -> bool:
    # bool is an int subclass but True+1 would silently become 2.
    return type(value) is int


class _Window:
    """One open suppression window: a pending first event, then (once a
    second compatible event arrives) locked strides and a count."""

    __slots__ = ("first", "count", "seq_stride", "cycles_stride",
                 "data_strides")

    def __init__(self, first: Event):
        self.first = first
        self.count = 1
        self.seq_stride = 0
        self.cycles_stride = 0
        self.data_strides: Tuple[int, ...] = ()

    def derive(self, event: Event) -> bool:
        """Try to lock strides from the pending first event to *event*."""
        first = self.first
        if len(event.data) != len(first.data):
            return False
        strides: List[int] = []
        for (k0, v0), (k1, v1) in zip(first.data, event.data):
            if k0 != k1:
                return False
            if _strideable(v0) and _strideable(v1):
                strides.append(v1 - v0)
            elif v0 == v1 and type(v0) is type(v1):
                strides.append(0)
            else:
                return False
        self.seq_stride = event.seq - first.seq
        self.cycles_stride = event.cycles - first.cycles
        self.data_strides = tuple(strides)
        self.count = 2
        return True

    def extends(self, event: Event) -> bool:
        """Does *event* continue the locked arithmetic progression?"""
        first = self.first
        i = self.count
        if event.seq != first.seq + i * self.seq_stride:
            return False
        if event.cycles != first.cycles + i * self.cycles_stride:
            return False
        if len(event.data) != len(first.data):
            return False
        for (k0, v0), s, (k1, v1) in zip(
            first.data, self.data_strides, event.data
        ):
            if k0 != k1:
                return False
            if s == 0:
                if v0 != v1 or type(v0) is not type(v1):
                    return False
            elif v1 != v0 + i * s:
                return False
        return True

    def record(self) -> Record:
        if self.count == 1:
            return self.first
        return SuppressedRun(
            self.first, self.count, self.seq_stride, self.cycles_stride,
            self.data_strides,
        )


class StreamCompactor:
    """Per-key suppression windows over an event stream.

    Pushed events are grouped by (kind, tid, function, pc) — the
    site-and-context key — and each group's consecutive events collapse
    while they advance by constant strides. Completed records go to
    ``sink`` in completion order; :meth:`flush` closes every open
    window (end of run), :meth:`pending_records` peeks without closing
    (live snapshot reads).

    With ``context_key=True``, events carrying a trailing ``("ctx",
    id)`` data field (a recorder built with ``context=True``) group by
    ``(kind, tid, ctx, pc)`` instead — the full calling context
    replaces the bare function name, so the same pc reached through
    different call chains gets separate windows. Events without a ctx
    field (timer ticks, thread switches, annotations) keep the
    site key. The grouping is still loss-free: a context id pins the
    leaf function, so every window remains homogeneous in
    (kind, tid, function, pc) and :func:`inflate` is unchanged.
    """

    __slots__ = ("sink", "events_in", "records_out", "suppressed",
                 "max_run", "context_key", "_windows")

    def __init__(
        self,
        sink: Callable[[Record], None],
        context_key: bool = False,
    ):
        self.sink = sink
        self.events_in = 0
        self.records_out = 0
        self.suppressed = 0
        self.max_run = 1
        self.context_key = bool(context_key)
        self._windows: Dict[Tuple, _Window] = {}

    def push(self, event: Event) -> None:
        self.events_in += 1
        if self.context_key:
            data = event.data
            if data and data[-1][0] == "ctx":
                # int ctx ids cannot collide with str function names,
                # so both key shapes share one window table.
                key = (event.kind, event.tid, data[-1][1], event.pc)
            else:
                key = (event.kind, event.tid, event.function, event.pc)
        else:
            key = (event.kind, event.tid, event.function, event.pc)
        window = self._windows.get(key)
        if window is None:
            self._windows[key] = _Window(event)
            return
        if window.count == 1:
            if window.derive(event):
                self.suppressed += 1
                return
            self._emit(window.first)
            self._windows[key] = _Window(event)
            return
        if window.extends(event):
            window.count += 1
            self.suppressed += 1
            return
        self._close(window)
        self._windows[key] = _Window(event)

    def _emit(self, record: Record) -> None:
        self.records_out += 1
        self.sink(record)

    def _close(self, window: _Window) -> None:
        if window.count > self.max_run:
            self.max_run = window.count
        self._emit(window.record())

    def flush(self) -> None:
        """Close every open window (stream order by first seq)."""
        windows = sorted(
            self._windows.values(), key=lambda w: w.first.seq
        )
        self._windows.clear()
        for window in windows:
            self._close(window)

    def pending_records(self) -> List[Record]:
        """Records still held in open windows, without closing them."""
        return [
            w.record()
            for w in sorted(self._windows.values(), key=lambda w: w.first.seq)
        ]

    def ratio(self) -> float:
        """Events per emitted-or-pending record (>= 1.0)."""
        out = self.records_out + len(self._windows)
        return self.events_in / out if out else 1.0


# -- the compacting recorder -------------------------------------------------


class CompactingRecorder(TelemetryRecorder):
    """A :class:`TelemetryRecorder` whose ring holds compacted records.

    Every hook funnels through ``_emit``, so both engines (and the
    harness annotate path) compact identically with zero engine-side
    changes. With ``suppress=False`` the compactor is absent and this
    class *is* the plain recorder — the disabled path adds no work,
    mirroring the NullRecorder contract.

    ``dropped_events`` weighs ring evictions in original events (an
    evicted run of 500 loses 500 events), which is what the stream
    reconciler needs to bound how many samples a suffix may be missing.
    """

    __slots__ = ("compactor", "dropped_events")

    def __init__(
        self,
        capacity: int = 65536,
        metrics: Optional[MetricsRegistry] = None,
        suppress: bool = True,
        context: bool = False,
    ):
        # ``context`` both tags events with calling-context ids (the
        # inherited recorder option) and switches the suppression
        # windows to the context key — one flag, because context-keyed
        # windows without ctx-tagged events would silently degrade to
        # the site key.
        super().__init__(capacity=capacity, metrics=metrics, context=context)
        self.dropped_events = 0
        self.compactor = (
            StreamCompactor(self._store, context_key=context)
            if suppress
            else None
        )

    @property
    def suppressing(self) -> bool:
        return self.compactor is not None

    def _store(self, record: Record) -> None:
        evicted = self.ring.append(record)
        if evicted is not None:
            self.dropped_events += record_weight(evicted)

    def _emit(self, kind, cycles, tid, function, pc, data) -> None:
        compactor = self.compactor
        if compactor is None:
            seq = self._seq
            self._seq = seq + 1
            evicted = self.ring.append(
                Event(seq, kind, cycles, tid, function, pc, data)
            )
            if evicted is not None:
                self.dropped_events += 1
            return
        seq = self._seq
        self._seq = seq + 1
        compactor.push(Event(seq, kind, cycles, tid, function, pc, data))

    # -- read side ---------------------------------------------------------

    def records(self) -> Tuple[Record, ...]:
        """The retained compacted stream, including still-open windows."""
        out = list(self.ring)
        if self.compactor is not None:
            out.extend(self.compactor.pending_records())
        return tuple(out)

    def events(self) -> Tuple[Event, ...]:
        """Inflated view — bit-equal to a plain recorder's stream (ring
        evictions aside)."""
        return tuple(inflate(self.records()))

    def summary(self) -> Dict[str, Any]:
        records = self.records()
        payload = {
            "active": True,
            "events": total_event_weight(records),
            "records": len(records),
            "dropped": self.ring.dropped,
            "dropped_events": self.dropped_events,
            "capacity": self.ring.capacity,
        }
        compactor = self.compactor
        payload["compaction"] = {
            "enabled": compactor is not None,
            "events_in": compactor.events_in if compactor else 0,
            "suppressed": compactor.suppressed if compactor else 0,
            "max_run": compactor.max_run if compactor else 1,
            "ratio": round(compactor.ratio(), 3) if compactor else 1.0,
        }
        return payload

    def sync_metrics(self) -> None:
        """Publish ring + compaction state as ``vm.telemetry.*`` metrics
        (idempotent: counters advance by deltas since the last sync)."""
        super().sync_metrics()
        compactor = self.compactor
        metrics = self.metrics
        if compactor is not None:
            self._bump("vm.telemetry.compaction.events_in",
                       compactor.events_in)
            self._bump("vm.telemetry.compaction.suppressed",
                       compactor.suppressed)
            self._bump("vm.telemetry.compaction.records",
                       compactor.records_out + len(compactor._windows))
            metrics.gauge("vm.telemetry.compaction.ratio").set(
                round(compactor.ratio(), 4)
            )
            metrics.gauge("vm.telemetry.compaction.max_run").set(
                compactor.max_run
            )
        self._bump("vm.telemetry.compaction.dropped_events",
                   self.dropped_events)


# -- record (de)serialization ------------------------------------------------


def record_as_dict(record: Record) -> Dict[str, Any]:
    """JSON-ready rendering; plain events render exactly as in the
    uncompacted JSONL format, runs nest under a ``"run"`` key."""
    if isinstance(record, SuppressedRun):
        payload: Dict[str, Any] = {
            "run": {
                "count": record.count,
                "seq_stride": record.seq_stride,
                "cycles_stride": record.cycles_stride,
                "first": record.first.as_dict(),
            }
        }
        if any(record.data_strides):
            payload["run"]["data_strides"] = list(record.data_strides)
        return payload
    return record.as_dict()


def record_from_dict(payload: Dict[str, Any]) -> Record:
    """Inverse of :func:`record_as_dict`."""
    run = payload.get("run")
    if run is None:
        return event_from_dict(payload)
    first = event_from_dict(run["first"])
    strides = run.get("data_strides")
    if strides is None:
        strides = [0] * len(first.data)
    if len(strides) != len(first.data):
        raise ReproError(
            "suppressed run: data_strides length "
            f"{len(strides)} != data length {len(first.data)}"
        )
    return SuppressedRun(
        first,
        int(run["count"]),
        int(run["seq_stride"]),
        int(run["cycles_stride"]),
        tuple(int(s) for s in strides),
    )


def records_to_jsonl(records: Iterable[Record]) -> str:
    """One record per line — the *compact* JSONL format. A stream with
    no runs is byte-identical to the plain exporter's output."""
    return "".join(
        json.dumps(record_as_dict(r), separators=(",", ":")) + "\n"
        for r in records
    )


def records_from_jsonl(text: str) -> List[Record]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(record_from_dict(json.loads(line)))
    return records


def write_records_jsonl(
    records: Iterable[Record], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(records_to_jsonl(records), encoding="utf-8")
    return path


def read_records_jsonl(path: Union[str, pathlib.Path]) -> List[Record]:
    return records_from_jsonl(
        pathlib.Path(path).read_text(encoding="utf-8")
    )


# -- stream -> profile projection --------------------------------------------


def sample_site_profile(
    records: Iterable[Record], name: str = "sample-sites"
) -> Profile:
    """Project a (raw or compacted) stream onto a (function, pc) sample
    profile — the object the §4.4 overlap metric compares. Runs count
    with their full weight, so suppression never biases the profile."""
    profile = Profile(name)
    record = profile.record
    for item in records:
        if isinstance(item, SuppressedRun):
            first = item.first
            if first.kind == SAMPLE_FIRED:
                record((first.function, first.pc), item.count)
        elif item.kind == SAMPLE_FIRED:
            record((item.function, item.pc))
    return profile


# -- delta-encoded snapshots (rules: repro.snapshots) ------------------------

#: ``diff_metrics_snapshot(base, current)``: the change as a valid
#: snapshot (counter increments, histogram count/sum/bucket deltas,
#: changed gauges); raises if a counter went backwards, a key changed
#: type, or histogram bounds changed.
diff_metrics_snapshot = METRICS.diff

#: ``apply_metrics_delta(base, delta)``: base ∘ delta.
apply_metrics_delta = METRICS.merge

#: ``diff_profile_snapshot(base, current)``: the change between two
#: ``OverheadProfiler`` snapshots, so that
#: ``merge_snapshots([base, delta]) == current``.
diff_profile_snapshot = PROFILE.diff


class DeltaSnapshotStream(SnapshotStream):
    """Keyframe + delta encoding for a sequence of metrics snapshots;
    :func:`reconstruct_metrics_snapshots` replays it."""

    def __init__(self, keyframe_every: int = DEFAULT_KEYFRAME_EVERY):
        super().__init__(METRICS, keyframe_every)


def reconstruct_metrics_snapshots(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Dict[str, Any]]]:
    """Replay :class:`DeltaSnapshotStream` records into full snapshots."""
    return list(replay(METRICS, records))
