"""In-memory spans for the traced run: record, self time, Chrome trace.

A span is one call into a layer, recorded from the benchmark's side of
the call. Spans nest through a stack; every span carries the id of the
cell it belongs to, so one cell's spans can be grouped in a viewer.
Nothing here imports :mod:`repro`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    """One recorded call: ``[start, end]`` in seconds on the tracer clock."""

    sid: int
    name: str
    parent: Optional[int]
    cell: Optional[str]
    start: float
    end: float = 0.0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until :func:`chrome_trace`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.cell: Optional[str] = None
        self.track = 0

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._stack[-1].sid if self._stack else None
        record = Span(
            sid=len(self.spans), name=name, parent=parent, cell=self.cell,
            start=self.clock(), args=dict(args, track=self.track),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.duration - covered
    return result


#: Spans that group one cell's layer calls; they are not layer time.
PARENT_SPANS = ("cell", "cell.read", "sweep.merge")
#: The warm rerun after each cell; it and everything under it are
#: measurement, not part of the sweep.
PROBE_SPAN = "probe.warm_execute"
#: Cell ids of the spans outside any cell: set-up, and the read side
#: (each ``cell.read`` span names its cell in its ``of`` argument).
SETUP_CELL = "setup"
READ_CELL = "read"


def busy_by_name(spans: Iterable[Span], skip_under: str = PROBE_SPAN,
                 weight: Callable[[Span], float] = lambda span: 1.0,
                 ) -> Dict[str, List[float]]:
    """Span name -> [calls, summed self seconds times *weight*], leaving
    out every span below a span named *skip_under* (that one is kept)."""
    spans = list(spans)
    own = self_times(spans)
    by_id = {span.sid: span for span in spans}

    def skipped(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == skip_under:
                return True
            parent = by_id.get(parent.parent)
        return False

    totals: Dict[str, List[float]] = {}
    for span in spans:
        if skipped(span):
            continue
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own[span.sid] * weight(span)
    return totals


#: Chrome trace process id for benchmark spans; ``repro trace`` uses 1,
#: so both traces load side by side in one viewer.
TRACE_PID = 2


def chrome_trace(spans: Iterable[Span], tracks: Dict[int, str]) -> Dict[str, object]:
    """Spans as Chrome ``trace_event`` JSON (complete events, µs)."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": TRACE_PID,
         "args": {"name": "perfbench"}},
    ]
    for tid, label in sorted(tracks.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": TRACE_PID,
                       "tid": tid, "args": {"name": label}})
    for span in spans:
        args = {k: v for k, v in span.args.items() if k != "track"}
        if span.cell is not None:
            args["cell"] = span.cell
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": TRACE_PID,
            "tid": span.args.get("track", 0),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span], tracks: Dict[int, str]) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, tracks), handle)
