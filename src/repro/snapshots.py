"""One snapshot algebra for every mergeable surface.

Metrics, profile and calling-context snapshots are plain dicts, merged
across workers and delta-encoded across time. Each surface is declared
here once as a *field-kind schema* (:data:`METRICS`, :data:`PROFILE`,
:data:`CCT`; docs/OBSERVABILITY.md tabulates the kinds). Every kind has
``merge(*snapshots)``, ``diff(base, cur)`` — a delta that is itself a
snapshot, applied as ``merge(base, delta)`` — and ``validate``. A field
absent from an input casts no vote, so the empty snapshot is the
identity. Merge is associative, and commutative except for :data:`LAST`
(gauges). :class:`SnapshotStream` and :func:`replay` are the one
keyframe/delta writer and reader.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from repro.errors import ReproError

#: Emit a full snapshot every N records by default; between keyframes
#: only changed keys travel. Small enough that a reader seeking into a
#: stream replays at most 15 deltas, large enough to amortize keyframe
#: cost over steady-state runs.
DEFAULT_KEYFRAME_EVERY = 16


class Kind:
    """A scalar field merged by ``fold(values)``. Its delta is the fold
    of base and current: the current value when that evolved from base
    (a changed shared field gives None, a changed same field raises)."""

    def __init__(self, fold: Optional[Callable] = None):
        self.fold = fold

    def merge(self, *values: Any) -> Any:
        return self.fold(values)

    def diff(self, base: Any, cur: Any) -> Any:
        return self.fold((base, cur))

    def validate(self, value: Any) -> None:
        pass


def _shared(values):
    first = values[0]
    return first if all(v == first for v in values) else None


def _same(values):
    for value in values:
        if value != values[0]:
            raise ReproError(f"values disagree: {values[0]!r} != {value!r}")
    return values[0]


class Sum(Kind):
    """Values add; the delta is the increment. A *monotone* sum (a
    counter) rejects a delta that goes backwards."""

    def __init__(self, monotone: bool = False):
        self.monotone = monotone

    def merge(self, *values):
        return reduce(operator.add, values)

    def diff(self, base, cur):
        if self.monotone and cur < base:
            raise ReproError(f"counter went backwards ({base} -> {cur})")
        return cur - base

    def validate(self, value):
        if type(value) not in (int, float):
            raise ReproError(f"expected a number, got {value!r}")


SUM = Sum()
COUNTER = Sum(monotone=True)
LAST = Kind(lambda values: values[-1])
SHARED = Kind(_shared)
SAME = Kind(_same)
MIN = Kind(lambda vs: min((v for v in vs if v is not None), default=None))
MAX = Kind(lambda vs: max((v for v in vs if v is not None), default=None))


def _expect(value, cls):
    if not isinstance(value, cls):
        raise ReproError(f"expected a {cls.__name__}, got {value!r}")


class Seq(Kind):
    """A fixed-length list merged element by element."""

    def __init__(self, kind: Kind):
        self.kind = kind

    def _columns(self, *lists):
        if any(len(v) != len(lists[0]) for v in lists):
            raise ReproError(f"lengths disagree: {[len(v) for v in lists]}")
        return zip(*lists)

    def merge(self, *values):
        return [self.kind.merge(*column) for column in self._columns(*values)]

    def diff(self, base, cur):
        return [self.kind.diff(b, c) for b, c in self._columns(base, cur)]

    def validate(self, value):
        _expect(value, list)
        for item in value:
            self.kind.validate(item)


class Table(Kind):
    """An open-keyed dict of one kind. Keys merge in first-appearance
    order; a delta holds only new or changed keys. Errors name the key."""

    def __init__(self, kind: Kind):
        self.kind = kind

    def merge(self, *tables):
        groups: Dict[str, list] = {}
        for table in tables:
            for key, value in table.items():
                groups.setdefault(key, []).append(value)
        merge = self.kind.merge
        return {key: _keyed(key, merge, *group)
                for key, group in groups.items()}

    def diff(self, base, cur):
        kind = self.kind
        return {
            key: _keyed(key, kind.diff, base[key], value) if key in base
            else kind.merge(value)
            for key, value in cur.items() if base.get(key) != value
        }

    def validate(self, value):
        _expect(value, dict)
        for key, item in value.items():
            _keyed(key, self.kind.validate, item)


def _keyed(key, op, *args):
    """``op(*args)``, with any error prefixed by the table *key*."""
    try:
        return op(*args)
    except ReproError as err:
        raise ReproError(f"{key!r}: {err}") from None


class Record(Kind):
    """A dict of named fields, each of its own kind, in declaration
    order. Undeclared fields are dropped."""

    def __init__(self, **fields: Kind):
        self.fields = fields

    def merge(self, *records):
        out = {}
        for name, kind in self.fields.items():
            values = [r[name] for r in records if name in r]
            if values:
                out[name] = kind.merge(*values)
        return out

    def diff(self, base, cur):
        return {
            name: kind.diff(base[name], cur[name]) if name in base
            else kind.merge(cur[name])
            for name, kind in self.fields.items() if name in cur
        }

    def validate(self, value):
        _expect(value, dict)
        for name, kind in self.fields.items():
            if name in value:
                kind.validate(value[name])


class Tagged(Kind):
    """A record whose schema is chosen by its *tag* field; the tag is a
    :data:`SAME` field, so records with different tags never merge."""

    def __init__(self, tag: str, **cases: Record):
        self.tag = tag
        self.cases = cases

    def _case(self, value) -> Record:
        _expect(value, dict)
        case = self.cases.get(value.get(self.tag))
        if case is None:
            raise ReproError(f"unknown {self.tag} {value.get(self.tag)!r}")
        return case

    def merge(self, *values):
        return self._case(values[0]).merge(*values)

    def diff(self, base, cur):
        return self._case(cur).diff(base, cur)

    def validate(self, value):
        self._case(value).validate(value)


METRICS = Table(Tagged(
    "type",
    counter=Record(type=SAME, value=COUNTER),
    gauge=Record(type=SAME, value=LAST),
    histogram=Record(type=SAME, count=SUM, sum=SUM, min=MIN, max=MAX,
                     bounds=Seq(SAME), buckets=Seq(SUM)),
))

CCT = Table(Table(Seq(SUM)))

PROFILE = Record(
    version=SAME, interval=SHARED,
    runs=SUM, boundaries=SUM, samples=SUM, elapsed_seconds=SUM,
    wall_seconds=Table(SUM), sample_counts=Table(SUM),
    heat=Table(SUM), op_heat=Table(SUM), stacks=Table(Seq(SUM)),
    suppression=Record(samples=SUM, flushes=SUM, max_run=MAX),
    cct=CCT,
)

#: Every registered surface by name (the property suite iterates these).
SURFACES: Dict[str, Kind] = {
    "metrics": METRICS, "profile": PROFILE, "cct": CCT,
}


class SnapshotStream:
    """Keyframe + delta encoding of a snapshot sequence.

    ``push`` returns a ``keyframe`` record every *keyframe_every* pushes
    and a ``delta`` otherwise, but only if replaying the delta exactly
    as :func:`replay` will gives the snapshot back bit-equal; if not, it
    returns a keyframe ("verify-or-keyframe")."""

    def __init__(self, schema: Kind,
                 keyframe_every: int = DEFAULT_KEYFRAME_EVERY):
        if keyframe_every < 1:
            raise ReproError(
                f"keyframe_every must be >= 1, got {keyframe_every}"
            )
        self.schema = schema
        self.keyframe_every = keyframe_every
        self.keyframes = 0
        self.deltas = 0
        self._index = 0
        self._replay: Optional[Any] = None  # what the reader holds

    def push(self, snapshot: Any) -> Dict[str, Any]:
        index = self._index
        self._index = index + 1
        if self._replay is not None and index % self.keyframe_every:
            delta = self.schema.diff(self._replay, snapshot)
            replayed = self.schema.merge(self._replay, delta)
            if replayed == snapshot:
                self.deltas += 1
                self._replay = replayed
                return {"kind": "delta", "seq": index, "changed": delta}
        self.keyframes += 1
        self._replay = snapshot
        return {"kind": "keyframe", "seq": index, "snapshot": snapshot}


def replay(
    schema: Kind,
    records: Iterable[Optional[Dict[str, Any]]],
    label: str = "record",
) -> Iterator[Any]:
    """Replay :class:`SnapshotStream` records into full snapshots.

    ``None`` entries (a spool epoch without this surface) are skipped.
    Records may come from disk, so each is validated: an unknown kind, a
    delta before any keyframe, or a malformed snapshot raises
    :class:`ReproError` naming *label* and the record's position.
    """
    state = None
    for position, record in enumerate(records):
        if record is None:
            continue
        try:
            kind = record.get("kind")
            if kind == "keyframe":
                schema.validate(record["snapshot"])
                state = record["snapshot"]
            elif kind == "delta" and state is not None:
                schema.validate(record["changed"])
                state = schema.merge(state, record["changed"])
            elif kind == "delta":
                raise ReproError("delta before any keyframe")
            else:
                raise ReproError(f"unknown snapshot record kind {kind!r}")
        except (ReproError, KeyError, AttributeError) as err:
            raise ReproError(f"{label} {position}: {err}") from None
        yield state
