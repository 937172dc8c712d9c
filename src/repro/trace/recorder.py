"""The causal flight recorder — bounded per-process event rings.

A :class:`FlightRecorder` is the ``recorder`` part of a
:class:`~repro.obs.Observability`.  Bound by
:func:`repro.obs.instrument`, it taps the execution through the same
None-guarded ``bind_observer`` hooks the metrics registry uses
(``SensorProcess``, ``Network``, and the online detectors, which bind
when they attach to a process) at two levels:

* **process events** — compute / sense / actuate entries, straight
  from the process's ``_log`` funnel, carrying the stamping clocks'
  readings at the event;
* **transport events** — send / receive / drop entries with a
  recorder-assigned message id (``mid``) that pairs each delivery (or
  drop) with its exact send, which is what lets
  :class:`~repro.trace.graph.CausalGraph` rebuild happens-before
  without guessing.  (``Message.seq`` is a module-global counter and
  therefore *not* a pure function of the run — the recorder never
  exports it.)

Everything is stamped with **sim time only**.  The recorder reads no
wall clock, consumes no RNG, and schedules no events (the OBS001 lint
rule checks this statically; the twin-run test pins it dynamically),
so a recorded run is byte-for-byte the run you would have had without
the recorder — the trace file itself is a pure function of
``(config, seed)``.

Memory is bounded: one ring of ``capacity`` entries per process, plus
the (small) detection list.  Overflow evicts the *oldest* entries and
counts them in :attr:`FlightRecorder.evicted`, so a long run degrades
to a suffix window instead of growing without bound.

Recording is by reference.  A ring entry keeps the payload object and
a copy of the event's stamp dict; the canonical ``digest`` and
``stamps`` of a :class:`TraceEvent` are built when the recorder is read
(:meth:`FlightRecorder.ring`, :meth:`FlightRecorder.events`), so
entries evicted unread never pay for them.  An entry aliases only
values nobody can change (:data:`_ALIASABLE`); any other payload is
digested, and any other stamp value canonicalised, at record time.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

import numpy as np

from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.vector import VectorTimestamp
from repro.core.events import Event, EventKind
from repro.core.records import SensedEventRecord
from repro.util.fields import (
    Field, check_fields, is_int, is_int_pair, is_object, is_str, is_time, one_of,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.detect.base import Detection
    from repro.net.message import Message
    from repro.sim.kernel import Simulator

#: Trace-event kind tags: the five §2.2 event kinds plus the
#: transport-only ``drop`` annotation (a message that never became a
#: receive, with the reason the transport dropped it).
KINDS = ("c", "n", "a", "s", "r", "drop")

#: ``drop`` reasons, matching the transport's distinct drop counters.
DROP_REASONS = ("crashed", "partition", "loss", "burst")

_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Exact types a ring entry may hold by reference: JSON scalars and
#: frozen records and timestamps.  Anything else could change after its
#: event, so it is canonicalised when recorded.
_ALIASABLE = _SCALARS | {SensedEventRecord, VectorTimestamp, ScalarTimestamp}


class _Canonical:
    """A value canonicalised at record time; :func:`_canon` returns
    the held form as is."""

    __slots__ = ("form",)

    def __init__(self, value: Any) -> None:
        self.form = _canon(value)


def _canon_mapping(obj: Mapping) -> dict:
    return {str(k): _canon(obj[k]) for k in sorted(obj, key=str)}


def _canon_sequence(obj: "list | tuple") -> list:
    return [_canon(x) for x in obj]


#: ``_canon`` by exact type, for the types recorded runs carry; other
#: types (subclasses included) take the duck-typed chain below.
_CANON_BY_TYPE = {
    SensedEventRecord: lambda r: ["rec", r.pid, r.seq, r.var, repr(r.value)],
    VectorTimestamp: lambda v: ["vec", list(v.as_tuple())],
    ScalarTimestamp: lambda s: ["sc", s.value, s.pid],
    np.ndarray: lambda a: ["arr", a.tolist()],
    _Canonical: lambda c: c.form,
    dict: _canon_mapping,
    list: _canon_sequence,
    tuple: _canon_sequence,
}


def _canon(obj: Any) -> Any:
    """JSON-safe canonical form of a payload/stamp value.

    Pure function of the value's *content* — never of object identity —
    so digests are stable across processes and reruns.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    fast = _CANON_BY_TYPE.get(cls)
    if fast is not None:
        return fast(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, SensedEventRecord):
        return ["rec", obj.pid, obj.seq, obj.var, repr(obj.value)]
    if isinstance(obj, np.ndarray):
        return ["arr", obj.tolist()]
    as_tuple = getattr(obj, "as_tuple", None)
    if as_tuple is not None:
        return ["vec", list(as_tuple())]
    value = getattr(obj, "value", None)
    pid = getattr(obj, "pid", None)
    if value is not None and pid is not None:  # ScalarTimestamp-shaped
        return ["sc", value, pid]
    if isinstance(obj, Mapping):
        return _canon_mapping(obj)
    if isinstance(obj, (list, tuple)):
        return _canon_sequence(obj)
    if isinstance(obj, (bytes, bytearray)):
        return ["b", obj.hex()]
    return repr(obj)


#: Canonical JSON (sorted keys, no whitespace): the encoder
#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` would build
#: afresh on every call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def payload_digest(payload: Any) -> str:
    """8-byte blake2b digest of a payload's canonical form.

    A sensed record digests identically whether seen at its sense
    event, inside a strobe broadcast, or at delivery — digest equality
    is how the causal path follows one record across hops.
    """
    return hashlib.blake2b(
        _encode(_canon(payload)).encode(), digest_size=8
    ).hexdigest()


def stamps_to_json(stamps: Mapping[str, Any]) -> dict[str, Any]:
    """Clock-stamp dict in JSON-safe canonical form."""
    return {str(k): _canon(stamps[k]) for k in sorted(stamps, key=str)}


class _Digest:
    """A payload digested at record time, held in an entry's payload
    slot in place of a payload that could change after its event."""

    __slots__ = ("hex",)

    def __init__(self, payload: Any) -> None:
        self.hex = payload_digest(payload)


def _payload_ref(payload: Any) -> Any:
    """What a ring entry keeps of a payload: the object itself when
    nobody can change it, else its digest taken now."""
    return payload if type(payload) in _ALIASABLE else _Digest(payload)


def _stamps_ref(stamps: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of an event's stamp dict that later changes to the event
    (or to an array stamp) cannot reach."""
    if _ALIASABLE.issuperset(map(type, stamps.values())):
        return dict(stamps)
    return {
        k: v if type(v) in _ALIASABLE else _Canonical(v)
        for k, v in stamps.items()
    }


#: Field checks of an event line, for :func:`check_fields`.
_EVENT_FIELDS: dict[str, Field] = {
    "pid": (True, is_int, "an integer"),
    "gseq": (True, is_int, "an integer"),
    "kind": (True, one_of(KINDS), "an event kind"),
    "t": (True, is_time, "a finite non-negative number"),
    "digest": (True, is_str, "a string"),
    "stamps": (False, is_object, "an object"),
    "key": (False, is_int_pair, "a [pid, seq] pair"),
    "mid": (False, is_int, "an integer"),
    "src": (False, is_int, "an integer"),
    "dst": (False, is_int, "an integer"),
    "msg_kind": (False, is_str, "a string"),
    "size": (False, is_int, "an integer"),
    "drop": (False, one_of(DROP_REASONS), "a drop reason"),
}


class TraceEvent(NamedTuple):
    """One flight-recorder entry — an immutable named tuple, built
    positionally when the recorder is read.

    ``pid`` is the *ring owner*: the acting process for c/n/a events,
    the sender for ``s``, the destination for ``r``/``drop``.  ``gseq``
    is the recorder-global recording order (total order consistent with
    the simulator's execution order).  ``key`` is the sensed record's
    ``(pid, seq)`` identity, set on sense events only.
    """

    pid: int
    gseq: int
    kind: str
    t: float
    digest: str
    stamps: dict | None = None
    key: tuple | None = None
    mid: int | None = None
    src: int | None = None
    dst: int | None = None
    msg_kind: str | None = None
    size: int | None = None
    drop: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "pid": self.pid, "gseq": self.gseq, "kind": self.kind,
            "t": self.t, "digest": self.digest,
        }
        if self.stamps is not None:
            out["stamps"] = self.stamps
        if self.key is not None:
            out["key"] = list(self.key)
        if self.mid is not None:
            out["mid"] = self.mid
        if self.src is not None:
            out["src"] = self.src
        if self.dst is not None:
            out["dst"] = self.dst
        if self.msg_kind is not None:
            out["msg_kind"] = self.msg_kind
        if self.size is not None:
            out["size"] = self.size
        if self.drop is not None:
            out["drop"] = self.drop
        return out

    @staticmethod
    def from_json(d: Mapping[str, Any]) -> "TraceEvent":
        """The entry of one decoded event line.  Raises ``KeyError`` for
        a missing required field and ``TypeError`` for a field of the
        wrong type, so a malformed line never loads."""
        check_fields(d, _EVENT_FIELDS)
        key = d.get("key")
        return TraceEvent(
            pid=d["pid"], gseq=d["gseq"], kind=d["kind"], t=d["t"],
            digest=d["digest"], stamps=d.get("stamps"),
            key=tuple(key) if key is not None else None,
            mid=d.get("mid"), src=d.get("src"), dst=d.get("dst"),
            msg_kind=d.get("msg_kind"), size=d.get("size"),
            drop=d.get("drop"),
        )


class FlightRecorder:
    """Bounded per-process trace rings plus the detection log.

    Parameters
    ----------
    sim:
        The simulation kernel — read for ``now`` at transport-side
        records only (process events carry their own stamp).
    capacity:
        Ring size per process.  When a ring is full the oldest entry
        is evicted (counted in :attr:`evicted`) — memory is bounded at
        ``n_processes * capacity`` entries no matter how long the run.
    """

    def __init__(self, sim: "Simulator", *, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = int(capacity)
        # Ring entries are plain tuples laid out like TraceEvent, with
        # the payload (or its _Digest) in the digest slot and the stamp
        # dict copy in the stamps slot; _materialise canonicalises them.
        self._rings: dict[int, deque[tuple]] = {}
        #: per-pid count of entries evicted from a full ring
        self.evicted: dict[int, int] = {}
        self._gseq = 0
        self._ring_recorded = 0
        self._next_mid = 0
        #: detection entries appended by online detectors (JSON-safe)
        self.detections: list[dict[str, Any]] = []
        #: world-plane entries (``w`` lines) from the WorldState tap.
        #: Unbounded on purpose: these are the replay *input*, and a
        #: replay from a truncated world stream would be silently wrong.
        #: World streams are small (one entry per attribute change, no
        #: per-message traffic), so this is cheap in practice.
        self.world_events: list[dict[str, Any]] = []
        #: count of world entries whose value was not a JSON-native
        #: scalar (stored as repr — readable, but not replayable)
        self.world_opaque = 0
        #: run metadata embedded in the trace file header
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _append(self, pid: int, entry: tuple) -> None:
        ring = self._rings.get(pid)
        if ring is None:
            ring = self._rings[pid] = deque(maxlen=self.capacity)
            self.evicted[pid] = 0
        elif len(ring) == self.capacity:
            self.evicted[pid] += 1
        ring.append(entry)
        self._ring_recorded += 1

    def _next_gseq(self) -> int:
        self._gseq += 1
        return self._gseq

    # -- hooks (called by instrumented components) ----------------------
    def record_event(self, ev: Event) -> None:
        """Process-side hook: one c/n/a entry per logged event.

        SEND/RECEIVE process-log entries are skipped here — the
        transport hooks record the canonical ``s``/``r`` entries with
        exact mids, covering control traffic (strobes, sync) the
        process log never sees.
        """
        kind = ev.kind
        if kind is EventKind.SEND or kind is EventKind.RECEIVE:
            return
        key = ev.detail.key() if kind is EventKind.SENSE else None
        self._append(ev.pid, (
            ev.pid, self._next_gseq(), kind.value, ev.true_time,
            _payload_ref(ev.detail), _stamps_ref(ev.stamps), key,
            None, None, None, None, None, None,
        ))

    def record_send(self, msg: "Message") -> int:
        """Transport-side hook at dispatch; returns the assigned mid."""
        mid = self._next_mid
        self._next_mid += 1
        self._append(msg.src, (
            msg.src, self._next_gseq(), "s", msg.sent_at,
            _payload_ref(msg.payload), None, None,
            mid, msg.src, msg.dst, msg.kind, msg.size, None,
        ))
        return mid

    def record_receive(self, mid: "int | None", msg: "Message") -> None:
        """Transport-side hook just before the endpoint callback."""
        self._append(msg.dst, (
            msg.dst, self._next_gseq(), "r", self._sim.now,
            _payload_ref(msg.payload), None, None,
            mid, msg.src, msg.dst, msg.kind, msg.size, None,
        ))

    def record_drop(self, mid: "int | None", msg: "Message", reason: str) -> None:
        """Transport-side hook on any drop branch."""
        if reason not in DROP_REASONS:
            raise ValueError(f"unknown drop reason {reason!r}")
        self._append(msg.dst, (
            msg.dst, self._next_gseq(), "drop", self._sim.now,
            _payload_ref(msg.payload), None, None,
            mid, msg.src, msg.dst, msg.kind, msg.size, reason,
        ))

    def record_world(self, change: Any) -> None:
        """World-plane hook (``WorldState.add_listener``): one ``w``
        entry per actual attribute change, in the recorder's global
        order — a world event's gseq precedes the gseqs of every sense
        it causes, so happens-before holds across the plane boundary.

        Values that are not JSON-native scalars are stored as
        ``["repr", ...]`` and counted in :attr:`world_opaque`; such a
        stream is inspectable but not replayable, and the replay layer
        refuses it.
        """
        value = change.new
        if not (value is None or isinstance(value, (bool, int, float, str))):
            value = ["repr", repr(value)]
            self.world_opaque += 1
        self.world_events.append({
            "kind": "w", "gseq": self._next_gseq(), "t": change.t,
            "obj": change.obj, "attr": change.attr, "value": value,
        })

    def record_detection(
        self, detection: "Detection", emit_time: float, host: int
    ) -> None:
        """Detector-side hook at emission (watermark flush)."""
        trig = detection.trigger
        self.detections.append({
            "detector": detection.detector,
            "trigger": [trig.pid, trig.seq],
            "var": trig.var,
            "value": repr(trig.value),
            "label": detection.label.value,
            "emit_time": emit_time,
            "host": int(host),
        })

    # -- views -----------------------------------------------------------
    @property
    def total_recorded(self) -> int:
        """Ring entries ever recorded, including evicted ones.

        Counts the event plane only; world-plane entries are never
        ring-bounded and have their own :attr:`world_events` count, so
        ``total_recorded == retained + evicted`` holds exactly."""
        return self._ring_recorded

    @property
    def retained(self) -> int:
        """Ring entries currently held, over all processes — a count,
        without building any :class:`TraceEvent`."""
        return sum(map(len, self._rings.values()))

    def pids(self) -> list[int]:
        return sorted(self._rings)

    def ring(self, pid: int) -> list[TraceEvent]:
        """The retained entries of one process ring, oldest first."""
        return _materialise(self._rings.get(pid, ()))

    def events(self) -> list[TraceEvent]:
        """All retained entries in recording (= execution) order."""
        entries: list[tuple] = []
        for ring in self._rings.values():
            entries.extend(ring)
        entries.sort(key=itemgetter(1))
        return _materialise(entries)


def _materialise(entries: "Iterable[tuple]") -> list[TraceEvent]:
    """TraceEvents of raw ring entries, digesting each distinct payload
    object once (entries keep their payloads alive, so ids are unique
    for the duration of the call)."""
    digests: dict[int, str] = {}
    out: list[TraceEvent] = []
    append = out.append
    for (pid, gseq, kind, t, payload, stamps, key,
         mid, src, dst, msg_kind, size, drop) in entries:
        if type(payload) is _Digest:
            digest = payload.hex
        else:
            digest = digests.get(id(payload))
            if digest is None:
                digest = digests[id(payload)] = payload_digest(payload)
        append(TraceEvent(
            pid, gseq, kind, t, digest,
            None if stamps is None else stamps_to_json(stamps), key,
            mid, src, dst, msg_kind, size, drop,
        ))
    return out


__all__ = [
    "FlightRecorder",
    "TraceEvent",
    "payload_digest",
    "stamps_to_json",
    "KINDS",
    "DROP_REASONS",
]
