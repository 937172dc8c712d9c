"""FlightRecorder: canonical digests, ring bounds, recording invariants."""

import numpy as np
import pytest

from repro.core.records import SensedEventRecord
from repro.trace.recorder import (
    DROP_REASONS,
    KINDS,
    FlightRecorder,
    TraceEvent,
    payload_digest,
)


class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeMsg:
    def __init__(self, src=0, dst=1, kind="strobe", payload=None, size=1, sent_at=0.0):
        self.src, self.dst, self.kind = src, dst, kind
        self.payload, self.size, self.sent_at = payload, size, sent_at


# ---------------------------------------------------------------------------
# Digest canonicalization
# ---------------------------------------------------------------------------

def test_digest_stable_across_calls():
    rec = SensedEventRecord(pid=1, seq=2, var="x", value=3, true_time=1.0)
    assert payload_digest(rec) == payload_digest(rec)


def test_digest_is_content_based_not_identity_based():
    a = SensedEventRecord(pid=1, seq=2, var="x", value=3, true_time=1.0)
    b = SensedEventRecord(pid=1, seq=2, var="x", value=3, true_time=9.9)
    # Identity fields (pid/seq/var/value) match; true_time is excluded
    # on purpose — the same record digests the same wherever it is seen.
    assert payload_digest(a) == payload_digest(b)
    c = SensedEventRecord(pid=1, seq=3, var="x", value=3, true_time=1.0)
    assert payload_digest(a) != payload_digest(c)


def test_digest_handles_numpy_and_mappings():
    assert payload_digest(np.array([1, 2])) == payload_digest(np.array([1, 2]))
    assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})
    assert payload_digest((1, 2)) == payload_digest([1, 2])


# ---------------------------------------------------------------------------
# Rings and bounds
# ---------------------------------------------------------------------------

def test_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(_FakeSim(), capacity=0)


def test_ring_evicts_oldest_and_counts():
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=3)
    for k in range(7):
        sim.now = float(k)
        rec.record_receive(k, _FakeMsg(dst=5, payload=k))
    ring = rec.ring(5)
    assert len(ring) == 3
    assert rec.evicted[5] == 4
    assert rec.total_recorded == 7
    # Oldest evicted: the retained suffix is the last three entries.
    assert [e.mid for e in ring] == [4, 5, 6]


def test_mids_are_monotonic_and_recorder_assigned():
    rec = FlightRecorder(_FakeSim(), capacity=10)
    mids = [rec.record_send(_FakeMsg(payload=k)) for k in range(4)]
    assert mids == [0, 1, 2, 3]


def test_record_drop_validates_reason():
    rec = FlightRecorder(_FakeSim(), capacity=10)
    with pytest.raises(ValueError):
        rec.record_drop(0, _FakeMsg(), "gremlins")
    for reason in DROP_REASONS:
        rec.record_drop(None, _FakeMsg(), reason)


def test_events_merged_in_gseq_order():
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=10)
    rec.record_send(_FakeMsg(src=2, dst=0, payload="a"))
    rec.record_receive(0, _FakeMsg(src=2, dst=0, payload="a"))
    rec.record_send(_FakeMsg(src=0, dst=2, payload="b"))
    gseqs = [e.gseq for e in rec.events()]
    assert gseqs == sorted(gseqs) == [1, 2, 3]


def test_trace_event_json_round_trip():
    ev = TraceEvent(
        pid=1, gseq=7, kind="r", t=2.5, digest="ab" * 8,
        mid=3, src=0, dst=1, msg_kind="strobe", size=2,
    )
    back = TraceEvent.from_json(ev.to_json())
    assert back == ev
    sparse = TraceEvent(pid=0, gseq=1, kind="c", t=0.0, digest="00" * 8)
    assert TraceEvent.from_json(sparse.to_json()) == sparse


def test_kind_tags_cover_model_events():
    assert set(KINDS) == {"c", "n", "a", "s", "r", "drop"}


# ---------------------------------------------------------------------------
# TraceEvent contract: an immutable, hashable named tuple
# ---------------------------------------------------------------------------

def test_trace_event_is_immutable():
    ev = TraceEvent(pid=0, gseq=1, kind="c", t=0.0, digest="00" * 8)
    with pytest.raises(AttributeError):
        ev.pid = 5
    with pytest.raises(AttributeError):
        ev.drop = "loss"


def test_trace_event_fields_and_hash():
    assert TraceEvent._fields == (
        "pid", "gseq", "kind", "t", "digest", "stamps", "key", "mid",
        "src", "dst", "msg_kind", "size", "drop",
    )
    a = TraceEvent(pid=1, gseq=2, kind="s", t=0.5, digest="ab" * 8, mid=0,
                   src=1, dst=2, msg_kind="strobe", size=1)
    b = TraceEvent.from_json(a.to_json())
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    sense = TraceEvent(pid=1, gseq=3, kind="n", t=0.5, digest="cd" * 8, key=(1, 0))
    assert hash(sense) != hash(a)


def _proc_event(kind, detail):
    from repro.core.events import Event, EventKind

    return Event(pid=3, seq=0, kind=EventKind(kind), true_time=1.25,
                 stamps={"lamport": 4}, detail=detail)


@pytest.mark.parametrize("kind", KINDS)
def test_positional_entries_equal_keyword_built(kind):
    """Each recording hook's positional construction lands every value
    in the field the keyword form names."""
    sim = _FakeSim()
    sim.now = 2.0
    rec = FlightRecorder(sim, capacity=10)
    record = SensedEventRecord(pid=3, seq=0, var="x", value=1, true_time=1.25)
    msg = _FakeMsg(src=3, dst=4, kind="strobe", payload=record, size=2, sent_at=1.5)
    digest = payload_digest(record)
    transport = dict(src=3, dst=4, msg_kind="strobe", size=2)
    if kind in ("c", "n", "a"):
        detail = record if kind == "n" else "act"
        rec.record_event(_proc_event(kind, detail))
        want = TraceEvent(
            pid=3, gseq=1, kind=kind, t=1.25, digest=payload_digest(detail),
            stamps={"lamport": 4}, key=(3, 0) if kind == "n" else None,
        )
    elif kind == "s":
        rec.record_send(msg)
        want = TraceEvent(pid=3, gseq=1, kind="s", t=1.5, digest=digest, mid=0,
                          **transport)
    elif kind == "r":
        rec.record_receive(7, msg)
        want = TraceEvent(pid=4, gseq=1, kind="r", t=2.0, digest=digest, mid=7,
                          **transport)
    else:
        rec.record_drop(7, msg, "partition")
        want = TraceEvent(pid=4, gseq=1, kind="drop", t=2.0, digest=digest, mid=7,
                          drop="partition", **transport)
    (got,) = rec.events()
    assert type(got) is TraceEvent
    assert got._asdict() == want._asdict()


# ---------------------------------------------------------------------------
# Live recording (hall fixture)
# ---------------------------------------------------------------------------

def test_hall_run_records_all_layers(hall_run):
    _, det, rec = hall_run
    kinds = {e.kind for e in rec.events()}
    assert "n" in kinds and "s" in kinds and "r" in kinds
    assert rec.detections
    assert len(rec.detections) == len(det.detections)


def test_hall_sends_carry_mids_that_pair_with_receives(hall_run):
    _, _, rec = hall_run
    events = rec.events()
    sends = {e.mid for e in events if e.kind == "s"}
    recvs = {e.mid for e in events if e.kind == "r"}
    assert recvs <= sends
    assert None not in sends


def test_detection_entries_are_json_safe(hall_run):
    import json

    _, _, rec = hall_run
    text = json.dumps(rec.detections, sort_keys=True)
    assert json.loads(text) == rec.detections
