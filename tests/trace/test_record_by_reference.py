"""Recording by reference: ring entries keep payloads and stamps as
recorded, canonical digests and stamps are built when the recorder is
read, and nothing a caller changes after a hook returns reaches the
trace."""

import numpy as np
import pytest

import repro.trace.recorder as recorder_mod
from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.vector import VectorTimestamp
from repro.core.events import Event, EventKind
from repro.core.records import SensedEventRecord
from repro.trace import FlightRecorder, trace_jsonl_lines


class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeMsg:
    def __init__(self, payload, src=0, dst=1, kind="app", size=1, sent_at=0.0):
        self.src, self.dst, self.kind = src, dst, kind
        self.payload, self.size, self.sent_at = payload, size, sent_at


def _stamps(k):
    return {
        "lamport": ScalarTimestamp(k, 0),
        "vector": VectorTimestamp((k, 1)),
        "physical": k + 0.25,
        "physical_vector": np.array([float(k), -np.inf]),
    }


def _drive(mutate):
    """Feed one recorder every hook over several rounds; with ``mutate``
    the caller changes each stamp dict, array stamp and mutable payload
    once the hooks that saw it have returned."""
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=64)
    for k in range(6):
        sim.now = float(k)
        stamps = _stamps(k)
        record = SensedEventRecord(pid=0, seq=k, var="x", value=k, true_time=sim.now)
        note = {"step": [k]}
        rec.record_event(Event(0, 2 * k, EventKind.SENSE, sim.now, stamps, record))
        rec.record_event(Event(0, 2 * k + 1, EventKind.COMPUTE, sim.now,
                               stamps, note))
        scalars = {"lamport": ScalarTimestamp(k, 1), "physical": sim.now}
        rec.record_event(Event(1, k, EventKind.ACTUATE, sim.now, scalars, "on"))
        payload = {"data": [k], "stamps": stamps}
        for msg in (_FakeMsg(record, sent_at=sim.now),
                    _FakeMsg(payload, sent_at=sim.now),
                    _FakeMsg(np.arange(k + 1), sent_at=sim.now)):
            mid = rec.record_send(msg)
            rec.record_receive(mid, msg)
            rec.record_drop(mid, msg, "loss")
        if mutate:
            stamps["physical_vector"][0] = 99.0
            stamps["lamport"] = ScalarTimestamp(99, 0)
            stamps["late"] = 1
            scalars["lamport"] = ScalarTimestamp(99, 1)
            del scalars["physical"]
            note["step"].append(99)
            payload["data"].append(99)
            payload["extra"] = True
    return rec


def test_later_mutation_does_not_reach_the_trace():
    assert trace_jsonl_lines(_drive(mutate=True)) == \
        trace_jsonl_lines(_drive(mutate=False))


def test_mutating_kept_event_logs_after_a_live_run_changes_nothing():
    from repro.core.process import ClockConfig
    from repro.net.delay import DeltaBoundedDelay
    from repro.obs import Observability, instrument
    from repro.scenarios.exhibition_hall import (
        ExhibitionHall,
        ExhibitionHallConfig,
    )

    def run(mutate):
        hall = ExhibitionHall(ExhibitionHallConfig(
            seed=3, delay=DeltaBoundedDelay(0.2),
            clocks=ClockConfig.everything(), keep_event_logs=True,
        ))
        rec = FlightRecorder(hall.system.sim)
        instrument(hall.system, Observability(recorder=rec))
        hall.run(20.0)
        logged = [ev for p in hall.system.processes for ev in p.events]
        assert any(isinstance(ev.stamps.get("physical_vector"), np.ndarray)
                   for ev in logged)
        if mutate:
            for ev in logged:
                ev.stamps.get("physical_vector", np.zeros(1))[:] = 7.0
                ev.stamps["lamport"] = ScalarTimestamp(10**6, 0)
                ev.stamps["late"] = "x"
        return trace_jsonl_lines(rec)

    assert run(mutate=True) == run(mutate=False)


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the two canonicalisers the recorder reads with."""
    calls = {"payload_digest": 0, "stamps_to_json": 0}
    for name in calls:
        real = getattr(recorder_mod, name)

        def counting(value, _real=real, _name=name):
            calls[_name] += 1
            return _real(value)

        monkeypatch.setattr(recorder_mod, name, counting)
    return calls


def test_evicted_entries_are_never_canonicalised(counted):
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=4)
    for k in range(20):
        sim.now = float(k)
        record = SensedEventRecord(pid=0, seq=k, var="x", value=k, true_time=sim.now)
        stamps = {"lamport": ScalarTimestamp(k, 0), "physical": sim.now}
        rec.record_event(Event(0, k, EventKind.SENSE, sim.now, stamps, record))
    assert counted == {"payload_digest": 0, "stamps_to_json": 0}
    assert rec.retained == 4 and rec.evicted == {0: 16}
    assert counted == {"payload_digest": 0, "stamps_to_json": 0}
    assert [e.key for e in rec.events()] == [(0, k) for k in range(16, 20)]
    assert counted == {"payload_digest": 4, "stamps_to_json": 4}


def test_a_read_digests_each_payload_object_once(counted):
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=64)
    record = SensedEventRecord(pid=0, seq=1, var="x", value=1, true_time=0.0)
    rec.record_event(Event(0, 1, EventKind.SENSE, 0.0, {}, record))
    for dst in (1, 2, 3):
        msg = _FakeMsg(record, dst=dst)
        rec.record_receive(rec.record_send(msg), msg)
    events = rec.events()
    assert len(events) == 7 and len({e.digest for e in events}) == 1
    assert counted["payload_digest"] == 1


def test_mutable_payloads_are_digested_when_recorded(counted):
    rec = FlightRecorder(_FakeSim(), capacity=64)
    payload = {"data": [1]}
    rec.record_send(_FakeMsg(payload))
    assert counted["payload_digest"] == 1
    digest = recorder_mod.payload_digest(payload)
    payload["data"].append(2)
    (ev,) = rec.events()
    assert ev.digest == digest


def test_retained_counts_without_materialising(counted):
    sim = _FakeSim()
    rec = FlightRecorder(sim, capacity=3)
    for k in range(5):
        rec.record_send(_FakeMsg(k, src=k % 2))
    assert rec.retained == len(rec.ring(0)) + len(rec.ring(1)) == 5
    counted["payload_digest"] = 0
    assert rec.retained == 5 and counted["payload_digest"] == 0
    assert rec.retained + sum(rec.evicted.values()) == rec.total_recorded
