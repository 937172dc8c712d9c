"""Tests for Detector base machinery and RecordStore."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.records import SensedEventRecord
from repro.detect.base import TAIL_KEYS, Detection, DetectionLabel, Detector, RecordStore
from repro.predicates.relational import RelationalPredicate


def phi():
    return RelationalPredicate({"x": 0, "y": 1}, lambda e: e["x"] + e["y"] > 5)


def test_store_dedupes_by_key(rec):
    store = RecordStore()
    r = rec(0, "x", 1, true_time=0.0)
    assert store.add(r)
    assert not store.add(r)
    assert len(store) == 1
    assert store.duplicates == 1


def test_store_all_sorted_by_pid_seq(rec):
    store = RecordStore()
    r1 = rec(1, "y", 1, true_time=0.0)
    r0 = rec(0, "x", 1, true_time=1.0)
    store.add(r1)
    store.add(r0)
    assert [r.pid for r in store.all()] == [0, 1]


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40), st.booleans()),
                max_size=60))
def test_store_keys_tail_is_the_sorted_tail(adds):
    """Asked after any batch of adds, duplicates included."""
    store = RecordStore()
    seen = set()
    for pid, seq, ask in adds:
        store.add(SensedEventRecord(pid=pid, seq=seq, var="x", value=0, true_time=0.0))
        seen.add((pid, seq))
        if ask:
            assert store.keys_tail() == sorted(seen)[-TAIL_KEYS:]
    assert store.keys_tail() == sorted(seen)[-TAIL_KEYS:]


def test_store_by_process(rec):
    store = RecordStore()
    store.add(rec(1, "y", 1, true_time=0.0))
    store.add(rec(1, "y", 2, true_time=1.0))
    store.add(rec(0, "x", 1, true_time=2.0))
    per = store.by_process(3)
    assert [len(q) for q in per] == [1, 2, 0]
    assert [r.seq for r in per[1]] == [1, 2]


def test_detector_requires_initials():
    with pytest.raises(ValueError):
        class D(Detector):
            pass
        D(phi(), {"x": 0})     # y missing


def test_feed_many(rec):
    class D(Detector):
        def finalize(self):
            return []
    d = D(phi(), {"x": 0, "y": 0})
    d.feed_many([rec(0, "x", 1, true_time=0.0), rec(1, "y", 1, true_time=1.0)])
    assert len(d.store) == 2


def test_rising_edges_emit_where_phi_turns_true(rec):
    """One detection per rising edge of φ, carrying a copy of the
    environment at its trigger; ``env`` is updated in place and φ after
    the last record is returned."""
    class D(Detector):
        name = "d"

        def finalize(self):
            return []
    d = D(phi(), {"x": 0, "y": 0})
    r1 = rec(0, "x", 6, true_time=0.0)      # φ rises
    r2 = rec(0, "x", 7, true_time=1.0)      # φ stays true
    r3 = rec(0, "x", 0, true_time=2.0)      # φ falls
    r4 = rec(1, "y", 9, true_time=3.0)      # φ rises again
    env = {"x": 0, "y": 0}
    found, prev = d._rising_edges([r1, r2, r3, r4], env, False, {"k": 1})
    assert [x.trigger for x in found] == [r1, r4]
    assert [x.env for x in found] == [{"x": 6, "y": 0}, {"x": 0, "y": 9}]
    assert all(x.label is DetectionLabel.FIRM and x.detail == {"k": 1} for x in found)
    assert found[0].detail is not found[1].detail
    assert prev is True and env == {"x": 0, "y": 9}
    # Already true before the first record: no edge.
    found, prev = d._rising_edges([r2], {"x": 0, "y": 0}, True)
    assert found == [] and prev is True


def test_detection_firm_property(rec):
    r = rec(0, "x", 1, true_time=0.0)
    d1 = Detection("d", r, {}, DetectionLabel.FIRM)
    d2 = Detection("d", r, {}, DetectionLabel.BORDERLINE)
    assert d1.firm and not d2.firm


def test_attach_taps_process_streams():
    from repro.core.process import ClockConfig
    from repro.core.system import PervasiveSystem, SystemConfig

    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.strobes()))
    s.world.create("room", temp=20)
    s.processes[1].track("temp", "room", "temp", initial=20)

    class D(Detector):
        def finalize(self):
            return []
    d = D(RelationalPredicate({"temp": 1}, lambda e: e["temp"] > 30), {"temp": 20})
    d.attach(s.processes[0])           # root taps local + strobes
    s.world.set_attribute("room", "temp", 31)
    s.run()
    assert len(d.store) == 1           # arrived via strobe at p0
