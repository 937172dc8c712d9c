"""Tests for Lamport scalar clocks (rules SC1–SC3)."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks.base import ClockError
from repro.clocks.scalar import LamportClock, ScalarTimestamp
from repro.clocks.vector import VectorClock, VectorTimestamp


def test_initial_read_is_zero():
    c = LamportClock(0)
    assert c.read() == ScalarTimestamp(0, 0)


def test_sc1_local_event_ticks():
    c = LamportClock(0)
    assert c.on_local_event().value == 1
    assert c.on_local_event().value == 2


def test_sc2_send_ticks_and_returns_timestamp():
    c = LamportClock(3)
    t = c.on_send()
    assert t == ScalarTimestamp(1, 3)
    assert c.read() == t


def test_sc3_receive_takes_max_then_ticks():
    c = LamportClock(1)
    c.on_local_event()  # C=1
    t = c.on_receive(ScalarTimestamp(10, 0))
    assert t.value == 11
    # Receiving an older timestamp still ticks.
    t = c.on_receive(ScalarTimestamp(2, 0))
    assert t.value == 12


def test_read_does_not_tick():
    c = LamportClock(0)
    c.on_local_event()
    v1 = c.read()
    v2 = c.read()
    assert v1 == v2


def test_clock_condition_across_message():
    """Send timestamp < receive timestamp (the Lamport clock condition)."""
    a, b = LamportClock(0), LamportClock(1)
    for _ in range(5):
        b.on_local_event()
    ts = a.on_send()
    tr = b.on_receive(ts)
    assert ts < tr


def test_pid_tiebreak_total_order():
    assert ScalarTimestamp(3, 0) < ScalarTimestamp(3, 1)
    assert ScalarTimestamp(3, 1) < ScalarTimestamp(4, 0)
    assert not ScalarTimestamp(3, 1) < ScalarTimestamp(3, 1)


def test_timestamp_str():
    assert str(ScalarTimestamp(7, 2)) == "7@p2"


def test_invalid_construction():
    with pytest.raises(ClockError):
        LamportClock(-1)
    with pytest.raises(ClockError):
        LamportClock(0, initial=-5)


def test_initial_value_respected():
    c = LamportClock(0, initial=100)
    assert c.on_local_event().value == 101


@given(st.lists(
    st.one_of(
        st.sampled_from(["local", "send"]),
        st.tuples(st.integers(0, 60), st.integers(0, 60)),   # a receive
    ),
    max_size=50,
))
def test_monotonicity_under_any_local_schedule(ops):
    """Lamport values strictly increase on every tick, and a vector
    clock never loses a tick: SC1/SC2 and VC1/VC2 tick once, and an
    SC3/VC3 receive dominates both the local state and the remote."""
    c = LamportClock(0)
    v = VectorClock(0, 2)
    prev, vprev = c.read().value, v.read()
    for op in ops:
        if isinstance(op, tuple):
            remote = VectorTimestamp(op)
            cur = c.on_receive(ScalarTimestamp(op[1], 1)).value
            vcur = v.on_receive(remote)
            assert cur > max(prev, op[1])
            assert remote <= vcur and vcur[0] == max(vprev[0], op[0]) + 1
        else:
            cur = (c.on_local_event() if op == "local" else c.on_send()).value
            vcur = v.on_local_event() if op == "local" else v.on_send()
            assert cur == prev + 1 and vcur[0] == vprev[0] + 1
        assert vprev <= vcur
        prev, vprev = cur, vcur


@given(st.integers(min_value=0, max_value=10**6))
def test_receive_result_exceeds_both_inputs(remote_value):
    c = LamportClock(1, initial=500)
    t = c.on_receive(ScalarTimestamp(remote_value, 0))
    assert t.value > remote_value
    assert t.value > 500
