"""Tests for strobe clocks (SVC1–SVC2, SSC1–SSC2) and the §4.2.3
behavioural contrasts with causality-based clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks.base import ClockError
from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
from repro.clocks.vector import VectorTimestamp


def vts(*xs):
    return VectorTimestamp(xs)


# ---------------------------------------------------------------------------
# Strobe vector clock
# ---------------------------------------------------------------------------

def test_svc1_ticks_own_component_and_returns_strobe():
    c = StrobeVectorClock(0, 3)
    strobe = c.on_relevant_event()
    assert strobe == vts(1, 0, 0)
    assert c.read() == strobe


def test_svc2_merges_without_tick():
    """§4.2.3 item 2: receiving a strobe does NOT tick the receiver."""
    c = StrobeVectorClock(1, 3)
    c.on_relevant_event()                   # (0,1,0)
    after = c.on_strobe(vts(4, 0, 2))
    assert after == vts(4, 1, 2)            # own component unchanged


def test_svc2_is_idempotent():
    c = StrobeVectorClock(0, 2)
    c.on_strobe(vts(0, 3))
    v1 = c.read()
    c.on_strobe(vts(0, 3))
    assert c.read() == v1


def test_svc2_old_strobe_is_noop_on_value():
    c = StrobeVectorClock(0, 2)
    c.on_strobe(vts(0, 5))
    c.on_strobe(vts(0, 2))
    assert c.read() == vts(0, 5)


def test_strobe_width_mismatch():
    c = StrobeVectorClock(0, 2)
    with pytest.raises(ClockError):
        c.on_strobe(vts(1, 2, 3))


def test_strobe_vector_size_is_n():
    assert StrobeVectorClock(0, 7).strobe_size() == 7


def test_strobe_vector_counters():
    c = StrobeVectorClock(0, 2)
    c.on_relevant_event()
    c.on_relevant_event()
    c.on_strobe(vts(0, 1))
    assert c.relevant_events == 2
    assert c.strobes_received == 1


def test_invalid_pid():
    with pytest.raises(ClockError):
        StrobeVectorClock(3, 3)


# ---------------------------------------------------------------------------
# Strobe scalar clock
# ---------------------------------------------------------------------------

def test_ssc1_ticks_and_returns_strobe():
    c = StrobeScalarClock(2)
    assert c.on_relevant_event() == ScalarTimestamp(1, 2)


def test_ssc2_max_merge_without_tick():
    c = StrobeScalarClock(0)
    c.on_relevant_event()                    # 1
    assert c.on_strobe(ScalarTimestamp(9, 1)).value == 9
    assert c.on_strobe(ScalarTimestamp(3, 1)).value == 9  # no tick, no regress


def test_strobe_scalar_size_is_one():
    assert StrobeScalarClock(0).strobe_size() == 1


def test_strobe_scalar_invalid():
    with pytest.raises(ClockError):
        StrobeScalarClock(-1)
    with pytest.raises(ClockError):
        StrobeScalarClock(0, initial=-1)


# ---------------------------------------------------------------------------
# §4.2.3 contrasts, as executable assertions
# ---------------------------------------------------------------------------

def test_contrast_receive_tick_strobe_vs_causal():
    """Item 2: strobe receive does not tick; causal receive does."""
    from repro.clocks.vector import VectorClock

    strobe = StrobeVectorClock(0, 2)
    causal = VectorClock(0, 2)
    strobe.on_strobe(vts(0, 1))
    causal.on_receive(vts(0, 1))
    assert strobe.read()[0] == 0          # no tick
    assert causal.read()[0] == 1          # ticked


def test_contrast_strobes_catch_up_not_track_causality():
    """Item 1: after a strobe exchange, both clocks agree on all
    known components (catch-up), with no artificial receive event."""
    a, b = StrobeVectorClock(0, 2), StrobeVectorClock(1, 2)
    s = a.on_relevant_event()
    b.on_strobe(s)
    # b's view of a's component equals a's own view.
    assert b.read()[0] == a.read()[0]


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20))
def test_strobe_scalar_merge_commutative_order_insensitive(values):
    """Final scalar value is max of all strobes regardless of order."""
    c1 = StrobeScalarClock(0)
    for v in values:
        c1.on_strobe(ScalarTimestamp(v, 1))
    c2 = StrobeScalarClock(0)
    for v in reversed(values):
        c2.on_strobe(ScalarTimestamp(v, 1))
    assert c1.read() == c2.read() == ScalarTimestamp(max(values), 0)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=20,
    )
)
def test_strobe_vector_merge_commutative(triples):
    """Vector strobe merging is order-insensitive (pointwise max)."""
    strobes = [vts(*t) for t in triples]
    c1 = StrobeVectorClock(0, 3)
    for s in strobes:
        c1.on_strobe(s)
    c2 = StrobeVectorClock(0, 3)
    for s in reversed(strobes):
        c2.on_strobe(s)
    assert c1.read() == c2.read()


@given(st.lists(
    st.one_of(
        st.just("event"),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),   # a strobe
    ),
    max_size=30,
))
def test_strobe_vector_monotone(ops):
    """Neither strobe clock regresses under any mix of SVC1/SVC2 or
    SSC1/SSC2: an event ticks once, and a merge dominates both the
    local state and the strobe it took."""
    c = StrobeVectorClock(0, 2)
    sc = StrobeScalarClock(0)
    prev, sprev = c.read(), sc.read().value
    for op in ops:
        if op == "event":
            cur = c.on_relevant_event()
            scur = sc.on_relevant_event().value
            assert cur[0] == prev[0] + 1 and scur == sprev + 1
        else:
            strobe = vts(*op)
            cur = c.on_strobe(strobe)
            scur = sc.on_strobe(ScalarTimestamp(op[1], 1)).value
            assert strobe <= cur and scur >= op[1]
        assert prev <= cur and sprev <= scur
        prev, sprev = cur, scur
