"""Concrete clock-monotonicity cases: each protocol step must return a
timestamp that dominates the one before it. The hypothesis properties in
tests/clocks generalise these to arbitrary schedules."""

from repro.clocks.strobe import StrobeVectorClock
from repro.clocks.vector import VectorClock, VectorTimestamp


def test_vector_clock_protocol_is_monotone():
    clk = VectorClock(0, 2)
    prev = clk.read()
    for step in (
        clk.on_local_event,
        clk.on_send,
        lambda: clk.on_receive(VectorTimestamp([0, 3])),
        clk.read,
    ):
        cur = step()
        assert prev <= cur
        prev = cur
    assert clk.read() == VectorTimestamp([3, 3])
    assert clk.pid == 0


def test_strobe_merge_is_monotone():
    a = StrobeVectorClock(0, 2)
    b = StrobeVectorClock(1, 2)
    before = b.read()
    after_event = b.on_relevant_event()
    assert before <= after_event
    strobe = a.on_relevant_event()
    merged = b.on_strobe(strobe)
    assert after_event <= merged and strobe <= merged
    assert merged == VectorTimestamp([1, 1])
    assert b.strobe_size() == 2
