"""Unit tests for the discrete-event kernel."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    Simulator,
    SimulationError,
)

from tests.sim._twin import fired_lines, twin_divergence


def test_empty_run_leaves_clock_at_start():
    sim = Simulator(start_time=3.0)
    sim.run()
    assert sim.now == 3.0
    assert sim.processed_events == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_at(2.0, lambda: order.append("b"))
    sim.schedule_at(1.0, lambda: order.append("a"))
    sim.schedule_at(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule_at(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == list("abcde")


def test_priority_overrides_fifo_at_same_time():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda: order.append("normal"))
    sim.schedule_at(1.0, lambda: order.append("early"), priority=PRIORITY_EARLY)
    sim.schedule_at(1.0, lambda: order.append("late"), priority=PRIORITY_LATE)
    sim.run()
    assert order == ["early", "normal", "late"]


def test_schedule_in_past_raises():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.9, lambda: None)


def test_schedule_at_now_is_allowed():
    sim = Simulator()
    fired = []
    sim.schedule_at(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-0.1, lambda: None)


def test_schedule_after_is_relative():
    sim = Simulator()
    times = []
    def first():
        times.append(sim.now)
        sim.schedule_after(2.5, lambda: times.append(sim.now))
    sim.schedule_after(1.0, first)
    sim.run()
    assert times == [1.0, 3.5]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(1.0, lambda: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []
    assert sim.processed_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    assert ev.cancelled


def test_run_until_horizon_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1.0))
    sim.schedule_at(5.0, lambda: fired.append(5.0))
    sim.run(until=2.0)
    assert fired == [1.0]
    assert sim.now == 2.0
    # Resume: the 5.0 event is still there.
    sim.run()
    assert fired == [1.0, 5.0]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, lambda: fired.append(2.0))
    sim.run(until=2.0)
    assert fired == [2.0]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert len(fired) == 10


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    order = []
    def a():
        order.append("a")
        sim.schedule_after(0.0, lambda: order.append("child"))
    sim.schedule_at(1.0, a)
    sim.schedule_at(1.0, lambda: order.append("b"))
    sim.run()
    # child is scheduled at t=1.0 but after b (FIFO seq).
    assert order == ["a", "b", "child"]


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1))
    sim.schedule_at(2.0, lambda: fired.append(2))
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()
    assert fired == [1, 2]


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    ev = sim.schedule_at(2.0, lambda: None)
    ev.cancel()
    assert sim.pending_events == 1


def test_post_hooks_see_every_fired_event():
    sim = Simulator()
    seen = []
    sim.add_post_hook(lambda ev: seen.append((ev.time, ev.label)))
    sim.schedule_at(1.0, lambda: None, label="x")
    sim.schedule_at(2.0, lambda: None, label="y")
    sim.run()
    assert seen == [(1.0, "x"), (2.0, "y")]


def test_drain_yields_live_events_without_firing():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1), label="keep")
    ev = sim.schedule_at(2.0, lambda: fired.append(2), label="dead")
    ev.cancel()
    drained = list(sim.drain())
    assert [e.label for e in drained] == ["keep"]
    assert fired == []
    assert sim.pending_events == 0


def test_heap_compaction_bounds_cancelled_garbage():
    """Cancelling many events must not grow the heap without bound:
    once dead entries dominate, the kernel compacts in place."""
    sim = Simulator()
    keep = sim.schedule_at(1000.0, lambda: None)
    for i in range(10 * Simulator.COMPACT_THRESHOLD):
        ev = sim.schedule_at(1.0 + i * 1e-6, lambda: None)
        ev.cancel()
        # The heap never holds more than ~2x the threshold of garbage.
        assert sim.heap_size <= 2 * Simulator.COMPACT_THRESHOLD + 2
    assert sim.compactions > 0
    assert sim.pending_events == 1
    assert not keep.cancelled


def test_compaction_preserves_firing_order():
    sim = Simulator()
    order = []
    live = []
    # Interleave live events with waves of cancelled ones so compaction
    # triggers mid-build, then check FIFO/time order is untouched.
    for i in range(200):
        live.append(sim.schedule_at(10.0 + (i % 7), lambda i=i: order.append(i)))
        for _ in range(3):
            sim.schedule_at(5.0, lambda: order.append(-1)).cancel()
    assert sim.compactions > 0
    sim.run()
    assert -1 not in order
    expected = sorted(range(200), key=lambda i: (10.0 + (i % 7), i))
    assert order == expected


def test_compaction_skips_when_live_events_dominate():
    sim = Simulator()
    for i in range(10 * Simulator.COMPACT_THRESHOLD):
        sim.schedule_at(1.0 + i, lambda: None)
    # Fewer dead than live: threshold count alone must not trigger.
    for _ in range(Simulator.COMPACT_THRESHOLD + 5):
        sim.schedule_at(0.5, lambda: None).cancel()
    assert sim.compactions == 0
    sim.run()
    assert sim.compactions == 0


def test_pop_live_accounts_dead_entries():
    sim = Simulator()
    # Cancelled events below the compaction threshold are discarded
    # lazily by the run loop; the dead-counter must follow them out.
    for _ in range(10):
        sim.schedule_at(1.0, lambda: None).cancel()
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    assert sim._dead == 0
    assert sim.heap_size == 0


def test_reentrant_run_raises():
    sim = Simulator()
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
    sim.schedule_at(1.0, reenter)
    sim.run()


def test_exception_in_callback_propagates_and_leaves_kernel_usable():
    sim = Simulator()
    def boom():
        raise ValueError("boom")
    sim.schedule_at(1.0, boom)
    sim.schedule_at(2.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run()
    # The kernel must not be stuck in "running" state.
    sim.run()
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# Live-entry accounting (the O(1) pending_events counter)
# ---------------------------------------------------------------------------

def test_pending_events_is_live_counter():
    sim = Simulator()
    evs = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    evs[3].cancel()
    evs[7].cancel()
    assert sim.pending_events == 8
    sim.run(until=4.0)
    # Fired 0,1,2,4 (3 was cancelled); 5,6,8,9 remain live.
    assert sim.pending_events == 4
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_counts():
    sim = Simulator()
    ev = sim.schedule_at(1.0, lambda: None)
    later = sim.schedule_at(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.pending_events == 1
    ev.cancel()                      # already fired: must be a no-op
    assert sim.pending_events == 1
    assert sim._dead == 0            # and must not count as heap garbage
    later.cancel()
    assert sim.pending_events == 0
    sim.run()
    assert sim.processed_events == 1


def test_cancel_after_drain_is_noop_on_counts():
    sim = Simulator()
    evs = [sim.schedule_at(float(i + 1), lambda: None) for i in range(4)]
    drained = list(sim.drain())
    assert len(drained) == 4
    assert sim.pending_events == 0
    for ev in drained:
        ev.cancel()
    assert sim.pending_events == 0
    assert sim._dead == 0


def test_horizon_pushback_keeps_pending_count():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    beyond = sim.schedule_at(10.0, lambda: None)
    sim.run(until=5.0)
    # The beyond-horizon event was popped and re-queued: still pending,
    # still cancellable with correct accounting.
    assert sim.pending_events == 1
    beyond.cancel()
    assert sim.pending_events == 0
    assert sim._dead == 1
    sim.run()
    assert sim.processed_events == 1


def test_pending_count_survives_compaction():
    sim = Simulator()
    keep = [sim.schedule_at(1e9 + i, lambda: None) for i in range(5)]
    for i in range(Simulator.COMPACT_THRESHOLD + 5):
        sim.schedule_at(float(i + 1), lambda: None).cancel()
    assert sim.compactions >= 1
    assert sim.pending_events == len(keep)
    # Post-compaction garbage stays bounded (sub-threshold stragglers only).
    assert sim.heap_size < len(keep) + Simulator.COMPACT_THRESHOLD


def test_drain_after_cancellations_and_horizon():
    sim = Simulator()
    a = sim.schedule_at(1.0, lambda: None)
    b = sim.schedule_at(2.0, lambda: None)
    c = sim.schedule_at(3.0, lambda: None)
    b.cancel()
    sim.run(until=1.0)
    assert a.cancelled is False and sim.processed_events == 1
    remaining = list(sim.drain())
    assert remaining == [c]
    assert sim.pending_events == 0
    assert list(sim.drain()) == []


# ---------------------------------------------------------------------------
# Model check: the heap against a naive sorted reference
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                  st.sampled_from([PRIORITY_EARLY, 0, PRIORITY_LATE])),
        st.tuples(st.just("burst"), st.integers(1, 12), st.integers(0, 3)),
        st.tuples(st.just("cancel"), st.integers(0, 10**6), st.just(0)),
        st.tuples(st.just("step"), st.just(0), st.just(0)),
        st.tuples(st.just("until"), st.sampled_from([0.0, 0.25, 0.6, 2.0]), st.just(0)),
    ),
    max_size=60,
)


@given(ops=_OPS, threshold=st.sampled_from([1, 3, Simulator.COMPACT_THRESHOLD]))
@settings(max_examples=150, deadline=None)
def test_firing_order_and_calendar_match_sorted_reference(ops, threshold):
    """Random schedule/cancel/step/run(until=) sequences fire in, and
    snapshot as, the order of a list sorted by (time, priority, seq)."""
    sim = Simulator()
    sim.COMPACT_THRESHOLD = threshold     # small values force compaction
    fired: list[int] = []
    handles = []
    model: dict[int, list] = {}           # seq -> [time, priority, label, live]
    model_fired: list[int] = []
    model_now = 0.0

    def schedule(dt, priority):
        t = sim.now + dt
        seq = len(handles)
        handles.append(sim.schedule_at(
            t, lambda s=seq: fired.append(s), priority=priority, label=f"e{seq}",
        ))
        model[seq] = [t, priority, f"e{seq}", True]

    def pending():
        return sorted((m[0], m[1], s) for s, m in model.items() if m[3])

    for op, x, y in ops:
        if op == "at":
            schedule(x, y)
        elif op == "burst":
            # Schedule then cancel most of a batch: the compaction trigger.
            first = len(handles)
            for k in range(x):
                schedule(0.125 * (k % 3), 0)
            for k in range(first, len(handles)):
                if k % 4 != y:
                    handles[k].cancel()
                    model[k][3] = False
        elif op == "cancel" and handles:
            k = x % len(handles)
            handles[k].cancel()
            model[k][3] = False
        elif op == "step":
            head = pending()
            assert sim.step() == bool(head)
            if head:
                t, _, s = head[0]
                model_fired.append(s)
                model[s][3] = False
                model_now = t
        elif op == "until":
            until = sim.now + x
            sim.run(until=until)
            for t, _, s in pending():
                if t <= until:
                    model_fired.append(s)
                    model[s][3] = False
            model_now = max(model_now, until)
        assert fired == model_fired
        assert sim.now == model_now
        assert sim.pending_events == len(pending())
        assert sim.calendar_snapshot() == [[len(model_fired), len(handles)]] + [
            [t, p, s, model[s][2]] for t, p, s in pending()
        ]
    sim.run()
    assert fired == model_fired + [s for _, _, s in pending()]


# ---------------------------------------------------------------------------
# Twin runs: tie-break versus structural divergence
# ---------------------------------------------------------------------------

def test_fired_lines_follow_firing_order():
    def build(sim):
        sim.schedule_at(2.0, lambda: None, label="late")
        sim.schedule_at(1.0, lambda: None, label="early")

    rows = [json.loads(line) for line in fired_lines(build)]
    assert [(r["t"], r["label"]) for r in rows] == [(1.0, "early"), (2.0, "late")]


def test_identical_runs_are_clean():
    def build(sim):
        for k in range(5):
            sim.schedule_at(float(k), lambda: None, label=f"ev{k}")

    assert twin_divergence(build) is None


def test_injected_tiebreak_nondeterminism_is_flagged():
    """Events scheduled at the same timestamp in a run-dependent order
    (the signature of iterating a hash-ordered set during setup) are a
    tie-break divergence."""
    run_no = [0]

    def build(sim):
        labels = ["a", "b", "c"]
        if run_no[0] % 2:            # nondeterministic scheduling order
            labels = labels[::-1]
        run_no[0] += 1
        for lab in labels:
            sim.schedule_at(1.0, lambda: None, label=lab)

    div = twin_divergence(build)
    assert div is not None
    assert div["kind"] == "tie-break"
    assert div["lineno"] == 1
    assert json.loads(div["a"])["t"] == 1.0


def test_structural_divergence_is_not_tiebreak():
    run_no = [0]

    def build(sim):
        t = 1.0 if run_no[0] == 0 else 2.0
        run_no[0] += 1
        sim.schedule_at(t, lambda: None, label="only")

    div = twin_divergence(build)
    assert div is not None and div["kind"] == "structural"


def test_trace_length_mismatch_is_structural():
    run_no = [0]

    def build(sim):
        sim.schedule_at(1.0, lambda: None, label="x")
        if run_no[0]:
            sim.schedule_at(2.0, lambda: None, label="y")
        run_no[0] += 1

    div = twin_divergence(build)
    assert div is not None and div["kind"] == "structural"
    assert div["lineno"] == 2 and div["a"] is None
    assert json.loads(div["b"])["label"] == "y"
