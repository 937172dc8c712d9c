"""Tests for Mattern/Fidge vector clocks and vector timestamps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks.base import ClockError
from repro.clocks.vector import (
    VectorClock,
    VectorTimestamp,
    compare,
    concurrency_matrix,
    concurrent,
    dominates_matrix,
    stack_timestamps,
)


# ---------------------------------------------------------------------------
# VectorTimestamp semantics
# ---------------------------------------------------------------------------

def ts(*xs):
    return VectorTimestamp(xs)


def test_equality_and_hash():
    assert ts(1, 2) == ts(1, 2)
    assert ts(1, 2) != ts(2, 1)
    assert hash(ts(1, 2)) == hash(ts(1, 2))
    assert len({ts(1, 2), ts(1, 2), ts(2, 1)}) == 2


def test_dominance():
    assert ts(1, 2) < ts(2, 2)
    assert ts(1, 2) <= ts(1, 2)
    assert not ts(1, 2) < ts(1, 2)
    assert ts(2, 2) > ts(1, 2)


def test_concurrency():
    assert ts(1, 0).concurrent_with(ts(0, 1))
    assert concurrent(ts(2, 0, 1), ts(1, 5, 0))
    assert not ts(1, 1).concurrent_with(ts(2, 2))


def test_compare_classification():
    assert compare(ts(1, 1), ts(1, 1)) == "="
    assert compare(ts(1, 1), ts(2, 1)) == "<"
    assert compare(ts(2, 1), ts(1, 1)) == ">"
    assert compare(ts(1, 0), ts(0, 1)) == "||"


def test_merge_is_componentwise_max():
    assert ts(1, 5, 2).merge(ts(3, 0, 2)) == ts(3, 5, 2)


def test_width_mismatch_raises():
    with pytest.raises(ClockError):
        ts(1, 2) < ts(1, 2, 3)
    with pytest.raises(ClockError):
        ts(1, 2).merge(ts(1,))


def test_invalid_timestamps():
    with pytest.raises(ClockError):
        VectorTimestamp([])
    with pytest.raises(ClockError):
        VectorTimestamp([1, -1])


@pytest.mark.parametrize("bad", [1.7, 2.0, "3", True, False, None])
def test_non_integral_components_rejected(bad):
    """Floats, strings and bools raise instead of being truncated or
    coerced: VectorTimestamp([1.7, 2]) must not equal (1, 2)."""
    with pytest.raises(ClockError):
        VectorTimestamp([bad, 2])


@pytest.mark.parametrize("bad", [[1.7, 2.0], [True, False], ["1", "2"]])
def test_non_integral_arrays_rejected(bad):
    with pytest.raises(ClockError):
        VectorTimestamp(np.asarray(bad))


def test_numpy_integer_components_accepted():
    t = VectorTimestamp([np.int64(3), np.int32(1), 4])
    assert t.as_tuple() == (3, 1, 4)
    assert all(type(c) is int for c in t.as_tuple())
    assert VectorTimestamp(np.asarray([3, 1, 4], dtype=np.int64)) == t
    with pytest.raises(ClockError):
        VectorTimestamp(np.zeros((2, 2), dtype=np.int64))


def test_accessors():
    t = ts(4, 7)
    assert t.n == len(t) == 2
    assert t[1] == 7
    assert t.as_tuple() == (4, 7)
    assert t.sum() == 11


# Component vectors: values small enough to collide often.
vectors = st.lists(st.integers(0, 6), min_size=1, max_size=12)


@st.composite
def vector_pairs(draw):
    a = draw(vectors)
    b = draw(st.lists(st.integers(0, 6), min_size=len(a), max_size=len(a)))
    return a, b


@given(vector_pairs())
def test_comparisons_match_componentwise(pair):
    a, b = pair
    x, y = VectorTimestamp(a), VectorTimestamp(b)
    ref_le = all(p <= q for p, q in zip(a, b))
    ref_ge = all(q <= p for p, q in zip(a, b))
    ref_eq = list(a) == list(b)
    assert (x <= y) == ref_le
    assert (x < y) == (ref_le and not ref_eq)
    assert (x == y) == ref_eq
    assert x.concurrent_with(y) == (not ref_le and not ref_ge)


@given(vector_pairs())
def test_merge_matches_componentwise(pair):
    a, b = pair
    expected = tuple(max(p, q) for p, q in zip(a, b))
    m = VectorTimestamp(a).merge(VectorTimestamp(b))
    assert m.as_tuple() == expected
    assert m.sum() == sum(expected)


@given(vectors)
def test_hash_and_views_match_components(components):
    t = VectorTimestamp(components)
    trusted = VectorTimestamp._from_trusted_tuple(tuple(components))
    assert t == trusted
    assert hash(t) == hash(trusted) == hash(tuple(components))
    assert t.as_tuple() == tuple(components)
    assert t.sum() == sum(components)
    assert list(t) == list(components)


def test_interned_zeros_and_units():
    assert VectorTimestamp.zeros(5) is VectorTimestamp.zeros(5)
    assert VectorTimestamp.unit(5, 2) is VectorTimestamp.unit(5, 2)
    assert VectorTimestamp.zeros(5).as_tuple() == (0,) * 5
    assert VectorTimestamp.unit(5, 2).as_tuple() == (0, 0, 1, 0, 0)


# ---------------------------------------------------------------------------
# Batch kernels vs the pairwise operators
# ---------------------------------------------------------------------------

@st.composite
def timestamp_sets(draw, min_m=1, max_m=12, max_n=10):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(min_m, max_m))
    rows = draw(st.lists(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ))
    return [VectorTimestamp(row) for row in rows]


@settings(max_examples=60)
@given(timestamp_sets())
def test_dominates_matrix_matches_pairwise(tss):
    leq = dominates_matrix(tss)
    m = len(tss)
    assert leq.shape == (m, m)
    for i in range(m):
        for j in range(m):
            assert bool(leq[i, j]) == (tss[i] <= tss[j])


@settings(max_examples=60)
@given(timestamp_sets(min_m=2))
def test_concurrency_matrix_matches_pairwise(tss):
    conc = concurrency_matrix(tss)
    m = len(tss)
    assert not conc.diagonal().any()
    for i in range(m):
        for j in range(m):
            if i != j:
                assert bool(conc[i, j]) == tss[i].concurrent_with(tss[j])
    assert np.array_equal(conc, conc.T)


@given(timestamp_sets())
def test_stack_timestamps_shape_and_values(tss):
    stacked = stack_timestamps(tss)
    assert stacked.shape == (len(tss), tss[0].n)
    assert stacked.dtype == np.int64
    for i, t in enumerate(tss):
        assert tuple(int(x) for x in stacked[i]) == t.as_tuple()


def test_wide_vector_batch_kernels():
    """A width-70 set (far beyond the packed encoding) through the
    batch kernels, the pairwise operators and merge."""
    rng = np.random.default_rng(7)
    n, m = 70, 40
    tss = [VectorTimestamp(rng.integers(0, 4, size=n)) for _ in range(m)]
    # Chain some stamps so the set holds comparable pairs, not only races.
    tss += [tss[0].merge(t) for t in tss[1:6]]
    assert stack_timestamps(tss).shape == (len(tss), n)
    leq = dominates_matrix(tss)
    conc = concurrency_matrix(tss)
    for i in range(len(tss)):
        for j in range(len(tss)):
            assert bool(leq[i, j]) == (tss[i] <= tss[j])
            if i != j:
                assert bool(conc[i, j]) == tss[i].concurrent_with(tss[j])
    assert leq[0, m:].all()
    assert tss[0].packed() is None


def test_batch_kernels_empty_and_width_mismatch():
    assert dominates_matrix([]).shape == (0, 0)
    assert concurrency_matrix([]).shape == (0, 0)
    with pytest.raises(ClockError):
        stack_timestamps([ts(1, 2), ts(1, 2, 3)])


# ---------------------------------------------------------------------------
# VectorClock protocol rules VC1–VC3
# ---------------------------------------------------------------------------

def test_vc1_local_event_ticks_own_component():
    c = VectorClock(1, 3)
    assert c.on_local_event() == ts(0, 1, 0)
    assert c.on_local_event() == ts(0, 2, 0)


def test_vc2_send_ticks_and_returns():
    c = VectorClock(0, 2)
    assert c.on_send() == ts(1, 0)


def test_vc3_receive_merges_then_ticks_own():
    c = VectorClock(0, 3)
    c.on_local_event()                    # (1,0,0)
    got = c.on_receive(ts(0, 4, 2))
    assert got == ts(2, 4, 2)             # merge + own tick


def test_receive_width_mismatch_raises():
    c = VectorClock(0, 2)
    with pytest.raises(ClockError):
        c.on_receive(ts(1, 2, 3))


def test_invalid_pid():
    with pytest.raises(ClockError):
        VectorClock(2, 2)
    with pytest.raises(ClockError):
        VectorClock(-1, 2)


def test_read_is_pure():
    c = VectorClock(0, 2)
    c.on_local_event()
    assert c.read() == c.read() == ts(1, 0)


def test_timestamp_snapshot_isolated_from_clock_mutation():
    """A returned timestamp must not change when the clock ticks later."""
    c = VectorClock(0, 2)
    t1 = c.on_local_event()
    c.on_local_event()
    assert t1 == ts(1, 0)


def test_message_exchange_establishes_happens_before():
    a, b = VectorClock(0, 2), VectorClock(1, 2)
    t_send = a.on_send()
    t_recv = b.on_receive(t_send)
    assert t_send < t_recv
    # An event at b before the receive is concurrent with the send? No —
    # construct fresh: independent local events are concurrent.
    x, y = VectorClock(0, 2), VectorClock(1, 2)
    assert x.on_local_event().concurrent_with(y.on_local_event())


# ---------------------------------------------------------------------------
# Property tests: the happens-before isomorphism
# ---------------------------------------------------------------------------

@st.composite
def executions(draw):
    """Random 3-process executions as op sequences.

    Ops: ("local", p) or ("msg", src, dst).  Returns the list of ops.
    """
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("local", draw(st.integers(0, 2))))
        else:
            src = draw(st.integers(0, 2))
            dst = draw(st.integers(0, 2).filter(lambda d: d != src))
            ops.append(("msg", src, dst))
    return ops


def replay(ops, n=3):
    """Replay ops; return list of (event_id, timestamp, happens_before_set).

    The ground-truth happens-before is computed transitively from
    program order + message edges.
    """
    clocks = [VectorClock(i, n) for i in range(n)]
    events = []          # (eid, pid, timestamp)
    preds = {}           # eid -> set of eids happening before it
    last_at = [None] * n

    def add_event(pid, tstamp, extra_pred=None):
        eid = len(events)
        p = set()
        if last_at[pid] is not None:
            p |= preds[last_at[pid]] | {last_at[pid]}
        if extra_pred is not None:
            p |= preds[extra_pred] | {extra_pred}
        events.append((eid, pid, tstamp))
        preds[eid] = p
        last_at[pid] = eid
        return eid

    for op in ops:
        if op[0] == "local":
            pid = op[1]
            add_event(pid, clocks[pid].on_local_event())
        else:
            _, src, dst = op
            send_ts = clocks[src].on_send()
            send_eid = add_event(src, send_ts)
            recv_ts = clocks[dst].on_receive(send_ts)
            add_event(dst, recv_ts, extra_pred=send_eid)
    return events, preds


@given(executions())
def test_vector_dominance_iff_happens_before(ops):
    """Mattern/Fidge isomorphism: e -> f  <=>  V(e) < V(f)."""
    events, preds = replay(ops)
    for eid_a, _, ta in events:
        for eid_b, _, tb in events:
            if eid_a == eid_b:
                continue
            hb = eid_a in preds[eid_b]
            assert hb == (ta < tb), (
                f"event {eid_a} {'->' if hb else '||/<-'} {eid_b} but "
                f"{ta} vs {tb}"
            )


@given(executions())
def test_own_component_counts_own_events(ops):
    events, _ = replay(ops)
    counts = [0, 0, 0]
    for _, pid, tstamp in events:
        counts[pid] += 1
        assert tstamp[pid] == counts[pid]
