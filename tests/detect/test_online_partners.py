"""Differential tests for the online detector's chain-walk race search.

``OnlineVectorStrobeDetector._race_lists`` finds each released record's
concurrent partners by walking monotone chains.  These tests check it
against the dense definition — the nonzeros of :func:`concurrency_matrix`
over the linearization view at the flush — on random chain-structured
stamp streams: clock resets, n = 3 (packed words), n = 12 (no packed
form), stamps whose components outgrow ``packed_capacity(3)`` mid-run,
random arrival orders and flush periods.  A reference detector whose
flush uses the dense lists must emit the same detections at the same
times and count the same late records.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.vector import VectorTimestamp, concurrency_matrix, packed_capacity
from repro.core.records import SensedEventRecord
from repro.detect import online
from repro.detect.online import OnlineVectorStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.predicates.relational import SumThresholdPredicate
from repro.sim.kernel import Simulator
from repro.sweep.points import synth_records, throughput_predicate

PHI = SumThresholdPredicate([(f"v{k}", k, 1.0) for k in range(3)], 5)
INITIALS = {f"v{k}": 0 for k in range(3)}


def dense_races(processed, suffix, stable):
    """Race lists of the first ``stable`` pending records: nonzero
    columns of the dense concurrency matrix over processed + pending."""
    view = processed + suffix
    conc = concurrency_matrix([r.strobe_vector for r in view])
    base = len(processed)
    return [np.flatnonzero(conc[base + k]).tolist() for k in range(stable)]


class DenseOnline(OnlineVectorStrobeDetector):
    """Reference: the online detector with the dense race lists."""

    def _race_lists(self, suffix, stable):
        return dense_races(self._processed, suffix, stable)


class CheckedOnline(OnlineVectorStrobeDetector):
    """The chain walk, asserting every flush's lists equal the dense ones."""

    releasing_flushes = 0

    def _race_lists(self, suffix, stable):
        want = dense_races(self._processed, suffix, stable)
        got = super()._race_lists(suffix, stable)
        assert got == want
        self.releasing_flushes += 1
        return got


def chain_stream(rnd, n, m, resets, race_frac, offset):
    """``m`` records of ``n`` strobe-vector processes, one sense event
    per step.  A strobe reaches each peer before the next step, or a few
    steps late with probability ``race_frac``.  At ``resets`` random
    steps a random process reboots its clock to zero, so its records
    form one monotone chain per epoch.  ``offset`` is added to every
    stamp's first component (order-preserving)."""
    vecs = [[0] * n for _ in range(n)]
    seqs = [0] * n
    in_flight: list[tuple[int, int, tuple]] = []
    reset_steps = set(rnd.sample(range(m), min(resets, m)))
    records = []
    for step in range(m):
        due = [s for s in in_flight if s[0] <= step]
        in_flight = [s for s in in_flight if s[0] > step]
        for _, dst, stamp in due:
            vecs[dst] = [max(a, b) for a, b in zip(vecs[dst], stamp)]
        if step in reset_steps:
            vecs[rnd.randrange(n)] = [0] * n
        i = rnd.randrange(n)
        vecs[i][i] += 1
        stamp = tuple(vecs[i])
        seqs[i] += 1
        records.append(SensedEventRecord(
            pid=i, seq=seqs[i], var=f"v{i % 3}", value=rnd.randrange(4),
            strobe_vector=VectorTimestamp((stamp[0] + offset,) + stamp[1:]),
            true_time=float(step),
        ))
        for j in range(n):
            if j != i:
                late = rnd.random() < race_frac
                in_flight.append((step + (rnd.randrange(1, 4) if late else 0), j, stamp))
    return records


def run_online(cls, records, arrivals, delta, check_period):
    sim = Simulator()
    det = cls(sim, PHI, INITIALS, delta=delta, check_period=check_period)
    det.start()
    for r, t in zip(records, arrivals):
        sim.schedule_at(t, lambda r=r: det.feed(r))
    sim.run(until=max(arrivals) + 2 * delta + 2 * check_period)
    det.finalize()
    return det


def emitted(det):
    return [
        (d.trigger.key(), d.label, t, sorted(d.detail.items()))
        for d, t in det.emissions
    ]


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([3, 12]))
    overflow = n == 3 and draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    records = chain_stream(
        rnd, n, m=draw(st.integers(1, 60)), resets=draw(st.integers(0, 3)),
        race_frac=draw(st.sampled_from([0.0, 0.3, 0.7])),
        offset=packed_capacity(3) - 2 if overflow else 0,
    )
    delta = draw(st.floats(0.05, 1.0))
    # Arrivals follow the linearization with random jitter; within the
    # 2Δ stability wait nothing can arrive late, beyond it records may.
    jitter = draw(st.sampled_from([1.5, 4.0])) * delta
    spacing = draw(st.floats(0.01, 0.5))
    order = sorted(range(len(records)),
                   key=lambda k: VectorStrobeDetector._sort_key(records[k]))
    arrivals = [0.0] * len(records)
    for rank, k in enumerate(order):
        arrivals[k] = rank * spacing + rnd.uniform(0.0, jitter)
    check_period = draw(st.floats(0.01, 1.0))
    return records, arrivals, delta, check_period, jitter < 2 * delta


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_chain_walk_matches_dense_reference(scenario):
    records, arrivals, delta, check_period, in_window = scenario
    got = run_online(CheckedOnline, records, arrivals, delta, check_period)
    want = run_online(DenseOnline, records, arrivals, delta, check_period)
    assert got.releasing_flushes >= 1
    assert emitted(got) == emitted(want)
    assert got.late_records == want.late_records
    if in_window:
        assert got.late_records == 0


def test_post_reset_records_are_processed():
    """Resets break process stamp chains, and the post-reset records are
    released like any other (none counted late)."""
    breaks = 0
    for seed in range(5):
        records = chain_stream(random.Random(seed), 3, m=40, resets=2,
                               race_frac=0.3, offset=0)
        by_pid: dict[int, list] = {}
        for r in records:
            by_pid.setdefault(r.pid, []).append(r.strobe_vector)
        breaks += sum(
            not (a <= b) for stamps in by_pid.values() for a, b in zip(stamps, stamps[1:])
        )
        order = sorted(records, key=VectorStrobeDetector._sort_key)
        arrivals = {r.key(): 0.05 * rank for rank, r in enumerate(order)}
        got = run_online(CheckedOnline, records, [arrivals[r.key()] for r in records],
                         0.1, 0.05)
        assert got.late_records == 0
        assert len(got._processed) == len(records)
    assert breaks


def test_finalize_over_unflushed_backlog(monkeypatch):
    """5,000 records and no flush until ``finalize``: one release of the
    whole backlog, equal to the offline detector, with a compare count
    linear in the backlog rather than quadratic."""
    compares = [0]
    swar = online.packed_le

    def counting(n):
        le = swar(n)

        def counted(a, b):
            compares[0] += 1
            return le(a, b)
        return counted

    monkeypatch.setattr(online, "packed_le", counting)
    m = 5000
    records = synth_records(m)
    phi, initials = throughput_predicate(), {f"v{i}": 0 for i in range(4)}
    det = OnlineVectorStrobeDetector(Simulator(), phi, initials, delta=0.1)
    for r in records:
        det.feed(r)
    det.finalize()
    offline = VectorStrobeDetector(phi, initials)
    offline.feed_many(records)
    want = offline.finalize()
    assert [(d.trigger.key(), d.label, d.detail["race_size"]) for d in det.detections] == [
        (d.trigger.key(), d.label, d.detail["race_size"]) for d in want
    ]
    assert len(det._processed) == m
    assert compares[0] < 40 * m          # a dense pass would be ~m²/2
