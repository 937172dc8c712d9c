"""Cross-cutting hypothesis properties of the clock suite."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clocks.physical import DriftModel, PhysicalClock
from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
from repro.clocks.sync import PeriodicSyncProtocol
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Periodic sync keeps skew bounded forever (sampled drift).
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000), st.integers(2, 6))
def test_periodic_sync_skew_bounded_at_all_round_boundaries(seed, n):
    rng = np.random.default_rng(seed)
    sim = Simulator()
    clocks = [
        PhysicalClock(DriftModel.sample(rng, max_offset=0.1, max_drift_ppm=100.0))
        for _ in range(n)
    ]
    eps = 0.001
    period = 10.0
    proto = PeriodicSyncProtocol(sim, clocks, period=period, epsilon=eps, rng=rng)
    proto.start()
    for k in range(1, 6):
        sim.run(until=k * period)
        # Right after each round: pairwise skew <= 2 eps.
        assert proto.max_pairwise_skew(sim.now) <= 2 * eps + 1e-12
        # Worst case between rounds: bounded by 2 eps + drift accumulation.
        max_drift_rate = max(abs(c.model.drift_ppm) for c in clocks) * 1e-6
        bound = 2 * eps + 2 * max_drift_rate * period
        assert proto.max_pairwise_skew(sim.now + period - 1e-9) <= bound + 1e-9


# ---------------------------------------------------------------------------
# Strobe clocks: scalar reading always >= max component seen; vector
# dominates scalar count per process.
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_strobe_scalar_dominates_own_event_count(event_pids):
    """Each process's scalar strobe value ≥ its own event count, and at
    Δ=0 (instant strobes) equals the global event count."""
    n = 3
    scalars = [StrobeScalarClock(i) for i in range(n)]
    vectors = [StrobeVectorClock(i, n) for i in range(n)]
    counts = [0] * n
    for pid in event_pids:
        counts[pid] += 1
        s = scalars[pid].on_relevant_event()
        vts = vectors[pid].on_relevant_event()
        for j in range(n):
            if j != pid:
                scalars[j].on_strobe(s)
                vectors[j].on_strobe(vts)
    total = sum(counts)
    for i in range(n):
        assert scalars[i].read().value == total
        assert vectors[i].read().as_tuple() == tuple(counts)
        assert scalars[i].read().value >= counts[i]
