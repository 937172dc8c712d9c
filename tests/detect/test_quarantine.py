"""Liveness quarantine in the online detectors (graceful degradation
under crash faults: silent processes are flagged, not waited on)."""

import pytest

from repro.detect.online import OnlineScalarStrobeDetector, OnlineVectorStrobeDetector
from repro.obs import MetricsRegistry, Observability
from repro.predicates.relational import SumThresholdPredicate
from repro.sim.kernel import Simulator

DETECTORS = [OnlineVectorStrobeDetector, OnlineScalarStrobeDetector]


def occupancy(threshold=2):
    return SumThresholdPredicate([("x", 0, 1.0), ("y", 1, 1.0)], threshold)


def make(cls, sim, horizon):
    det = cls(
        sim, occupancy(), {"x": 0, "y": 0},
        delta=0.1, check_period=0.1, liveness_horizon=horizon,
    )
    det.start()
    return det


def feed_at(sim, det, rec, t, pid, var):
    kw = {"vector": (1, 1)} if isinstance(det, OnlineVectorStrobeDetector) \
        else {"scalar": int(t * 10)}
    r = rec(pid, var, 1, true_time=t, **kw)
    sim.schedule_at(t, lambda: det.feed(r))


@pytest.mark.parametrize("cls", DETECTORS)
def test_silent_process_is_quarantined_and_rejoins(cls, rec):
    sim = Simulator()
    det = make(cls, sim, horizon=5.0)
    feed_at(sim, det, rec, 1.0, 0, "x")
    feed_at(sim, det, rec, 1.0, 1, "y")
    # pid 0 keeps talking; pid 1 goes silent after t=1.
    for t in (3.0, 5.0, 7.0, 9.0):
        feed_at(sim, det, rec, t, 0, "x")
    sim.run(until=10.0)
    assert det.quarantined == {1}
    assert det.quarantine_events == 1
    # First record heard from the silent process rejoins it.
    feed_at(sim, det, rec, 11.0, 1, "y")
    sim.run(until=12.0)
    det.stop()
    assert det.quarantined == set()
    assert det.quarantine_events == 1       # entries only, rejoin doesn't reset


@pytest.mark.parametrize("cls", DETECTORS)
def test_requarantine_counts_each_entry(cls, rec):
    sim = Simulator()
    det = make(cls, sim, horizon=2.0)
    feed_at(sim, det, rec, 1.0, 1, "y")
    sim.run(until=5.0)                      # silent > 2 s -> quarantined
    assert det.quarantined == {1}
    feed_at(sim, det, rec, 6.0, 1, "y")     # rejoin
    sim.run(until=7.0)
    assert det.quarantined == set()
    sim.run(until=12.0)                     # silent again -> second entry
    det.stop()
    assert det.quarantined == {1}
    assert det.quarantine_events == 2


@pytest.mark.parametrize("cls", DETECTORS)
def test_disabled_by_default(cls, rec):
    sim = Simulator()
    det = cls(sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.1)
    det.start()
    feed_at(sim, det, rec, 1.0, 0, "x")
    sim.run(until=60.0)
    det.stop()
    assert det.quarantined == set()
    assert det.quarantine_events == 0


@pytest.mark.parametrize("cls", DETECTORS)
def test_horizon_validation(cls):
    sim = Simulator()
    for bad in (0.0, -3.0):
        with pytest.raises(ValueError):
            cls(sim, occupancy(), {"x": 0, "y": 0}, delta=0.1,
                liveness_horizon=bad)


def test_quarantine_metrics_are_exported(rec):
    sim = Simulator()
    det = make(OnlineVectorStrobeDetector, sim, horizon=3.0)
    registry = MetricsRegistry()
    det.bind_observer(Observability(registry=registry))
    feed_at(sim, det, rec, 1.0, 0, "x")
    feed_at(sim, det, rec, 1.0, 1, "y")
    for t in (3.0, 5.0, 7.0):
        feed_at(sim, det, rec, t, 0, "x")
    sim.run(until=8.0)
    assert registry.gauge("detect.quarantined").value == 1
    assert registry.counter("detect.quarantine_events").value == 1
    feed_at(sim, det, rec, 9.0, 1, "y")
    sim.run(until=10.0)
    det.stop()
    assert registry.gauge("detect.quarantined").value == 0
    assert registry.counter("detect.quarantine_events").value == 1
