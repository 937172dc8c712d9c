"""Tests for the online (watermark) vector-strobe detector."""

import json

import pytest

from repro.analysis.metrics import BorderlinePolicy, match_detections
from repro.core.process import ClockConfig
from repro.detect.online import OnlineScalarStrobeDetector, OnlineVectorStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay, SynchronousDelay
from repro.net.loss import BernoulliLoss
from repro.obs import MetricsRegistry, Observability
from repro.predicates.relational import SumThresholdPredicate
from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig
from repro.sim.kernel import Simulator


def occupancy(threshold=2):
    return SumThresholdPredicate([("x", 0, 1.0), ("y", 1, 1.0)], threshold)


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        OnlineVectorStrobeDetector(sim, occupancy(), {"x": 0, "y": 0}, delta=-1.0)
    with pytest.raises(ValueError):
        OnlineVectorStrobeDetector(
            sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.0
        )


def test_emits_online_with_bounded_latency(rec):
    """A detection is emitted while the run continues, within ~2Δ +
    check period of the record's arrival."""
    sim = Simulator()
    delta = 0.1
    det = OnlineVectorStrobeDetector(
        sim, occupancy(), {"x": 0, "y": 0}, delta=delta, check_period=0.05
    )
    det.start()
    r1 = rec(0, "x", 2, true_time=1.0, vector=(1, 0))
    r2 = rec(1, "y", 1, true_time=1.5, vector=(1, 1))
    sim.schedule_at(1.0, lambda: det.feed(r1))
    sim.schedule_at(1.5, lambda: det.feed(r2))
    emitted = []
    sim.schedule_at(1.9, lambda: emitted.append(len(det.detections)))
    sim.run(until=5.0)
    det.stop()
    # By 1.9 s (= 1.5 + 2Δ + period + slack) the detection is out.
    assert emitted[0] >= 1
    lat = det.detection_latencies()
    assert len(lat) == 1
    assert lat[0] <= 2 * delta + 0.05 + 1e-9 + 0.5   # trigger true_time ref


def test_waits_for_stability(rec):
    """Records are not processed before the 2Δ stability window."""
    sim = Simulator()
    det = OnlineVectorStrobeDetector(
        sim, occupancy(), {"x": 0, "y": 0}, delta=1.0, check_period=0.1
    )
    det.start()
    sim.schedule_at(1.0, lambda: det.feed(rec(0, "x", 5, true_time=1.0, vector=(1, 0))))
    probe = []
    sim.schedule_at(2.5, lambda: probe.append(len(det.detections)))   # < 1.0+2Δ
    sim.schedule_at(3.2, lambda: probe.append(len(det.detections)))   # > 1.0+2Δ
    sim.run(until=4.0)
    det.stop()
    assert probe == [0, 1]


@pytest.mark.slow
def test_matches_offline_on_scenario():
    """End-to-end: online output ≡ offline output on the same traffic
    (no loss, strobe-per-event — the stability assumption holds)."""
    cfg = ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=2.0, mean_dwell=3.0, seed=5,
        delay=DeltaBoundedDelay(0.1),
        clocks=ClockConfig(strobe_vector=True),
    )
    hall = ExhibitionHall(cfg)
    online = OnlineVectorStrobeDetector(
        hall.system.sim, hall.predicate, hall.initials,
        delta=0.1, check_period=0.05,
    )
    offline = VectorStrobeDetector(hall.predicate, hall.initials)
    hall.attach_detector(online)
    hall.attach_detector(offline)
    online.start()
    hall.run(90.0)
    on_out = online.finalize()
    off_out = offline.finalize()
    assert [d.trigger.key() for d in on_out] == [d.trigger.key() for d in off_out]
    assert [d.label for d in on_out] == [d.label for d in off_out]
    assert online.late_records == 0


@pytest.mark.slow
def test_latencies_bounded_on_scenario():
    cfg = ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=2.0, mean_dwell=3.0, seed=6,
        delay=DeltaBoundedDelay(0.2),
        clocks=ClockConfig(strobe_vector=True),
    )
    hall = ExhibitionHall(cfg)
    online = OnlineVectorStrobeDetector(
        hall.system.sim, hall.predicate, hall.initials,
        delta=0.2, check_period=0.05,
    )
    hall.attach_detector(online)
    online.start()
    hall.run(90.0)
    online.stop()
    lats = online.detection_latencies()
    assert lats, "no online detections emitted"
    # Latency ≤ delivery Δ + stability 2Δ + check period (+ float slack).
    assert max(lats) <= 0.2 + 0.4 + 0.05 + 1e-6


@pytest.mark.slow
def test_loss_yields_late_records_not_crash():
    cfg = ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=3.0, mean_dwell=3.0, seed=7,
        delay=DeltaBoundedDelay(0.2),
        loss=BernoulliLoss(0.3),
        clocks=ClockConfig(strobe_vector=True),
    )
    hall = ExhibitionHall(cfg)
    online = OnlineVectorStrobeDetector(
        hall.system.sim, hall.predicate, hall.initials,
        delta=0.2, check_period=0.05,
    )
    hall.attach_detector(online)
    online.start()
    hall.run(60.0)
    out = online.finalize()
    # Degraded but functional; late records were counted, not fatal.
    assert isinstance(out, list)
    assert online.late_records >= 0


def test_finalize_flushes_everything(rec):
    sim = Simulator()
    det = OnlineVectorStrobeDetector(
        sim, occupancy(), {"x": 0, "y": 0}, delta=5.0, check_period=1.0
    )
    det.feed(rec(0, "x", 5, true_time=1.0, vector=(1, 0)))
    # Never stable during the run (2Δ = 10 s), but finalize forces it.
    out = det.finalize()
    assert len(out) == 1


# ---------------------------------------------------------------------------
# OnlineScalarStrobeDetector
# ---------------------------------------------------------------------------

def test_online_scalar_validation():
    sim = Simulator()
    from repro.detect.online import OnlineScalarStrobeDetector
    with pytest.raises(ValueError):
        OnlineScalarStrobeDetector(sim, occupancy(), {"x": 0, "y": 0}, delta=-1.0)
    with pytest.raises(ValueError):
        OnlineScalarStrobeDetector(
            sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.0
        )
    det = OnlineScalarStrobeDetector(sim, occupancy(), {"x": 0, "y": 0}, delta=0.1)
    from repro.core.records import SensedEventRecord
    with pytest.raises(ValueError):
        det.feed(SensedEventRecord(pid=0, seq=1, var="x", value=1, true_time=0.0))


def test_online_scalar_matches_offline_on_scenario():
    from repro.detect.online import OnlineScalarStrobeDetector
    from repro.detect.strobe_scalar import ScalarStrobeDetector
    from repro.core.process import ClockConfig as CC

    cfg = ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=2.0, mean_dwell=3.0, seed=8,
        delay=DeltaBoundedDelay(0.1),
        clocks=CC(strobe_scalar=True),
    )
    hall = ExhibitionHall(cfg)
    online = OnlineScalarStrobeDetector(
        hall.system.sim, hall.predicate, hall.initials,
        delta=0.1, check_period=0.05,
    )
    offline = ScalarStrobeDetector(hall.predicate, hall.initials)
    hall.attach_detector(online)
    hall.attach_detector(offline)
    online.start()
    hall.run(90.0)
    on_out = online.finalize()
    off_out = offline.finalize()
    assert [d.trigger.key() for d in on_out] == [d.trigger.key() for d in off_out]
    assert online.late_records == 0


def test_online_scalar_emits_during_run(rec):
    from repro.detect.online import OnlineScalarStrobeDetector
    sim = Simulator()
    det = OnlineScalarStrobeDetector(
        sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.05
    )
    det.start()
    sim.schedule_at(1.0, lambda: det.feed(rec(0, "x", 5, true_time=1.0, scalar=1, vector=(1, 0))))
    probe = []
    sim.schedule_at(1.5, lambda: probe.append(len(det.detections)))
    sim.run(until=3.0)
    det.stop()
    assert probe == [1]
    assert len(det.detection_latencies()) == 1


@pytest.mark.parametrize("cls", [OnlineVectorStrobeDetector, OnlineScalarStrobeDetector])
def test_frontier_snapshot_size_is_independent_of_stream_length(rec, cls):
    """Released records leave the snapshot: its JSON stays the size of
    the pending state, however many records were fed.  The largest
    snapshot over the 100 records up to 500 and up to 4000 fed differ
    only by a few stamps' worth of digits."""
    sim = Simulator()
    det = cls(sim, occupancy(), {"x": 0, "y": 0}, delta=0.05)
    det.start()
    counts = [0, 0]
    largest = {500: 0, 4000: 0}
    for k in range(1, 4001):
        pid = k % 2
        counts[pid] += 1
        sim.run(until=k * 0.01)
        det.feed(rec(pid, "xy"[pid], k % 4, true_time=k * 0.01,
                     vector=tuple(counts), scalar=k))
        for end in largest:
            if end - 100 < k <= end:
                size = len(json.dumps(det.frontier_snapshot(), sort_keys=True))
                largest[end] = max(largest[end], size)
    assert len(det.store) == 4000
    assert largest[4000] <= largest[500] + 256, largest


@pytest.mark.parametrize("cls", [OnlineVectorStrobeDetector, OnlineScalarStrobeDetector])
def test_released_and_late_records_leave_arrivals(rec, cls):
    """Arrival times are kept for pending and new records only; the
    snapshot's tails still describe the whole store."""
    sim = Simulator()
    det = cls(sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.05)
    det.start()
    for k in (1, 2, 3):
        det.feed(rec(0, "x", k, true_time=0.0, vector=(k, 0), scalar=k))
    sim.run(until=1.0)
    det.feed(rec(1, "y", 1, true_time=0.0, vector=(0, 1), scalar=1))  # sorts first
    sim.run(until=1.2)
    assert det.late_records == 1
    det.feed(rec(0, "x", 4, true_time=1.2, vector=(4, 0), scalar=4))
    assert list(det._arrivals) == [(0, 4)]
    snap = det.frontier_snapshot()
    assert snap["arrivals"] == [[0, 4, 1.2]]
    assert snap["record_keys_tail"] == [list(k) for k in sorted(r.key() for r in det.store.all())]
    if cls is OnlineVectorStrobeDetector:
        whole_store = VectorStrobeDetector._linearization_tail(det)
        assert snap["linearization_tail"] == list(whole_store) == [4, 0, 4]


@pytest.mark.parametrize("cls", [OnlineVectorStrobeDetector, OnlineScalarStrobeDetector])
def test_backlog_excludes_released_and_late_records(rec, cls):
    """``detect.backlog`` counts stored records neither released nor
    dropped as late: one late record, then finalize, leaves it at 0."""
    sim = Simulator()
    det = cls(sim, occupancy(), {"x": 0, "y": 0}, delta=0.1, check_period=0.05)
    registry = MetricsRegistry()
    det.bind_observer(Observability(registry=registry))
    det.start()
    for k in (1, 2, 3):
        det.feed(rec(0, "x", k, true_time=0.0, vector=(k, 0), scalar=k))
    sim.run(until=1.0)
    det.feed(rec(1, "y", 1, true_time=0.0, vector=(0, 1), scalar=1))  # sorts first
    sim.run(until=1.2)
    assert det.late_records == 1
    assert registry.gauge("detect.backlog").value == 0
    det.feed(rec(0, "x", 4, true_time=1.2, vector=(4, 0), scalar=4))
    det.flush()
    assert registry.gauge("detect.backlog").value == 1
    det.finalize()
    assert registry.gauge("detect.backlog").value == 0
    assert registry.counter("detect.processed").value == 4
    assert registry.counter("detect.late_records").value == 1
