"""Failure injection: crashed sensors, partitions, strobe thinning."""

import pytest

from repro.analysis.metrics import BorderlinePolicy, match_detections
from repro.core.process import ClockConfig, SensorProcess
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay, SynchronousDelay
from repro.net.topology import DynamicTopology, Topology
from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig


# ---------------------------------------------------------------------------
# Crash (fail-stop)
# ---------------------------------------------------------------------------

def test_crashed_sensor_stops_sensing_and_strobing():
    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.strobes()))
    s.world.create("obj", v=0)
    s.processes[0].track("v", "obj", "v", initial=0)
    s.world.set_attribute("obj", "v", 1)
    s.run()
    assert s.processes[0].variables["v"] == 1
    msgs_before = s.net.stats.control_messages

    s.processes[0].crash()
    assert s.processes[0].crashed
    s.world.set_attribute("obj", "v", 2)
    s.run()
    # Variable frozen; no further strobes.
    assert s.processes[0].variables["v"] == 1
    assert s.net.stats.control_messages == msgs_before
    assert s.processes[0].on_sense("v", 99) is None


def test_crashed_process_ignores_messages():
    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.strobes()))
    s.world.create("obj", v=0)
    s.processes[1].track("v", "obj", "v", initial=0)
    s.processes[0].crash()
    s.world.set_attribute("obj", "v", 1)   # p1 strobes; p0 is dead
    s.run()
    assert s.processes[0].strobe_vector.read().as_tuple() == (0, 0)


def test_crashed_process_cannot_send():
    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.strobes()))
    s.processes[0].crash()
    assert s.processes[0].send_app(1, "ping") is None
    s.run()
    assert s.net.stats.app_messages == 0


def test_detection_survives_one_door_crash():
    """Crash one door sensor mid-run: its counts freeze at the
    observer, accuracy degrades, but the system keeps detecting."""
    cfg = ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=3.0, mean_dwell=3.0, seed=2,
        delay=DeltaBoundedDelay(0.1), clocks=ClockConfig(strobe_vector=True),
    )
    hall = ExhibitionHall(cfg)
    det = VectorStrobeDetector(hall.predicate, hall.initials)
    hall.attach_detector(det)
    hall.system.sim.schedule_at(40.0, hall.system.processes[2].crash)
    hall.run(120.0)
    out = det.finalize()
    # Detections continue after the crash (driven by other doors).
    assert any(d.trigger.true_time > 40.0 for d in out)
    # No records from the dead sensor after the crash.
    dead = [r for r in det.store.all() if r.pid == 2 and r.true_time > 40.0]
    assert dead == []


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def test_partition_isolates_and_heals():
    topo = DynamicTopology(Topology.complete(2))
    s = PervasiveSystem(
        SystemConfig(n_processes=2, clocks=ClockConfig.strobes()),
        topology=topo,
    )
    s.world.create("obj", v=0)
    s.processes[0].track("v", "obj", "v", initial=0)

    topo.remove_edge(0, 1)
    s.world.set_attribute("obj", "v", 1)
    s.run()
    assert s.processes[1].strobe_vector.read()[0] == 0
    assert s.net.stats.dropped_partition == 1

    topo.add_edge(0, 1)
    s.world.set_attribute("obj", "v", 2)
    s.run()
    # Healed: the next strobe carries the full clock (merge heals all).
    assert s.processes[1].strobe_vector.read()[0] == 2


# ---------------------------------------------------------------------------
# Strobe thinning (strobe_every = k)
# ---------------------------------------------------------------------------

def test_strobe_every_validation():
    s = PervasiveSystem(SystemConfig(n_processes=2))
    with pytest.raises(ValueError):
        SensorProcess(4, 6, s.sim, s.net, s.world, strobe_every=0)


def test_strobe_every_k_thins_broadcasts():
    s = PervasiveSystem(SystemConfig(
        n_processes=2, clocks=ClockConfig(strobe_vector=True), strobe_every=3,
    ))
    s.world.create("obj", v=0)
    s.processes[0].track("v", "obj", "v", initial=0)
    for k in range(1, 10):      # 9 sense events
        s.world.set_attribute("obj", "v", k)
    s.run()
    # Broadcasts at sense seq 3, 6, 9 -> 3 broadcasts × 1 receiver.
    assert s.net.stats.control_messages == 3
    # The clock still ticked for every event.
    assert s.processes[0].strobe_vector.read()[0] == 9


def test_strobe_thinning_trades_accuracy_for_cost():
    """More thinning → fewer control messages and no better recall."""
    def run(k):
        cfg = ExhibitionHallConfig(
            doors=3, capacity=8, arrival_rate=3.0, mean_dwell=3.0, seed=4,
            delay=SynchronousDelay(0.0), clocks=ClockConfig(strobe_vector=True),
        )
        # Per-scenario override of strobe_every via the system config.
        object.__setattr__(cfg, "seed", 4)
        hall = ExhibitionHall(cfg)
        for p in hall.system.processes:
            p._strobe_every = k
        det = VectorStrobeDetector(hall.predicate, hall.initials)
        hall.attach_detector(det)
        hall.run(90.0)
        truth = hall.oracle().true_intervals(
            hall.system.world.ground_truth, t_end=90.0
        )
        r = match_detections(truth, det.finalize(),
                             policy=BorderlinePolicy.AS_POSITIVE)
        return r.recall, hall.system.net.stats.control_messages

    recall_1, msgs_1 = run(1)
    recall_4, msgs_4 = run(4)
    assert msgs_4 < msgs_1
    assert recall_4 <= recall_1 + 1e-9
