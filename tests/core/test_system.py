"""Tests for the PervasiveSystem quadruple wiring."""

import pytest

from repro.clocks.physical import DriftModel
from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.net.delay import DeltaBoundedDelay
from repro.net.topology import Topology


def test_constructs_all_four_planes():
    s = PervasiveSystem(SystemConfig(n_processes=3, seed=1))
    assert len(s.processes) == 3                   # P
    assert s.net.topology.n == 3                   # L
    assert s.world is not None                     # O
    ch = s.add_covert_channel(propagation_delay=1.0)   # C
    assert s.covert_channels == [ch]
    assert s.root is s.processes[0]
    assert s.n == 3


def test_invalid_process_count():
    with pytest.raises(ValueError):
        PervasiveSystem(SystemConfig(n_processes=0))


def test_custom_topology():
    s = PervasiveSystem(
        SystemConfig(n_processes=4), topology=Topology.star(4)
    )
    assert s.net.topology.neighbors(0) == [1, 2, 3]


def test_physical_clocks_sampled_per_process():
    s = PervasiveSystem(SystemConfig(
        n_processes=3, clocks=ClockConfig(physical=True),
        max_offset=0.1, max_drift_ppm=100.0,
    ))
    clocks = s.physical_clocks()
    offsets = [c.model.offset for c in clocks]
    assert len(set(offsets)) == 3        # distinct draws
    assert all(abs(o) <= 0.1 for o in offsets)


def test_fixed_drift_model_applied_uniformly():
    s = PervasiveSystem(SystemConfig(
        n_processes=2, clocks=ClockConfig(physical=True),
        drift=DriftModel(offset=0.01, drift_ppm=5.0),
    ))
    for c in s.physical_clocks():
        assert c.model.offset == 0.01


def test_physical_clocks_raises_when_not_configured():
    s = PervasiveSystem(SystemConfig(n_processes=2))
    with pytest.raises(ValueError):
        s.physical_clocks()


def test_same_seed_same_run():
    def run(seed):
        s = PervasiveSystem(SystemConfig(
            n_processes=2, seed=seed, delay=DeltaBoundedDelay(0.3),
        ))
        s.world.create("room", temp=20)
        s.processes[0].track("temp", "room", "temp", initial=20)
        arrivals = []
        s.processes[1].add_strobe_listener(lambda r: arrivals.append(s.sim.now))
        for i in range(10):
            s.sim.schedule_at(float(i), lambda i=i: s.world.set_attribute("room", "temp", 30 + i))
        s.run()
        return arrivals
    assert run(5) == run(5)
    assert run(5) != run(6)


def test_quadruple_end_to_end_sense_respond_loop():
    """The generic §2.1 loop: sense -> communicate -> evaluate -> actuate."""
    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.everything(),
                                     drift=DriftModel.ideal()))
    s.world.create("room", temp=20, motion=False)
    s.world.create("ac", on=False)
    p0, p1 = s.processes
    p0.track("temp", "room", "temp", initial=20)
    p1.track("motion", "room", "motion", initial=False)

    # Root evaluates φ = motion ∧ temp>30 on strobe-carried records and actuates.
    state = {"temp": 20, "motion": False}
    def watch(rec):
        state[rec.var] = rec.value
        if state["motion"] and state["temp"] > 30:
            p0.actuate("ac", "on", True)
    p0.add_strobe_listener(watch)
    p0.add_record_listener(watch)

    s.sim.schedule_at(1.0, lambda: s.world.set_attribute("room", "temp", 32))
    s.sim.schedule_at(2.0, lambda: s.world.set_attribute("room", "motion", True))
    s.run()
    assert s.world.get("ac").get("on") is True
