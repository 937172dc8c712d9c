"""Tests for multi-hop strobe flooding."""

import pytest

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.net.delay import DeltaBoundedDelay, SynchronousDelay
from repro.net.topology import Topology


def build(topology, transport="flood", delay=None, n=None):
    n = n or topology.n
    cfg = SystemConfig(
        n_processes=n,
        seed=0,
        delay=delay or SynchronousDelay(0.01),
        clocks=ClockConfig(strobe_vector=True),
        strobe_transport=transport,
    )
    s = PervasiveSystem(cfg, topology=topology)
    s.world.create("obj", level=0)
    s.processes[0].track("v", "obj", "level", initial=0)
    return s


def test_invalid_transport_rejected():
    s = build(Topology.complete(2))
    from repro.core.process import SensorProcess
    with pytest.raises(ValueError):
        SensorProcess(5, 6, s.sim, s.net, s.world, strobe_transport="carrier-pigeon")


def test_flood_reaches_all_nodes_on_ring():
    """A strobe floods hop-by-hop around a ring to every process."""
    s = build(Topology.ring(6))
    s.world.set_attribute("obj", "level", 1)
    s.run()
    for p in s.processes:
        assert p.strobe_vector.read()[0] == 1, f"p{p.pid} missed the strobe"


def test_flood_listener_fires_once_despite_duplicates():
    """On a cycle, copies arrive via both directions; listeners fire once."""
    s = build(Topology.ring(4))
    seen = []
    s.processes[2].add_strobe_listener(lambda r: seen.append(r.key()))
    s.world.set_attribute("obj", "level", 1)
    s.run()
    assert len(seen) == 1


def test_flood_hop_latency_scales_with_distance():
    """Per-hop constant delay: node at distance d gets the strobe at ~d·hop."""
    hop = 0.01
    s = build(Topology.ring(8), delay=SynchronousDelay(hop))
    arrivals = {}
    for p in s.processes[1:]:
        p.add_strobe_listener(lambda r, pid=p.pid: arrivals.setdefault(pid, s.sim.now))
    s.world.set_attribute("obj", "level", 1)
    s.run()
    for pid, t in arrivals.items():
        dist = min(pid, 8 - pid)
        assert t == pytest.approx(dist * hop), f"p{pid}"


def test_flood_message_count_bounded_by_edges():
    """Flooding sends at most 2·|E| copies per record (each node
    forwards once over each incident edge)."""
    topo = Topology.grid(3, 3)
    s = build(topo)
    s.world.set_attribute("obj", "level", 1)
    s.run()
    assert s.net.stats.control_messages <= 2 * len(topo.edges())
    assert s.net.stats.control_messages >= len(topo.edges())


def test_overlay_transport_unchanged_message_count():
    s = build(Topology.ring(6), transport="overlay")
    s.world.set_attribute("obj", "level", 1)
    s.run()
    # Overlay broadcast: one copy per other endpoint.
    assert s.net.stats.control_messages == 5


def test_flood_effective_delta_is_diameter_times_hop():
    """On a line-ish topology with Δ-bounded hops, total strobe delay
    stays below diameter × per-hop Δ."""
    topo = Topology.ring(10)
    s = build(topo, delay=DeltaBoundedDelay(0.05))
    arrivals = {}
    for p in s.processes[1:]:
        p.add_strobe_listener(lambda r, pid=p.pid: arrivals.setdefault(pid, s.sim.now))
    s.world.set_attribute("obj", "level", 1)
    s.run()
    diameter = 5
    assert len(arrivals) == 9
    assert max(arrivals.values()) <= diameter * 0.05 + 1e-9


def test_flood_on_disconnected_topology_partial_coverage():
    import networkx as nx
    g = nx.Graph()
    g.add_edges_from([(0, 1), (2, 3)])
    s = build(Topology(g), n=4)
    s.world.set_attribute("obj", "level", 1)
    s.run()
    assert s.processes[1].strobe_vector.read()[0] == 1
    assert s.processes[2].strobe_vector.read()[0] == 0
    assert s.processes[3].strobe_vector.read()[0] == 0
