"""Tests for the event-driven message transport."""

import numpy as np
import pytest

from repro.net.delay import DeltaBoundedDelay, SynchronousDelay, UnboundedDelay
from repro.net.loss import BernoulliLoss
from repro.net.message import Message
from repro.net.topology import DynamicTopology, Topology
from repro.net.transport import Network, TransportError
from repro.sim.kernel import Simulator


def make_net(n=3, **kw):
    sim = Simulator()
    net = Network(sim, Topology.complete(n), rng=np.random.default_rng(0), **kw)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.register(i, lambda m, i=i: inboxes[i].append(m))
    return sim, net, inboxes


def test_send_delivers_with_zero_delay():
    sim, net, inboxes = make_net()
    net.send(0, 1, "hello", payload=42)
    sim.run()
    assert len(inboxes[1]) == 1
    m = inboxes[1][0]
    assert (m.src, m.dst, m.kind, m.payload) == (0, 1, "hello", 42)
    assert inboxes[0] == [] and inboxes[2] == []


def test_send_samples_delay():
    sim, net, inboxes = make_net(delay=DeltaBoundedDelay(0.5))
    times = []
    net._endpoints[1] = lambda m: times.append(sim.now)
    net.send(0, 1, "x")
    sim.run()
    assert len(times) == 1
    assert 0.0 <= times[0] <= 0.5


def test_broadcast_reaches_all_others():
    sim, net, inboxes = make_net(n=4)
    msgs = net.broadcast(2, "strobe", control=True)
    sim.run()
    assert len(msgs) == 3
    assert len(inboxes[2]) == 0
    for i in (0, 1, 3):
        assert len(inboxes[i]) == 1
        assert inboxes[i][0].control


def test_broadcast_copies_have_independent_delays():
    sim, net, _ = make_net(n=5, delay=DeltaBoundedDelay(1.0))
    arrivals = {}
    for i in range(5):
        net._endpoints[i] = lambda m, i=i: arrivals.setdefault(i, sim.now)
    net.broadcast(0, "s")
    sim.run()
    assert len(set(arrivals.values())) > 1


def test_self_send_rejected():
    sim, net, _ = make_net()
    with pytest.raises(TransportError):
        net.send(1, 1, "x")


def test_unknown_destination_rejected():
    sim, net, _ = make_net()
    with pytest.raises(TransportError):
        net.send(0, 99, "x")


def test_double_register_rejected():
    sim, net, _ = make_net()
    with pytest.raises(TransportError):
        net.register(0, lambda m: None)


def test_register_requires_topology_node():
    sim = Simulator()
    net = Network(sim, Topology.complete(2))
    with pytest.raises(TransportError):
        net.register(7, lambda m: None)


def test_loss_drops_messages():
    sim, net, inboxes = make_net(loss=BernoulliLoss(1.0))
    net.send(0, 1, "x")
    sim.run()
    assert inboxes[1] == []
    assert net.stats.dropped_loss == 1
    assert net.stats.delivered == 0


def test_partition_drops_messages():
    sim = Simulator()
    topo = DynamicTopology(Topology.complete(2))
    net = Network(sim, topo, rng=np.random.default_rng(0))
    inbox = []
    net.register(0, lambda m: None)
    net.register(1, inbox.append)
    topo.remove_edge(0, 1)
    net.send(0, 1, "x")
    sim.run()
    assert inbox == []
    assert net.stats.dropped_partition == 1


def test_overlay_reachability_not_direct_edge():
    """Ring: 0 and 2 have no edge but are overlay-connected."""
    sim = Simulator()
    net = Network(sim, Topology.ring(4), rng=np.random.default_rng(0))
    inbox = []
    for i in range(4):
        net.register(i, inbox.append if i == 2 else (lambda m: None))
    net.send(0, 2, "x")
    sim.run()
    assert len(inbox) == 1


def test_stats_split_app_vs_control():
    sim, net, _ = make_net(n=3)
    net.send(0, 1, "report", size=4)
    net.broadcast(0, "strobe", size=3, control=True)
    sim.run()
    s = net.stats
    assert s.app_messages == 1 and s.app_units == 4
    assert s.control_messages == 2 and s.control_units == 6
    assert s.total_units == 10
    assert s.sent == 3 and s.delivered == 3


def test_record_delays_flag():
    sim, net, _ = make_net(delay=DeltaBoundedDelay(0.1), record_delays=True)
    net.send(0, 1, "x")
    sim.run()
    assert len(net.stats.delays) == 1


def test_delta_property_exposed():
    sim, net, _ = make_net(delay=DeltaBoundedDelay(0.25))
    assert net.delta == 0.25
    sim2, net2, _ = make_net(delay=UnboundedDelay(1.0))
    assert net2.delta == float("inf")


def test_fifo_not_guaranteed_under_random_delay():
    """Reordering is possible — receivers must not assume FIFO."""
    sim, net, _ = make_net(delay=DeltaBoundedDelay(1.0))
    order = []
    net._endpoints[1] = lambda m: order.append(m.payload)
    for k in range(20):
        net.send(0, 1, "x", payload=k)
    sim.run()
    assert sorted(order) == list(range(20))
    assert order != list(range(20))   # with this seed, reordering occurs


def test_message_seq_monotone():
    m1 = Message(0, 1, "a")
    m2 = Message(0, 1, "b")
    assert m2.seq > m1.seq
