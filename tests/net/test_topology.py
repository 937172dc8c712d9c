"""Tests for overlay topologies (networkx is the oracle)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import DynamicTopology, PartitionOverlay, Topology, TopologyError


def _nx_edges(g):
    """``g``'s edges as the sorted ``(a, b)``, ``a <= b`` pairs of
    :meth:`Topology.edges`."""
    return sorted(tuple(sorted(e)) for e in g.edges)


def _to_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(topo.nodes())
    g.add_edges_from(topo.edges())
    return g


def test_complete_graph_all_connected():
    t = Topology.complete(5)
    assert t.n == 5
    assert t.is_connected()
    for i in range(5):
        for j in range(5):
            if i != j:
                assert t.has_edge(i, j)


def test_ring_neighbors():
    t = Topology.ring(5)
    assert t.neighbors(0) == [1, 4]
    assert t.hop_distance(0, 2) == 2


def test_star_topology():
    t = Topology.star(5)
    assert t.neighbors(0) == [1, 2, 3, 4]
    assert t.neighbors(3) == [0]
    assert t.hop_distance(1, 2) == 2    # via hub


def test_star_custom_center():
    t = Topology.star(4, center=2)
    assert t.neighbors(2) == [0, 1, 3]


def test_grid():
    t = Topology.grid(2, 3)
    assert t.n == 6
    assert t.is_connected()


def test_random_geometric_deterministic():
    a = Topology.random_geometric(20, 0.5, np.random.default_rng(7))
    b = Topology.random_geometric(20, 0.5, np.random.default_rng(7))
    assert a.edges() == b.edges()


def test_connected_uses_paths_not_just_edges():
    t = Topology.ring(6)
    assert not t.has_edge(0, 3)
    assert t.connected(0, 3)


def test_connected_to_self():
    assert Topology.complete(2).connected(1, 1)


def test_empty_topology_rejected():
    with pytest.raises(TopologyError):
        Topology(nx.Graph())
    with pytest.raises(ValueError):
        Topology.complete(0)


def test_hop_distance_unreachable():
    g = nx.Graph()
    g.add_nodes_from([0, 1])
    t = Topology(g)
    assert t.hop_distance(0, 1) == -1
    assert not t.connected(0, 1)


def test_dynamic_churn_flips_edges():
    t = DynamicTopology(Topology.complete(6))
    rng = np.random.default_rng(1)
    before = set(t.edges())
    flipped = t.churn(rng, flip_fraction=0.2)
    after = set(t.edges())
    assert flipped == 3        # 15 pairs * 0.2
    assert before != after
    assert t.epoch == 1


def test_dynamic_churn_zero_fraction():
    t = DynamicTopology(Topology.complete(4))
    assert t.churn(np.random.default_rng(0), flip_fraction=0.0) == 0
    assert t.epoch == 1


def test_dynamic_churn_validation():
    t = DynamicTopology(Topology.complete(3))
    with pytest.raises(ValueError):
        t.churn(np.random.default_rng(0), flip_fraction=1.5)


def test_dynamic_add_remove_edge():
    t = DynamicTopology(Topology.ring(4))
    t.add_edge(0, 2)
    assert t.has_edge(0, 2)
    t.remove_edge(0, 2)
    assert not t.has_edge(0, 2)
    t.remove_edge(0, 2)   # idempotent


def test_dynamic_does_not_mutate_source_graph():
    base = Topology.complete(4)
    t = DynamicTopology(base)
    t.remove_edge(0, 1)
    assert base.has_edge(0, 1)


# ---------------------------------------------------------------------------
# Factories and churn against networkx
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_complete_ring_star_match_networkx(n):
    assert Topology.complete(n).edges() == _nx_edges(nx.complete_graph(n))
    assert Topology.ring(n).edges() == _nx_edges(nx.cycle_graph(n))
    assert Topology.star(n).edges() == _nx_edges(nx.star_graph(n - 1))
    for center in range(n):
        star = nx.relabel_nodes(nx.star_graph(n - 1), {0: center, center: 0})
        t = Topology.star(n, center=center)
        assert t.nodes() == list(range(n))
        assert t.edges() == _nx_edges(star)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 3), (4, 6)])
def test_grid_matches_networkx(rows, cols):
    want = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))
    t = Topology.grid(rows, cols)
    assert t.nodes() == sorted(want.nodes)
    assert t.edges() == _nx_edges(want)


def test_random_geometric_matches_networkx():
    """240 (seed, radius) cases: the edge set equals networkx's
    ``random_geometric_graph`` on the same positions."""
    n = 16
    for seed in range(40):
        for radius in (0.05, 0.15, 0.3, 0.45, 0.7, 1.5):
            rng = np.random.default_rng(seed)
            pos = {i: (float(rng.random()), float(rng.random())) for i in range(n)}
            want = nx.random_geometric_graph(n, radius, pos=pos)
            t = Topology.random_geometric(n, radius, np.random.default_rng(seed))
            assert t.nodes() == list(range(n))
            assert t.edges() == _nx_edges(want), (seed, radius)


def test_edges_are_sorted_pairs():
    t = Topology(nx.Graph([(3, 1), (2, 0), (1, 0)]))
    assert t.edges() == [(0, 1), (0, 2), (1, 3)]
    assert Topology(t).edges() == t.edges()


def test_fixed_seed_churn_sequence():
    """Seeded churn flips the same edges as the networkx-backed topology
    did: one ``rng.choice`` over the sorted node pairs per step."""
    t = DynamicTopology(Topology.ring(6))
    rng = np.random.default_rng(2026)
    flips = []
    for _ in range(4):
        before = set(t.edges())
        assert t.churn(rng, flip_fraction=0.25) == 4
        flips.append(sorted(before ^ set(t.edges())))
    assert flips == [
        [(0, 1), (0, 3), (2, 3), (2, 4)],
        [(0, 5), (1, 5), (3, 4), (3, 5)],
        [(0, 3), (1, 5), (2, 3), (3, 4)],
        [(0, 5), (2, 3), (2, 5), (3, 4)],
    ]
    assert t.edges() == [(0, 5), (1, 2), (2, 4), (2, 5), (3, 5), (4, 5)]
    assert t.epoch == 4 and t.version == 4


# ---------------------------------------------------------------------------
# Version-cached reachability
# ---------------------------------------------------------------------------

def test_unknown_node_raises():
    t = Topology.ring(4)
    with pytest.raises(TopologyError):
        t.connected(0, 99)
    with pytest.raises(TopologyError):
        t.connected(99, 0)
    assert t.connected(99, 99)     # self-reachability needs no lookup
    for query in (lambda: t.hop_distance(0, 99), lambda: t.hop_distance(99, 0),
                  lambda: t.hop_distance(99, 99), lambda: t.neighbors(99)):
        with pytest.raises(TopologyError):
            query()
    assert not t.has_edge(0, 99)


def test_version_bumps_on_every_edge_change():
    t = DynamicTopology(Topology.ring(4))
    assert t.version == 0
    t.add_edge(0, 2)
    t.remove_edge(0, 2)
    assert t.version == 2
    t.remove_edge(0, 2)            # absent edge: nothing changed
    assert t.version == 2
    t.churn(np.random.default_rng(0), flip_fraction=0.5)
    assert t.version == 3


def test_partition_overlay_sees_edge_swap():
    """One edge removed and another added keeps the edge count: the
    overlay's residual component map must still be rebuilt."""
    t = DynamicTopology(nx.path_graph(4))
    overlay = PartitionOverlay(cut_edges=[(0, 1)])
    assert overlay.connected(t, 1, 3)
    t.remove_edge(2, 3)
    t.add_edge(0, 3)
    assert not overlay.connected(t, 1, 3)
    assert overlay.connected(t, 0, 3)


_MUTATION = st.one_of(
    st.tuples(st.just("churn"), st.integers(0, 2**16), st.floats(0.0, 0.5)),
    st.tuples(st.just("add"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("remove"), st.integers(0, 7), st.integers(0, 7)),
)


@st.composite
def _overlays(draw, n):
    style = draw(st.sampled_from(["none", "cut", "groups"]))
    if style == "none":
        return None
    if style == "cut":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return PartitionOverlay(cut_edges=draw(
            st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)
        ))
    label = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    groups = [[v for v in range(n) if label[v] == g] for g in range(3)]
    return PartitionOverlay.split(*[g for g in groups if g])


def _residual(topo, overlay):
    g = _to_nx(topo)
    if overlay is None:
        return g
    g.remove_edges_from([e for e in overlay.cut_edges if g.has_edge(*e)])
    if overlay.groups is not None:
        group = {v: i for i, gr in enumerate(overlay.groups) for v in gr}
        g.remove_edges_from([
            (a, b) for a, b in list(g.edges) if group.get(a, -1) != group.get(b, -1)
        ])
    return g


@given(
    n=st.integers(2, 8),
    p=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 2**16),
    mutations=st.lists(_MUTATION, max_size=8),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_reachability_matches_has_path(n, p, graph_seed, mutations, data):
    """Cached reachability, connectivity and hop distance equal
    networkx's on the current (residual) graph for every pair, after
    every mutation."""
    topo = DynamicTopology(nx.gnp_random_graph(n, p, seed=graph_seed))
    overlay = data.draw(_overlays(n))

    def check():
        g = _to_nx(topo)
        residual = _residual(topo, overlay)
        assert topo.is_connected() == nx.is_connected(g)
        for a in range(n):
            for b in range(n):
                want = nx.has_path(g, a, b)
                assert topo.connected(a, b) == want
                assert topo.hop_distance(a, b) == (
                    nx.shortest_path_length(g, a, b) if want else -1
                )
                if overlay is not None:
                    assert overlay.connected(topo, a, b) == nx.has_path(residual, a, b)

    check()
    for op, x, y in mutations:
        if op == "churn":
            topo.churn(np.random.default_rng(x), flip_fraction=y)
        elif x % n != y % n:
            (topo.add_edge if op == "add" else topo.remove_edge)(x % n, y % n)
        check()
