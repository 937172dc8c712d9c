"""Logical network overlays ``L`` (and, reused, world-plane overlays ``C``).

§2.1: "L is a dynamically changing graph."  :class:`Topology` wraps a
static networkx graph with the factory constructors the scenarios
need; :class:`DynamicTopology` adds seeded edge churn so experiments
can model mobility-induced link changes.

The transport layer consults the topology per delivery: a message is
deliverable iff the endpoints are currently connected (directly or —
for the overlay abstraction — via any path; the overlay hides
routing, matching the paper's "logical network overlay").  That check
runs once per message copy, so reachability is answered from a
node → component map cached per topology :attr:`~Topology.version`;
every edge mutation goes through :class:`DynamicTopology`, which bumps
the version.
"""

from __future__ import annotations

import networkx as nx
import numpy as np


def _component_index(g: nx.Graph) -> dict[int, int]:
    """Node → connected-component index of ``g``."""
    comp: dict[int, int] = {}
    for i, nodes in enumerate(nx.connected_components(g)):
        for node in nodes:
            comp[node] = i
    return comp


class Topology:
    """A (static) logical overlay graph over integer node ids.

    The graph must not be mutated behind the topology's back: edge
    changes go through :class:`DynamicTopology`, which bumps
    :attr:`version` so cached reachability is recomputed.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("topology needs at least one node")
        self._g = graph
        self._version = 0
        self._comp: dict[int, int] = {}
        self._comp_version = -1

    # -- factories ------------------------------------------------------
    @classmethod
    def complete(cls, n: int) -> "Topology":
        """Fully connected overlay (the default for small sensornets)."""
        return cls(nx.complete_graph(n))

    @classmethod
    def ring(cls, n: int) -> "Topology":
        return cls(nx.cycle_graph(n))

    @classmethod
    def star(cls, n: int, center: int = 0) -> "Topology":
        """Hub-and-spoke: the distinguished root process P0 pattern (§2.1)."""
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((center, i) for i in range(n) if i != center)
        return cls(g)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))
        return cls(g)

    @classmethod
    def random_geometric(
        cls, n: int, radius: float, rng: np.random.Generator
    ) -> "Topology":
        """Unit-square random geometric graph — the standard WSN
        deployment model."""
        pos = {i: (float(rng.random()), float(rng.random())) for i in range(n)}
        g = nx.random_geometric_graph(n, radius, pos=pos)
        return cls(g)

    # -- queries --------------------------------------------------------
    @property
    def n(self) -> int:
        return self._g.number_of_nodes()

    @property
    def graph(self) -> nx.Graph:
        return self._g

    @property
    def version(self) -> int:
        """Edge-mutation counter; caches derived from the graph key on it."""
        return self._version

    def nodes(self) -> list[int]:
        return sorted(self._g.nodes)

    def neighbors(self, node: int) -> list[int]:
        return sorted(self._g.neighbors(node))

    def has_edge(self, a: int, b: int) -> bool:
        return self._g.has_edge(a, b)

    def connected(self, a: int, b: int) -> bool:
        """True iff a path exists between a and b (overlay reachability).

        O(1) per call against the component map of the current version;
        an unknown node raises :class:`networkx.NodeNotFound`."""
        if a == b:
            return True
        if self._comp_version != self._version:
            self._comp = _component_index(self._g)
            self._comp_version = self._version
        ca, cb = self._comp.get(a), self._comp.get(b)
        if ca is None or cb is None:
            raise nx.NodeNotFound(f"Either source {a} or target {b} is not in G")
        return ca == cb

    def is_connected(self) -> bool:
        return nx.is_connected(self._g)

    def hop_distance(self, a: int, b: int) -> int:
        """Shortest-path hops, or -1 if unreachable."""
        try:
            return int(nx.shortest_path_length(self._g, a, b))
        except nx.NetworkXNoPath:
            return -1


class DynamicTopology(Topology):
    """Topology with seeded random edge churn.

    ``churn(rng, flip_fraction)`` toggles a random fraction of all
    possible edges (adds absent ones, drops present ones), modelling
    mobility-induced link changes.  Node set is fixed.
    """

    def __init__(self, graph: nx.Graph) -> None:
        super().__init__(graph.copy())
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Number of churn steps applied."""
        return self._epoch

    def churn(self, rng: np.random.Generator, flip_fraction: float = 0.05) -> int:
        """Toggle ~``flip_fraction`` of all node pairs; returns the
        number of edges flipped."""
        if not 0.0 <= flip_fraction <= 1.0:
            raise ValueError(f"flip_fraction must be in [0,1], got {flip_fraction}")
        nodes = self.nodes()
        n = len(nodes)
        pairs = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
        k = int(round(flip_fraction * len(pairs)))
        if k == 0:
            self._epoch += 1
            return 0
        idx = rng.choice(len(pairs), size=k, replace=False)
        flipped = 0
        for i in idx:
            a, b = pairs[int(i)]
            if self._g.has_edge(a, b):
                self._g.remove_edge(a, b)
            else:
                self._g.add_edge(a, b)
            flipped += 1
        self._epoch += 1
        self._version += 1
        return flipped

    def remove_edge(self, a: int, b: int) -> None:
        if self._g.has_edge(a, b):
            self._g.remove_edge(a, b)
            self._version += 1

    def add_edge(self, a: int, b: int) -> None:
        self._g.add_edge(a, b)
        self._version += 1


class PartitionOverlay:
    """A temporary severing of overlay links — the fault-injection view
    of §2.1's "L is a dynamically changing graph".

    Unlike :class:`DynamicTopology` churn, an overlay never mutates the
    underlying topology: the :class:`~repro.net.transport.Network`
    installs one for the fault window and removes it on heal, so the
    pre-fault graph is restored exactly.  Two specification styles:

    * group-based — ``PartitionOverlay.split([0, 1], [2, 3])``: nodes
      in different groups cannot communicate (nodes absent from every
      group form one implicit extra group);
    * edge-based — ``PartitionOverlay(cut_edges=[(0, 1)])``: the listed
      links are severed and reachability is recomputed on the residual
      graph (multi-hop detours still deliver).
    """

    def __init__(
        self,
        cut_edges: "object" = (),
        groups: "object | None" = None,
    ) -> None:
        self._cut = frozenset(
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in cut_edges  # type: ignore[union-attr]
        )
        if groups is None:
            self._groups: tuple[frozenset, ...] | None = None
        else:
            gs = tuple(frozenset(int(x) for x in g) for g in groups)  # type: ignore[union-attr]
            seen: set[int] = set()
            for g in gs:
                if seen & g:
                    raise ValueError(f"partition groups overlap: {sorted(seen & g)}")
                seen |= g
            self._groups = gs
        self._group_index = {
            node: i for i, g in enumerate(self._groups or ()) for node in g
        }
        # Residual component map, cached for one (topology, version).
        self._cache_topo: Topology | None = None
        self._cache_version = -1
        self._components: dict[int, int] = {}

    @classmethod
    def split(cls, *groups) -> "PartitionOverlay":
        """Group-based partition: ``split([0, 1], [2, 3])``."""
        return cls(groups=groups)

    @property
    def cut_edges(self) -> frozenset:
        return self._cut

    @property
    def groups(self) -> "tuple[frozenset, ...] | None":
        return self._groups

    def _group_of(self, node: int) -> int:
        return self._group_index.get(node, -1)  # -1: "everyone else"

    def _component_map(self, topo: Topology) -> dict[int, int]:
        if topo is not self._cache_topo or topo.version != self._cache_version:
            g = topo.graph.copy()
            for a, b in self._cut:
                if g.has_edge(a, b):
                    g.remove_edge(a, b)
            if self._groups is not None:
                for a, b in list(g.edges):
                    if self._group_of(int(a)) != self._group_of(int(b)):
                        g.remove_edge(a, b)
            self._components = _component_index(g)
            self._cache_topo = topo
            self._cache_version = topo.version
        return self._components

    def connected(self, topo: Topology, a: int, b: int) -> bool:
        """Reachability under this overlay, on top of ``topo``.

        Group separation is already in the residual graph (cross-group
        edges are removed), so one component lookup answers both
        overlay styles."""
        if a == b:
            return True
        comp = self._component_map(topo)
        ca, cb = comp.get(a), comp.get(b)
        return ca is not None and ca == cb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._groups is not None:
            return f"PartitionOverlay(groups={[sorted(g) for g in self._groups]})"
        return f"PartitionOverlay(cut_edges={sorted(self._cut)})"


__all__ = ["Topology", "DynamicTopology", "PartitionOverlay"]
