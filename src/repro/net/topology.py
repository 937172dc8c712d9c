"""Logical network overlays ``L`` (and, reused, world-plane overlays ``C``).

§2.1: "L is a dynamically changing graph."  :class:`Topology` holds a
static graph as a node → neighbour-set map, with the factory
constructors the scenarios need; :class:`DynamicTopology` adds seeded
edge churn so experiments can model mobility-induced link changes.

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

from itertools import combinations
from typing import Any, Iterable, NamedTuple

import numpy as np

#: Node → set of neighbours; every edge is stored in both directions.
Adjacency = dict[int, set[int]]


class TopologyError(ValueError):
    """Raised on an empty topology or a query about an unknown node."""


class _Graph(NamedTuple):
    """The ``nodes`` / ``edges`` pair :class:`Topology` is built from."""

    nodes: Iterable[int]
    edges: Iterable[tuple[int, int]]


def _adjacency(nodes: Iterable[int], edges: Iterable[Any]) -> Adjacency:
    """Adjacency map of a graph; an edge endpoint missing from
    ``nodes`` becomes a node."""
    adj: Adjacency = {node: set() for node in nodes}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _component_index(adj: Adjacency) -> dict[int, int]:
    """Node → connected-component index of ``adj``."""
    comp: dict[int, int] = {}
    index = 0
    for start in adj:
        if start in comp:
            continue
        comp[start] = index
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp[v] = index
                    stack.append(v)
        index += 1
    return comp


def _items(source: Any, name: str) -> Iterable[Any]:
    """``source.<name>``, called if it is a method (a :class:`Topology`)
    and iterated as-is otherwise (a networkx view, a :class:`_Graph`)."""
    attr = getattr(source, name)
    return attr() if callable(attr) else attr


class Topology:
    """A (static) logical overlay graph over integer node ids.

    ``graph`` is any object exposing ``nodes`` and ``edges`` — another
    topology, or a networkx graph — and is copied, never aliased.
    Edge changes go through :class:`DynamicTopology`, which bumps
    :attr:`version` so cached reachability is recomputed.
    """

    def __init__(self, graph: Any) -> None:
        self._adj = _adjacency(_items(graph, "nodes"), _items(graph, "edges"))
        if not self._adj:
            raise TopologyError("topology needs at least one node")
        self._version = 0
        self._comp: dict[int, int] = {}
        self._comp_version = -1

    # -- factories ------------------------------------------------------
    @classmethod
    def complete(cls, n: int) -> "Topology":
        """Fully connected overlay (the default for small sensornets)."""
        return cls(_Graph(range(n), combinations(range(n), 2)))

    @classmethod
    def ring(cls, n: int) -> "Topology":
        return cls(_Graph(range(n), ((i, (i + 1) % n) for i in range(n))))

    @classmethod
    def star(cls, n: int, center: int = 0) -> "Topology":
        """Hub-and-spoke: the distinguished root process P0 pattern (§2.1)."""
        return cls(_Graph(range(n), ((center, i) for i in range(n) if i != center)))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """``rows`` × ``cols`` lattice; cell (r, c) is node ``r * cols + c``."""
        edges = [(r * cols + c, r * cols + c + 1)
                 for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c)
                  for r in range(rows - 1) for c in range(cols)]
        return cls(_Graph(range(rows * cols), edges))

    @classmethod
    def random_geometric(
        cls, n: int, radius: float, rng: np.random.Generator
    ) -> "Topology":
        """Unit-square random geometric graph — the standard WSN
        deployment model: nodes within Euclidean ``radius`` are linked."""
        pos = [(float(rng.random()), float(rng.random())) for _ in range(n)]
        r2 = radius ** 2
        edges = (
            (i, j) for i, j in combinations(range(n), 2)
            if sum((a - b) ** 2 for a, b in zip(pos[i], pos[j])) <= r2
        )
        return cls(_Graph(range(n), edges))

    # -- queries --------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def version(self) -> int:
        """Edge-mutation counter; caches derived from the graph key on it."""
        return self._version

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once, as a sorted ``(a, b)`` pair with ``a <= b``
        (``a == b`` only for a self-loop, as in ``ring(1)``)."""
        return sorted((a, b) for a, nbrs in self._adj.items() for b in nbrs if a <= b)

    def neighbors(self, node: int) -> list[int]:
        try:
            return sorted(self._adj[node])
        except KeyError:
            raise TopologyError(f"node {node} is not in the topology") from None

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def _components(self) -> dict[int, int]:
        if self._comp_version != self._version:
            self._comp = _component_index(self._adj)
            self._comp_version = self._version
        return self._comp

    def connected(self, a: int, b: int) -> bool:
        """True iff a path exists between a and b (overlay reachability).

        O(1) per call against the component map of the current version;
        an unknown node raises :class:`TopologyError`."""
        if a == b:
            return True
        comp = self._components()
        ca, cb = comp.get(a), comp.get(b)
        if ca is None or cb is None:
            raise TopologyError(f"either source {a} or target {b} is not in the topology")
        return ca == cb

    def is_connected(self) -> bool:
        return len(set(self._components().values())) == 1

    def hop_distance(self, a: int, b: int) -> int:
        """Shortest-path hops (breadth-first), or -1 if unreachable."""
        adj = self._adj
        if a not in adj or b not in adj:
            raise TopologyError(f"either source {a} or target {b} is not in the topology")
        seen = {a}
        frontier = [a]
        hops = 0
        while frontier:
            if b in seen:
                return hops
            hops += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return -1


class DynamicTopology(Topology):
    """Topology with seeded random edge churn.

    ``churn(rng, flip_fraction)`` toggles a random fraction of all
    possible edges (adds absent ones, drops present ones), modelling
    mobility-induced link changes.  Node set is fixed.
    """

    def __init__(self, graph: Any) -> None:
        super().__init__(graph)
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
        pairs = list(combinations(self.nodes(), 2))
        k = int(round(flip_fraction * len(pairs)))
        if k == 0:
            self._epoch += 1
            return 0
        idx = rng.choice(len(pairs), size=k, replace=False)
        for i in idx:
            a, b = pairs[int(i)]
            self._adj[a] ^= {b}
            self._adj[b] ^= {a}
        self._epoch += 1
        self._version += 1
        return k

    def remove_edge(self, a: int, b: int) -> None:
        if self.has_edge(a, b):
            self._adj[a].discard(b)
            self._adj[b].discard(a)
            self._version += 1

    def add_edge(self, a: int, b: int) -> None:
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)
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
            residual = [
                (a, b) for a, b in topo.edges()
                if (a, b) not in self._cut
                and (self._groups is None or self._group_of(a) == self._group_of(b))
            ]
            self._components = _component_index(_adjacency(topo.nodes(), residual))
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


__all__ = ["Topology", "DynamicTopology", "PartitionOverlay", "TopologyError"]
