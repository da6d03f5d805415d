"""Immutable undirected graphs with unique integer vertex identifiers.

This is the substrate of the whole reproduction.  The paper's model
(Section 2.1) assumes:

* ``G = (V, E)`` is undirected, with ``n`` vertices;
* each vertex has a distinct identifier in ``[0, n' - 1]`` where
  ``n' >= n`` and ``n' = n^{O(1)}``; agents know ``n'``;
* ``δ_G`` and ``Δ_G`` denote minimum and maximum degree;
* ``N(v)`` is the open neighborhood, ``N⁺(v) = N(v) ∪ {v}``.

Every :class:`StaticGraph` stores its adjacency one way: flat int64
CSR buffers over dense vertex indices (``offsets``, ``indices``) plus
a per-vertex degree array.  :class:`repro.runtime.plan.ExecutionPlan`
and :class:`repro.graphs.ports.PortLabeling` read those buffers
directly (see ``docs/performance.md``, "Instance pipeline").  They
arrive by one of two constructors:

* the **mapping constructor** takes user-supplied adjacency, validates
  it by default, and lays the sorted neighbor tuples out as CSR; the
  tuples stay as the ``{v: N(v)}`` view;
* :meth:`from_csr` adopts the buffers produced by
  :mod:`repro.graphs.build` zero-copy.  Every generator builds this
  way, and the tuple view materializes on first access.

The frozenset membership view materializes on first access either way.
Instances are immutable: algorithms never mutate the graph, only their
own state and the whiteboards.

Doctests in this module run under pytest via
``tests/graphs/test_graph_doctests.py``.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain
from typing import Iterator

from repro._typing import VertexId
from repro.errors import GraphError

__all__ = ["StaticGraph", "bfs_distance"]


class StaticGraph:
    """An immutable undirected graph with distinct integer vertex IDs.

    Parameters
    ----------
    adjacency:
        Mapping from vertex identifier to an iterable of neighbor
        identifiers.  Must be symmetric and free of self-loops.
    id_space:
        The size ``n'`` of the identifier space ``[0, n')``.  Defaults
        to ``max(vertex ids) + 1``.  The paper requires ``n' >= n`` and
        ``n' = n^{O(1)}``; agents are given ``n'`` but not ``n``.
    name:
        Optional human-readable name used in experiment reports.
    validate:
        When true (default), verify symmetry, loop-freeness and ID
        bounds; turn off only for internally-constructed graphs that
        are guaranteed valid.  An edge to a missing vertex raises
        either way, because it has no place in the CSR layout.

    Raises
    ------
    GraphError
        If validation fails.

    Examples
    --------
    >>> g = StaticGraph({0: [1], 1: [0, 2], 2: [1]})
    >>> g.n, g.edge_count, g.min_degree, g.max_degree
    (3, 2, 1, 2)
    >>> g.neighbors(1)
    (0, 2)
    >>> g.closed_neighbors(0)
    (0, 1)
    >>> 2 in g, g.has_edge(0, 2)
    (True, False)
    >>> g.distance(0, 2)
    2
    """

    __slots__ = (
        "_neighbors",
        "_neighbor_sets",
        "_vertices",
        "_id_space",
        "_min_degree",
        "_max_degree",
        "_edge_count",
        "name",
        "_csr_offsets",
        "_csr_indices",
        "_degrees",
    )

    def __init__(
        self,
        adjacency: Mapping[VertexId, Iterable[VertexId]],
        id_space: int | None = None,
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        neighbors: dict[VertexId, tuple[VertexId, ...]] = {}
        for vertex, adj in adjacency.items():
            neighbors[int(vertex)] = tuple(sorted(int(u) for u in adj))
        if not neighbors:
            raise GraphError("a graph must contain at least one vertex")

        self._neighbors = neighbors
        self._neighbor_sets = None
        vertices = tuple(sorted(neighbors))
        self._vertices = vertices
        max_id = vertices[-1]
        self._id_space = int(id_space) if id_space is not None else max_id + 1
        self.name = name or f"graph(n={len(vertices)})"
        if validate:
            self._validate(max_id)

        rows = [neighbors[v] for v in vertices]
        index_of = dict(zip(vertices, range(len(vertices))))
        try:
            indices = array("q", map(index_of.__getitem__, chain.from_iterable(rows)))
        except KeyError as missing:
            u = missing.args[0]
            vertex = next(v for v in vertices if u in neighbors[v])
            raise GraphError(
                f"edge ({vertex}, {u}) points outside the graph"
            ) from None
        degrees = array("q", map(len, rows))
        self._csr_offsets = array("q", chain((0,), accumulate(degrees)))
        self._csr_indices = indices
        self._degrees = degrees
        self._min_degree = min(degrees)
        self._max_degree = max(degrees)
        self._edge_count = len(indices) // 2

    @classmethod
    def from_csr(
        cls,
        offsets,
        indices,
        ids: Sequence[VertexId] | None = None,
        id_space: int | None = None,
        name: str | None = None,
        degrees=None,
        validate: bool = False,
    ) -> "StaticGraph":
        """Adopt flat CSR adjacency buffers zero-copy (the builder path).

        ``offsets``/``indices`` are int64 buffers (``array('q')`` or a
        shared-memory ``memoryview`` cast to ``'q'``): vertex ``i``'s
        neighbors — as *dense indices*, sorted ascending — occupy
        ``indices[offsets[i]:offsets[i + 1]]``.  ``ids`` maps dense
        indices to public identifiers (strictly ascending; default
        ``0 .. n-1``), which keeps "sorted by dense index" and "sorted
        by identifier" the same order.  ``degrees`` may be supplied
        when already available (shared-memory attach) to skip the
        O(n) derivation.

        The historical dict/tuple/frozenset views are **not** built
        here; they materialize lazily on first access, so pipelines
        that only ever compile an execution plan never pay for them.
        ``validate`` (off by default — builders guarantee validity by
        construction) materializes the views and runs the full
        structural check, exactly as the mapping constructor would.
        """
        n = len(offsets) - 1
        if n < 1:
            raise GraphError("a graph must contain at least one vertex")
        self = object.__new__(cls)
        if ids is None:
            vertices: tuple[VertexId, ...] = tuple(range(n))
        else:
            vertices = tuple(ids)
            if len(vertices) != n:
                raise GraphError(
                    f"{len(vertices)} identifiers for {n} CSR rows"
                )
        self._vertices = vertices
        self._csr_offsets = offsets
        self._csr_indices = indices
        if degrees is None:
            from itertools import islice
            from operator import sub

            degrees = array("q", map(sub, islice(offsets, 1, None), offsets))
        self._degrees = degrees
        self._neighbors = None
        self._neighbor_sets = None
        max_id = vertices[-1]
        self._id_space = int(id_space) if id_space is not None else max_id + 1
        self._min_degree = min(degrees)
        self._max_degree = max(degrees)
        self._edge_count = len(indices) // 2
        self.name = name or f"graph(n={n})"
        if validate:
            if len(set(vertices)) != n or any(
                a >= b for a, b in zip(vertices, vertices[1:])
            ):
                raise GraphError("CSR identifiers must be strictly ascending")
            self._validate(max_id)
        return self

    # ------------------------------------------------------------------
    # Lazy views over the CSR buffers
    # ------------------------------------------------------------------

    def _adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        """The ``{v: N(v)}`` table, materialized from CSR on first use."""
        neighbors = self._neighbors
        if neighbors is None:
            ids = self._vertices
            offsets = self._csr_offsets
            indices = self._csr_indices
            getter = ids.__getitem__
            neighbors = {}
            lo = 0
            for i, v in enumerate(ids):
                hi = offsets[i + 1]
                neighbors[v] = tuple(map(getter, indices[lo:hi]))
                lo = hi
            self._neighbors = neighbors
        return neighbors

    def _membership(self) -> dict[VertexId, frozenset[VertexId]]:
        """The ``{v: frozenset(N(v))}`` table, materialized on first use."""
        sets = self._neighbor_sets
        if sets is None:
            sets = {v: frozenset(adj) for v, adj in self._adjacency().items()}
            self._neighbor_sets = sets
        return sets

    def csr_adjacency(self) -> tuple:
        """The flat ``(offsets, indices)`` pair.

        Dense, sorted, int64 — the exact buffers
        :meth:`repro.runtime.plan.ExecutionPlan.compile` adopts
        zero-copy.  Treat as **read-only**.
        """
        return (self._csr_offsets, self._csr_indices)

    def degree_array(self):
        """Per-dense-vertex degrees as an int64 buffer (read-only)."""
        return self._degrees

    def _validate(self, max_id: VertexId) -> None:
        neighbors = self._adjacency()
        membership = self._membership()
        if self._vertices[0] < 0:
            raise GraphError("vertex identifiers must be non-negative")
        if max_id >= self._id_space:
            raise GraphError(
                f"vertex id {max_id} outside declared id space [0, {self._id_space})"
            )
        for vertex, adj in neighbors.items():
            if len(set(adj)) != len(adj):
                raise GraphError(f"duplicate edges at vertex {vertex}")
            if vertex in membership[vertex]:
                raise GraphError(f"self-loop at vertex {vertex}")
            for u in adj:
                if u not in membership:
                    raise GraphError(f"edge ({vertex}, {u}) points outside the graph")
                if vertex not in membership[u]:
                    raise GraphError(f"asymmetric edge ({vertex}, {u})")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices (the paper's ``n``)."""
        return len(self._vertices)

    @property
    def id_space(self) -> int:
        """Size ``n'`` of the identifier space ``[0, n')``."""
        return self._id_space

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        """All vertex identifiers in ascending order."""
        return self._vertices

    @property
    def min_degree(self) -> int:
        """The minimum degree ``δ_G``."""
        return self._min_degree

    @property
    def max_degree(self) -> int:
        """The maximum degree ``Δ_G``."""
        return self._max_degree

    @property
    def edge_count(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._edge_count

    def __contains__(self, vertex: VertexId) -> bool:
        # Containment only needs the key set — never force the
        # frozenset table into existence for a membership test.
        return vertex in self._adjacency()

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticGraph(name={self.name!r}, n={self.n}, m={self.edge_count}, "
            f"delta={self.min_degree}, Delta={self.max_degree}, n'={self.id_space})"
        )

    @property
    def neighbor_map(self) -> Mapping[VertexId, tuple[VertexId, ...]]:
        """The full adjacency table ``{v: N(v)}``, sorted per vertex.

        This is the graph's internal table, returned without copying so
        execution plans share its tuples as their ``nbr_ids`` rows —
        treat it as **read-only**; mutating it corrupts the graph.  On
        graphs built by :meth:`from_csr` the table materializes on first
        access and is cached.
        """
        return self._adjacency()

    def degree(self, vertex: VertexId) -> int:
        """Degree of ``vertex``."""
        return len(self._adjacency()[vertex])

    def neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Open neighborhood ``N(vertex)`` as a sorted tuple."""
        return self._adjacency()[vertex]

    def neighbor_set(self, vertex: VertexId) -> frozenset[VertexId]:
        """Open neighborhood ``N(vertex)`` as a frozenset."""
        return self._membership()[vertex]

    def closed_neighbors(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """Closed neighborhood ``N⁺(vertex) = N(vertex) ∪ {vertex}``, sorted."""
        return tuple(sorted(self._membership()[vertex] | {vertex}))

    def closed_neighbor_set(self, vertex: VertexId) -> frozenset[VertexId]:
        """Closed neighborhood ``N⁺(vertex)`` as a frozenset."""
        return self._membership()[vertex] | {vertex}

    def closed_neighborhood_of_set(self, vertices: Iterable[VertexId]) -> frozenset[VertexId]:
        """``N⁺(X) = N(X) ∪ X`` for a vertex set ``X`` (paper Section 2.1)."""
        membership = self._membership()
        result: set[VertexId] = set()
        for v in vertices:
            result.add(v)
            result.update(membership[v])
        return frozenset(result)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether ``(u, v)`` is an edge."""
        return v in self._membership()[u]

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """Iterate over undirected edges once each, as ``(u, v)`` with ``u < v``."""
        neighbors = self._adjacency()
        for u in self._vertices:
            for v in neighbors[u]:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[VertexId, VertexId]],
        vertices: Iterable[VertexId] | None = None,
        id_space: int | None = None,
        name: str | None = None,
    ) -> "StaticGraph":
        """Build a graph from an edge list (plus optional isolated vertices).

        >>> triangle = StaticGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        >>> sorted(triangle.edges())
        [(0, 1), (0, 2), (1, 2)]
        >>> triangle.is_connected()
        True
        """
        adjacency: dict[VertexId, set[VertexId]] = {}
        if vertices is not None:
            for v in vertices:
                adjacency.setdefault(int(v), set())
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        return cls(adjacency, id_space=id_space, name=name, validate=True)

    @classmethod
    def from_networkx(cls, nx_graph, id_space: int | None = None, name: str | None = None) -> "StaticGraph":
        """Build from a :class:`networkx.Graph` with integer node labels."""
        adjacency = {int(v): [int(u) for u in nx_graph.neighbors(v)] for v in nx_graph.nodes}
        return cls(adjacency, id_space=id_space, name=name, validate=True)

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self._vertices)
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def relabeled(self, mapping: Mapping[VertexId, VertexId], id_space: int | None = None) -> "StaticGraph":
        """Return a copy with vertices renamed through ``mapping``.

        ``mapping`` must be injective over the vertex set.  This is how
        generators dilate the ID space (``n' > n``) to exercise the
        non-contiguous-identifier assumption.  The copy is CSR-backed:
        arcs are re-emitted in the permuted dense space and sorted at
        the array level.  An injective relabeling of a valid graph has
        valid *adjacency* by construction, so no structural
        re-validation runs — but the identifier bounds (non-negative,
        inside the declared ID space) depend on the mapping alone and
        are still checked here.
        """
        vertices = self._vertices
        new_ids = sorted(mapping[v] for v in vertices)
        if len(set(new_ids)) != self.n:
            raise GraphError("relabeling mapping is not injective on the vertex set")
        if new_ids[0] < 0:
            raise GraphError("vertex identifiers must be non-negative")
        if id_space is not None and new_ids[-1] >= int(id_space):
            raise GraphError(
                f"vertex id {new_ids[-1]} outside declared id space [0, {int(id_space)})"
            )
        rank = {vid: i for i, vid in enumerate(new_ids)}
        perm = array("q", (rank[mapping[v]] for v in vertices))

        # Local import: build imports this module.
        from repro.graphs.build import GraphBuilder

        builder = GraphBuilder(self.n, id_space=id_space, name=self.name)
        add_arc = builder.edges.add_arc
        offsets = self._csr_offsets
        indices = self._csr_indices
        lo = 0
        for i in range(self.n):
            hi = offsets[i + 1]
            p = perm[i]
            for j in indices[lo:hi]:
                add_arc(p, perm[j])
            lo = hi
        return builder.build(ids=new_ids, dedup=False)

    # ------------------------------------------------------------------
    # Queries used by tests and analyses (not by agents)
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from an arbitrary vertex)."""
        neighbors = self._adjacency()
        start = self._vertices[0]
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == self.n

    def distance(self, source: VertexId, target: VertexId) -> int:
        """BFS distance between two vertices; ``-1`` if disconnected."""
        return bfs_distance(self, source, target)

    def adjacent_pairs(self) -> Iterator[tuple[VertexId, VertexId]]:
        """All ordered pairs at distance one (valid neighborhood-rendezvous starts)."""
        for u, v in self.edges():
            yield (u, v)
            yield (v, u)


def bfs_distance(graph: StaticGraph, source: VertexId, target: VertexId) -> int:
    """Breadth-first-search distance between ``source`` and ``target``.

    Returns ``-1`` when ``target`` is unreachable.  This is an
    *analysis* helper (used by tests and instance validators); agents in
    the simulation never call it — they only see local neighborhoods.

    >>> path = StaticGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    >>> bfs_distance(path, 0, 3)
    3
    >>> forest = StaticGraph.from_edges([(0, 1)], vertices=[2])
    >>> bfs_distance(forest, 0, 2)
    -1
    """
    if source == target:
        return 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        v, dist = queue.popleft()
        for u in graph.neighbors(v):
            if u == target:
                return dist + 1
            if u not in seen:
                seen.add(u)
                queue.append((u, dist + 1))
    return -1
