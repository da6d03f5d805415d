"""The local map agent ``a`` accumulates while constructing ``T^a``.

Paper Section 3.2 footnote: knowing ``T^a`` means (1) having the list
of its vertices and (2) the shortest paths to them from ``a``'s start —
of length at most two by the dense condition, so the storage is
asymptotically the vertex list itself (``O(n log n)`` bits total).

:class:`LocalMap` stores, for every known vertex, a route from the home
vertex as a tuple of intermediate-and-final hops.  Routes are kept
shortest-known; in this problem they never exceed length 2 (home →
member of ``S^a`` → member of ``N⁺(S^a)``).
"""

from __future__ import annotations

from typing import Iterable

from repro._typing import VertexId
from repro.errors import ProtocolError

__all__ = ["LocalMap"]


class LocalMap:
    """Routes (length ≤ 2) from a home vertex to every known vertex."""

    __slots__ = ("home", "_routes")

    def __init__(self, home: VertexId, neighbors: Iterable[VertexId] = ()) -> None:
        """A map knowing ``home`` and, one hop away, each of ``neighbors``."""
        self.home = home
        self._routes: dict[VertexId, tuple[VertexId, ...]] = {home: ()}
        # ``zip(neighbors)`` yields each neighbor's one-hop route ``(u,)``.
        neighbors = tuple(neighbors)
        self._routes.update(zip(neighbors, zip(neighbors)))
        self._routes[home] = ()

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def known_vertices(self) -> frozenset[VertexId]:
        """All vertices with a stored route (including home)."""
        return frozenset(self._routes)

    def add_direct(self, vertex: VertexId) -> None:
        """Record ``vertex`` as adjacent to home (route of length 1)."""
        if vertex == self.home:
            return
        existing = self._routes.get(vertex)
        if existing is None or len(existing) > 1:
            self._routes[vertex] = (vertex,)

    def add_via(self, via: VertexId, vertex: VertexId) -> None:
        """Record ``vertex`` as adjacent to the known vertex ``via``.

        The stored route is ``route(via) + (vertex,)``; shorter existing
        routes are kept.
        """
        if vertex == self.home or vertex == via:
            return
        base = self._routes.get(via)
        if base is None:
            raise ProtocolError(f"cannot route via unknown vertex {via}")
        candidate = base + (vertex,)
        existing = self._routes.get(vertex)
        if existing is None or len(existing) > len(candidate):
            self._routes[vertex] = candidate

    def route(self, vertex: VertexId) -> tuple[VertexId, ...]:
        """The stored route from home to ``vertex`` (empty for home).

        Raises
        ------
        ProtocolError
            If the vertex is unknown — the agent never learned a path
            to it, so using it would exceed the agent's knowledge.
        """
        try:
            return self._routes[vertex]
        except KeyError:
            raise ProtocolError(f"no known route to vertex {vertex}") from None

    def route_length(self, vertex: VertexId) -> int:
        """Number of hops from home to ``vertex``."""
        return len(self.route(vertex))
