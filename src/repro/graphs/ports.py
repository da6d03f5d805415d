"""Local port numbering: the hidden ``P̂_v`` and the accessible ``P_v``.

Paper Section 2.1 defines, for each vertex ``v``, a *hidden* bijection
``P̂_v : [0, deg(v)) → N(v)`` (the physical port labels) and an
*accessible* function ``P_v`` which is what an agent standing at ``v``
can actually observe:

* **KT1** (neighborhood-ID access, the model of the algorithms):
  ``P_v = P̂_v`` — the agent sees which neighbor identifier lies behind
  every port, i.e. it knows the IDs of all neighbors.
* **KT0** (the model of the Theorem 4 lower bound): ``P_v`` is the
  identity on ``[0, deg(v))`` — ports carry no information about the
  neighbor behind them.

The runtime uses :class:`PortLabeling` to resolve an agent's chosen
*accessible port key* into an actual destination vertex, so algorithms
can only navigate through the interface their model grants them.

Every labeling is stored **flat**: one int64 buffer of dense port
targets aligned with the graph's CSR offsets — entry ``offsets[i] + p``
is the dense vertex behind port ``p`` of vertex ``i``.  The
ascending-ID default labeling is the CSR index buffer itself, adopted
zero-copy, and :meth:`repro.runtime.plan.ExecutionPlan.compile` reads
the flat table directly.  The dictionary views
(:meth:`PortLabeling.port_table` and the inverse used by
:meth:`PortLabeling.port_of`) materialize lazily on first access.
"""

from __future__ import annotations

import enum
import random
from array import array
from collections.abc import Mapping

from repro._typing import PortKey, VertexId
from repro.errors import GraphError, ProtocolError
from repro.graphs.graph import StaticGraph

__all__ = ["PortModel", "PortLabeling"]


class PortModel(enum.Enum):
    """Which port information agents may observe."""

    #: Agents see neighbor identifiers (``P_v = P̂_v``).  Port keys are
    #: neighbor IDs.  This is the model of the paper's algorithms.
    KT1 = "KT1"

    #: Agents see only local indices ``0..deg(v)-1``; the hidden
    #: bijection is not observable.  This is the Theorem 4 model.
    KT0 = "KT0"


class PortLabeling:
    """The hidden port bijections ``P̂_v`` for every vertex of a graph.

    Parameters
    ----------
    graph:
        The underlying static graph.
    permutations:
        Optional explicit labeling: for each vertex, a tuple listing the
        neighbor behind port ``0, 1, ...``.  Must be a permutation of
        ``N(v)``.  When omitted, ports follow ascending neighbor ID.
    rng:
        When given (and ``permutations`` is not), each vertex's ports
        are shuffled uniformly at random — the adversarially-irrelevant
        but non-trivial labeling used in KT0 experiments.
    """

    __slots__ = ("_graph", "_port_to_neighbor", "_neighbor_to_port", "_flat_targets")

    def __init__(
        self,
        graph: StaticGraph,
        permutations: Mapping[VertexId, tuple[VertexId, ...]] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._graph = graph
        self._port_to_neighbor: dict[VertexId, tuple[VertexId, ...]] | None = None
        self._neighbor_to_port: dict[VertexId, dict[VertexId, int]] | None = None
        offsets, indices = graph.csr_adjacency()
        if permutations is not None:
            index_of = {v: i for i, v in enumerate(graph.vertices)}
            for v in permutations:
                if v not in index_of:
                    raise GraphError(f"port permutation given for non-vertex {v!r}")
            flat = array("q")
            for v in graph.vertices:
                if v not in permutations:
                    raise GraphError(f"no port permutation given for vertex {v}")
                try:
                    perm = tuple(permutations[v])
                    valid = sorted(perm) == list(graph.neighbors(v))
                except TypeError:  # not iterable, or unorderable entries
                    valid = False
                if not valid:
                    raise GraphError(
                        f"port permutation at vertex {v} is not a permutation of N({v})"
                    )
                flat.extend(map(index_of.__getitem__, perm))
        elif rng is None:
            # Ascending neighbor ID *is* CSR order — adopt zero-copy.
            flat = indices
        else:
            flat = array("q", indices)
            shuffle = rng.shuffle
            lo = 0
            for i in range(graph.n):
                hi = offsets[i + 1]
                if hi - lo > 1:
                    row = list(flat[lo:hi])
                    shuffle(row)
                    flat[lo:hi] = array("q", row)
                lo = hi
        self._flat_targets = flat

    @classmethod
    def _from_flat(cls, graph: StaticGraph, flat_targets) -> "PortLabeling":
        """Adopt a dense flat port-target buffer zero-copy (internal).

        ``flat_targets`` must be aligned with ``graph``'s CSR offsets
        and hold, per vertex, a permutation of its dense neighbor
        slice.  Used by :func:`repro.runtime.plan.attach_plan` to
        rebuild a labeling from a shared-memory segment without any
        dictionary construction.
        """
        self = object.__new__(cls)
        self._graph = graph
        self._port_to_neighbor = None
        self._neighbor_to_port = None
        self._flat_targets = flat_targets
        return self

    @property
    def graph(self) -> StaticGraph:
        """The graph this labeling belongs to."""
        return self._graph

    def flat_port_targets(self):
        """The dense flat port table.

        Aligned with the graph's CSR offsets: entry ``offsets[i] + p``
        is the dense vertex behind port ``p`` of dense vertex ``i``.
        :meth:`repro.runtime.plan.ExecutionPlan.compile` adopts this
        buffer zero-copy as the plan's ``port_targets``.  Treat as
        **read-only**.
        """
        return self._flat_targets

    # -- hidden side (used only by the runtime) -------------------------

    def port_table(self) -> Mapping[VertexId, tuple[VertexId, ...]]:
        """The full hidden table ``{v: (P̂_v(0), P̂_v(1), ...)}``.

        Returned without copying so the runtime engine can resolve KT0
        movements with one dict lookup and one tuple index per round;
        treat it as **read-only**.  Agents never see this table — they
        navigate through :meth:`accessible_ports` /
        :meth:`resolve_accessible`.  The dictionary materializes from
        the flat table on first access and is cached.
        """
        table = self._port_to_neighbor
        if table is None:
            graph = self._graph
            ids = graph.vertices
            offsets, _ = graph.csr_adjacency()
            flat = self._flat_targets
            getter = ids.__getitem__
            table = {}
            lo = 0
            for i, v in enumerate(ids):
                hi = offsets[i + 1]
                table[v] = tuple(map(getter, flat[lo:hi]))
                lo = hi
            self._port_to_neighbor = table
        return table

    def resolve(self, vertex: VertexId, port: int) -> VertexId:
        """``P̂_vertex(port)``: the neighbor behind a physical port."""
        order = self.port_table()[vertex]
        if not 0 <= port < len(order):
            raise ProtocolError(f"port {port} out of range at vertex {vertex}")
        return order[port]

    def port_of(self, vertex: VertexId, neighbor: VertexId) -> int:
        """``P̂⁻¹_vertex(neighbor)``: the physical port leading to ``neighbor``."""
        inverse = self._neighbor_to_port
        if inverse is None:
            inverse = {
                v: {u: i for i, u in enumerate(order)}
                for v, order in self.port_table().items()
            }
            self._neighbor_to_port = inverse
        try:
            return inverse[vertex][neighbor]
        except KeyError:
            raise ProtocolError(f"{neighbor} is not a neighbor of {vertex}") from None

    # -- accessible side (what agents may see / use) ---------------------

    def accessible_ports(self, vertex: VertexId, model: PortModel) -> tuple[PortKey, ...]:
        """The accessible port keys at ``vertex`` under ``model``.

        KT1 returns the sorted neighbor IDs; KT0 returns
        ``(0, 1, ..., deg(v)-1)``.
        """
        if model is PortModel.KT1:
            return self._graph.neighbors(vertex)
        return tuple(range(self._graph.degree(vertex)))

    def resolve_accessible(self, vertex: VertexId, key: PortKey, model: PortModel) -> VertexId:
        """Destination of moving through accessible port ``key`` at ``vertex``.

        Under KT1 the key *is* the destination ID (validated to be a
        neighbor).  Under KT0 the key is a local index resolved through
        the hidden bijection.
        """
        if model is PortModel.KT1:
            if not self._graph.has_edge(vertex, key):
                raise ProtocolError(
                    f"agent at {vertex} tried to move to non-neighbor {key}"
                )
            return key
        return self.resolve(vertex, key)
