"""Compiled execution plans: the array-backed core of the trial hot path.

A statistical experiment runs *thousands* of seeded trials against the
same ``(StaticGraph, PortLabeling)`` pair.  Before this layer existed,
every trial paid the full setup again: the scheduler re-bound adjacency
dictionaries, (under KT0) re-materialized the O(m) hidden port table,
and re-resolved every movement through per-vertex dict and frozenset
lookups keyed by arbitrary public vertex identifiers.

:class:`ExecutionPlan` compiles that pair **once** into flat arrays
over dense vertex indices ``0 .. n-1``:

* ``ids`` / ``index_of`` — the bijection between dense indices and the
  public (possibly non-contiguous) vertex identifiers;
* ``neighbor_indices`` / ``neighbor_offsets`` — the adjacency in CSR
  form: one ``array('q')`` of concatenated neighbor index lists plus
  the ``n + 1`` offsets delimiting each vertex's slice;
* ``degrees`` — per-vertex degree, one ``array('q')`` lookup;
* ``port_targets`` (KT0 plans; ``None`` on KT1 plans) — the hidden
  port table flattened the same way: entry ``neighbor_offsets[i] + p``
  is the dense index behind port ``p`` of vertex ``i``;
* ``walk_setup`` — everything the lockstep walk kernels read, built
  lazily once per plan so a seed batch costs the same however many
  batches share the plan: the table a walker moves through
  (``neighbor_indices`` under KT1, ``port_targets`` under KT0), the
  offsets and degrees, each as a plain list, the per-vertex bit widths
  ``randrange`` draws, and the common degree and its bit width (both 0
  on irregular plans).  It is ``None`` when no walk can run in
  lockstep: a degree-0 vertex, or a table slot leading a vertex to
  itself.  That verdict is cached too, so the O(m) self-loop scan runs
  once per plan;
* ``visit_reads`` (KT1 plans; ``None`` on KT0 plans) — what the
  Theorem 1 and 2 kernels answer a visit with: ``(degree, N⁺)`` of
  each vertex, keyed by identifier, built lazily once per plan from
  ``degrees`` and ``closed_sets``.

**Plans compile zero-copy.**  Every :class:`StaticGraph` stores its
adjacency as exactly these buffers, and every
:class:`~repro.graphs.ports.PortLabeling` stores its port table flat,
so ``compile`` adopts the graph's CSR pair, degree array, and — for
KT0 — the labeling's flat port table *by reference* instead of
re-flattening anything.  The per-vertex rows the interpreter hot loop
touches materialize **lazily on first engine bind**, so a parent
process that only compiles and exports plans (the sweep fabric) never
builds a single per-vertex Python row:

* ``nbr_ids`` — the graph's own neighbor tuples, shared, not copied;
* ``closed_sets`` (KT1 plans; ``None`` on KT0 plans) — ``N⁺(v)`` of
  each vertex as a frozenset of public identifiers, built once from
  ``nbr_ids``.  It is the plan's only per-vertex membership table: a
  KT1 move is legal iff its target is in the mover's row (the vertex
  itself being a stay), and ``closed_neighbors`` views return the row;
* ``kt0_rows`` / ``kt0_ports`` (KT0 plans) — each vertex's port table
  row, and its port keys ``0 .. deg-1``, as tuples.

The identifier/index translation boundary is strict: everything inside
:class:`~repro.runtime.engine.Engine` runs on dense indices, and public
identifiers reappear only at the *observation boundary* — agent views,
whiteboard keys, traces, and the fields of an
:class:`~repro.runtime.engine.ExecutionResult` — which is why results
stay byte-identical to the pre-plan schedulers (the frozen oracles in
:mod:`repro.runtime.reference` prove it on every registered
algorithm).  ``docs/performance.md`` documents the layer, the cache
lifetimes, and the benchmarks gating its speedups.

Plans are immutable once compiled (the lazy rows aside) and
may be shared freely across engines, trials, and threads of one
process; they are keyed by *object identity* of their graph, so always
compile from the same :class:`StaticGraph` instance the trials run on.

**Cross-process transport.**  Because the plan's canonical export
surface is already flat ``array('q')`` buffers, a compiled plan can
cross a process boundary without pickling any graph object:
:meth:`PlanShare.export` copies the ids, degrees, CSR adjacency, and
(for KT0) flat port table into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, and
:func:`attach_plan` in a worker maps that segment read-only, rebuilds
the :class:`StaticGraph` *directly on the shared buffers* (no
generator run, no port-table derivation, no adjacency dictionaries),
and compiles a plan that adopts the same buffers zero-copy.  The
sweep fabric (:mod:`repro.experiments.parallel`) is the intended
user; see ``docs/performance.md`` for the lifetime rules (the
exporting process owns the segment and must :meth:`PlanShare.close`
it, attachers release their mapping with :meth:`AttachedPlan.close`).
"""

from __future__ import annotations

import json
from array import array
from itertools import chain, count, repeat
from operator import eq
from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - stripped-down interpreters
    _shared_memory = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Mapping

__all__ = [
    "ExecutionPlan",
    "SharedPlanHandle",
    "PlanShare",
    "AttachedPlan",
    "attach_plan",
    "shared_plans_available",
]


class ExecutionPlan:
    """A ``(graph, labeling, port model)`` triple compiled to flat arrays.

    Build one with :meth:`compile`; the constructor is internal.  The
    attributes are documented in the module docstring; treat every one
    of them as **read-only** — engines bind them directly.
    """

    __slots__ = (
        "graph",
        "port_model",
        "n",
        "ids",
        "index_of",
        "degrees",
        "neighbor_offsets",
        "neighbor_indices",
        "port_targets",
        "nbr_ids",
        "closed_sets",
        "kt0_rows",
        "kt0_ports",
        "walk_setup",
        "visit_reads",
        "_labeling",
    )

    def __init__(
        self,
        graph: StaticGraph,
        port_model: PortModel,
        labeling: PortLabeling | None,
    ) -> None:
        self.graph = graph
        self.port_model = port_model
        self._labeling = labeling

        ids = graph.vertices
        n = len(ids)
        self.n = n
        self.ids = ids
        self.index_of = {v: i for i, v in enumerate(ids)}
        # Adopt the graph's flat buffers zero-copy.  The per-vertex
        # rows — nbr_ids, and closed_sets (KT1) or kt0_rows/kt0_ports
        # (KT0) — materialize lazily in __getattr__ on first engine
        # bind, so compile-and-export pipelines never build them.
        self.neighbor_offsets, self.neighbor_indices = graph.csr_adjacency()
        self.degrees = graph.degree_array()
        if port_model is PortModel.KT0:
            self.port_targets = labeling.flat_port_targets()  # type: ignore[union-attr]
            self.closed_sets = None  # KT0 hides neighbor identifiers
        else:
            self.port_targets = None
            self.kt0_rows = None
            self.kt0_ports = None

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: the lazy per-vertex rows
        # and the lockstep kernels' tables.  Materialize once, cache in
        # the slot.
        if name == "walk_setup":
            value = _walk_setup(self)
        elif name == "visit_reads":
            # ``None`` on KT0 plans, whose views hide N⁺.
            closed = self.closed_sets
            value = (
                None if closed is None
                else dict(zip(self.ids, zip(self.degrees, closed)))
            )
        elif name == "nbr_ids":
            # The graph's own tuples, shared rather than rebuilt.
            nbr_map = self.graph.neighbor_map
            value = [nbr_map[v] for v in self.ids]
        elif name == "closed_sets":
            # The sets reuse the tuples' int objects, so no int is
            # boxed per arc.
            value = [frozenset(row) | {v} for v, row in zip(self.ids, self.nbr_ids)]
        elif name == "kt0_rows":
            flat = self.port_targets
            offsets = self.neighbor_offsets
            value = []
            append = value.append
            lo = 0
            for i in range(self.n):
                hi = offsets[i + 1]
                append(tuple(flat[lo:hi]))
                lo = hi
        elif name == "kt0_ports":
            ports_by_degree: dict[int, tuple[int, ...]] = {}
            value = [
                ports_by_degree.setdefault(d, tuple(range(d))) for d in self.degrees
            ]
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        setattr(self, name, value)
        return value

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def compile(
        cls,
        graph: StaticGraph,
        labeling: PortLabeling | None = None,
        port_model: PortModel = PortModel.KT1,
    ) -> "ExecutionPlan":
        """Compile ``graph`` (and its port labeling) for ``port_model``.

        ``labeling`` defaults to the ascending-ID labeling — lazily
        constructed for KT1 plans, which never consult the hidden
        bijection on the fast path, and eagerly for KT0 plans, whose
        flat port table it supplies (that default labeling *is* the
        graph's CSR index buffer, adopted zero-copy).
        """
        if labeling is not None and labeling.graph is not graph:
            raise SchedulerError("labeling belongs to a different graph")
        if port_model is PortModel.KT0 and labeling is None:
            labeling = PortLabeling(graph)
        return cls(graph, port_model, labeling)

    def ensure_matches(
        self,
        graph: StaticGraph | None,
        labeling: PortLabeling | None,
        port_model: PortModel,
    ) -> None:
        """Raise :class:`SchedulerError` unless this plan fits the run.

        The graph check is by identity: a plan binds the internal
        tables of one specific :class:`StaticGraph` instance, so an
        equal-but-distinct graph is still a mismatch.  An explicitly
        passed labeling is accepted when its hidden port table equals
        the plan's (same object or same content — execution is
        identical either way); when the caller passes no labeling, the
        plan's own labeling governs the run.
        """
        if graph is not None and graph is not self.graph:
            raise SchedulerError(
                "execution plan was compiled for a different graph"
            )
        if port_model is not self.port_model:
            raise SchedulerError(
                f"execution plan was compiled for {self.port_model.value}, "
                f"not {port_model.value}"
            )
        if (
            labeling is not None
            and labeling is not self._labeling
            and labeling.port_table() != self.labeling.port_table()
        ):
            raise SchedulerError(
                "execution plan was compiled for a different port labeling"
            )

    # ------------------------------------------------------------------
    # Accessors (views and the translation boundary)
    # ------------------------------------------------------------------

    @property
    def labeling(self) -> PortLabeling:
        """The plan's port labeling (ascending-ID default, built lazily)."""
        if self._labeling is None:
            self._labeling = PortLabeling(self.graph)
        return self._labeling

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(graph={self.graph.name!r}, n={self.n}, "
            f"model={self.port_model.value})"
        )


def _walk_setup(plan: ExecutionPlan) -> tuple | None:
    """Build ``plan.walk_setup``: the lockstep walk kernels' inputs.

    Returns ``(table, offsets, degrees, bits, uniform, width)``, or
    ``None`` when the serial engine must run the walk instead.
    """
    degrees = list(plan.degrees)
    lowest = min(degrees, default=0)
    if lowest == 0:
        # randrange(0) raises in the serial engine; let it.
        return None
    # Lists index measurably faster than array('q') in the kernels
    # (CPython specializes list subscripts and returns the stored int
    # objects instead of boxing a fresh one per lookup), which buys
    # ~25% off every tape round.  Mapping the table through one shared
    # int object per vertex costs one pointer per arc, not a freshly
    # boxed int per arc.
    flat = (
        plan.neighbor_indices
        if plan.port_model is PortModel.KT1
        else plan.port_targets
    )
    table = list(map(list(range(plan.n)).__getitem__, flat))
    uniform = lowest if lowest == max(degrees) else 0
    if _table_has_self_loops(table, degrees, uniform):
        # Move counting infers moves from position changes, which a
        # self-loop traversal would defeat.
        return None
    bits = list(map(int.bit_length, degrees))
    offsets = list(plan.neighbor_offsets)
    return table, offsets, degrees, bits, uniform, uniform.bit_length()


def _table_has_self_loops(table: list, degrees: list, uniform: int) -> bool:
    """Whether any table slot maps a vertex onto itself (C-level passes).

    Degree-regular tables are scanned stride-wise — column ``p`` of the
    row-major table against ``count()`` — which avoids materializing a
    per-slot owner iterator; irregular tables pay the general
    ``chain``/``repeat`` form.
    """
    if uniform:
        return any(
            any(map(eq, table[p::uniform], count()))
            for p in range(uniform)
        )
    owners = chain.from_iterable(map(repeat, count(), degrees))
    return any(map(eq, table, owners))


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------


def shared_plans_available() -> bool:
    """Whether this interpreter can export/attach plans over shared memory.

    ``False`` on interpreters without
    :mod:`multiprocessing.shared_memory`; callers (the sweep fabric)
    fall back to regenerating instances per worker process.  A
    runtime failure to *create* a segment (``/dev/shm`` full or
    unmounted) surfaces as ``OSError`` from :meth:`PlanShare.export`
    and is handled the same way.
    """
    return _shared_memory is not None


class SharedPlanHandle:
    """Picklable descriptor of one exported plan segment.

    Carries the OS-level segment name plus the JSON metadata needed to
    interpret the flat int64 buffers inside it — everything
    :func:`attach_plan` needs, and small enough to ship in every task
    message.
    """

    __slots__ = ("name", "meta")

    def __init__(self, name: str, meta: dict) -> None:
        self.name = name
        self.meta = meta

    def __getstate__(self) -> tuple[str, str]:
        return (self.name, json.dumps(self.meta, separators=(",", ":")))

    def __setstate__(self, state: tuple[str, str]) -> None:
        self.name = state[0]
        self.meta = json.loads(state[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedPlanHandle({self.name!r}, n={self.meta.get('n')})"


class PlanShare:
    """One plan exported into a shared-memory segment (exporter side).

    The exporting process **owns** the segment: :meth:`close` (or
    process exit via the sweep fabric's arena) must eventually unlink
    it, or the name leaks until reboot.  Attached readers keep their
    mapping alive independently of the unlink — POSIX keeps the pages
    until the last attacher closes — so the exporter may unlink as
    soon as every worker that needs the plan has received the handle.

    Segment layout: the little-endian int64 buffers
    ``ids[n] | degrees[n] | neighbor_offsets[n+1] | neighbor_indices[m2]``
    and, for KT0 plans, ``port_targets[m2]``, concatenated in that
    order (``m2`` = twice the edge count).  All interpretation
    metadata travels in the :class:`SharedPlanHandle`, never in the
    segment.
    """

    __slots__ = ("_segment", "handle")

    def __init__(self, segment: "_shared_memory.SharedMemory", handle: SharedPlanHandle) -> None:
        self._segment = segment
        self.handle = handle

    @classmethod
    def export(cls, plan: ExecutionPlan) -> "PlanShare":
        """Copy ``plan``'s flat arrays into a fresh shared segment.

        The buffers being copied are the graph's and the labeling's
        own (no flattening happens here or anywhere earlier).  Raises
        :class:`SchedulerError` when shared memory is
        not available at all, and propagates ``OSError`` when the
        segment cannot be created (callers treat both as "fall back to
        per-worker regeneration").
        """
        if _shared_memory is None:
            raise SchedulerError("multiprocessing.shared_memory is unavailable")
        offsets = plan.neighbor_offsets
        indices = plan.neighbor_indices
        ports = plan.port_targets
        segments = [array("q", plan.ids), plan.degrees, offsets, indices]
        if ports is not None:
            segments.append(ports)
        total = sum(8 * len(seg) for seg in segments)
        segment = _shared_memory.SharedMemory(create=True, size=total)
        position = 0
        for seg in segments:
            raw = seg.tobytes()
            segment.buf[position:position + len(raw)] = raw
            position += len(raw)
        graph = plan.graph
        meta = {
            "n": plan.n,
            "m2": len(indices),
            "id_space": graph.id_space,
            "graph_name": graph.name,
            "port_model": plan.port_model.value,
            "has_ports": ports is not None,
        }
        return cls(segment, SharedPlanHandle(segment.name, meta))

    def close(self, unlink: bool = True) -> None:
        """Release the exporter's mapping; ``unlink`` destroys the name.

        Safe to call repeatedly.  Attached workers keep their own
        mappings until they close them.
        """
        segment, self._segment = self._segment, None
        if segment is None:
            return
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "PlanShare":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AttachedPlan:
    """A worker-side view of an exported plan: ``graph``, ``plan``, lifetime.

    The :class:`StaticGraph` is rebuilt **directly on the shared
    buffers** (:meth:`StaticGraph.from_csr` — no generator run, no
    adjacency dictionaries) and the compiled plan adopts the same
    buffers zero-copy, flat port table included.  :meth:`close`
    replaces every shared-buffer reference with a local copy before
    unmapping the segment, so anything still holding the graph or plan
    keeps working on process-local arrays.
    """

    __slots__ = ("graph", "plan", "_segment", "_views")

    def __init__(self, graph: StaticGraph, plan: ExecutionPlan, segment, views) -> None:
        self.graph = graph
        self.plan = plan
        self._segment = segment
        self._views = views

    def close(self) -> None:
        """Localize the shared buffers and unmap the segment (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        # Detach graph, labeling, and plan from the shared buffers
        # first: copy each adopted view into a process-local array so
        # no later access faults on an unmapped page.
        graph = self.graph
        plan = self.plan
        offsets = array("q", graph._csr_offsets)
        indices = array("q", graph._csr_indices)
        degrees = array("q", graph._degrees)
        graph._csr_offsets = offsets
        graph._csr_indices = indices
        graph._degrees = degrees
        plan.neighbor_offsets = offsets
        plan.neighbor_indices = indices
        plan.degrees = degrees
        if plan.port_targets is not None:
            plan.port_targets = array("q", plan.port_targets)
        labeling = plan._labeling
        if labeling is not None:
            # A KT0 labeling adopted the segment's port table; a KT1
            # plan's default labeling, built lazily, adopted its CSR
            # index buffer.
            labeling._flat_targets = (
                plan.port_targets if plan.port_targets is not None else indices
            )
        for view in self._views:
            view.release()
        self._views = ()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported slice escaped
            pass  # mapping is freed at process exit instead


def attach_plan(handle: SharedPlanHandle) -> AttachedPlan:
    """Attach one exported plan and rebuild its execution structures.

    The returned :class:`AttachedPlan` produces byte-identical trial
    records to a locally compiled plan on the same instance
    (``tests/runtime/test_plan_shm.py`` proves it differentially for
    every registered algorithm under both port models).
    """
    if _shared_memory is None:
        raise SchedulerError("multiprocessing.shared_memory is unavailable")
    # CPython ≤ 3.12 registers *attached* segments with the resource
    # tracker as if this process created them.  That is harmless only
    # when the attacher shares the exporter's tracker (the sweep fabric
    # starts it before forking its workers): the registration is then a
    # no-op re-add, and the exporter's unlink retires the name.
    segment = _shared_memory.SharedMemory(name=handle.name)
    meta = handle.meta
    n = meta["n"]
    m2 = meta["m2"]
    port_model = PortModel(meta["port_model"])
    words = memoryview(segment.buf).cast("q")
    ids_view = words[0:n]
    degrees_view = words[n:2 * n]
    offsets_view = words[2 * n:3 * n + 1]
    indices_view = words[3 * n + 1:3 * n + 1 + m2]
    views = [words, ids_view, degrees_view, offsets_view, indices_view]
    ports_view = None
    if meta["has_ports"]:
        ports_view = words[3 * n + 1 + m2:3 * n + 1 + 2 * m2]
        views.append(ports_view)

    graph = StaticGraph.from_csr(
        offsets_view,
        indices_view,
        ids=tuple(ids_view),
        id_space=meta["id_space"],
        name=meta["graph_name"],
        degrees=degrees_view,
    )
    labeling = None
    if port_model is PortModel.KT0:
        labeling = PortLabeling._from_flat(graph, ports_view)
    plan = ExecutionPlan.compile(graph, labeling, port_model)
    return AttachedPlan(graph, plan, segment, tuple(views))
