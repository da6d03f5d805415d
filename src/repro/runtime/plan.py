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
* ``port_targets`` (KT0 plans) — the hidden port table flattened the
  same way: entry ``neighbor_offsets[i] + p`` is the dense index
  behind port ``p`` of vertex ``i``;
* ``walk_table`` — the table a walker moves through
  (``neighbor_indices`` under KT1, ``port_targets`` under KT0) as a
  plain list, built lazily once per plan for the lockstep walk
  kernels.

**CSR-backed graphs compile zero-copy.**  Every generator builds its
graph through :mod:`repro.graphs.build`, which already produces exactly
these buffers; ``compile`` adopts the graph's CSR pair, degree array,
and — for KT0 — the labeling's flat port table *by reference* instead
of re-flattening anything.  The per-vertex rows the interpreter hot
loop touches (``nbr_ids``; ``nbr_index`` mapping a public target
identifier straight to its dense index for KT1 movement resolution;
``kt0_rows`` as tuples for KT0) then materialize **lazily on first
engine bind**: a parent process that only compiles and exports plans
(the sweep fabric) never builds a single per-vertex Python row.  On
dict-backed graphs (user-supplied adjacency) compilation is eager and
unchanged: rows first, flat CSR derived from them on first access.

The identifier/index translation boundary is strict: everything inside
:class:`~repro.runtime.engine.Engine` runs on dense indices, and public
identifiers reappear only at the *observation boundary* — agent views,
whiteboard keys, traces, and the fields of an
:class:`~repro.runtime.engine.ExecutionResult` — which is why results
stay byte-identical to the pre-plan schedulers (the frozen oracles in
:mod:`repro.runtime.reference` prove it on every registered
algorithm).  ``docs/performance.md`` documents the layer, the cache
lifetimes, and the benchmarks gating its speedups.

Plans are immutable once compiled (the lazy row/view caches aside) and
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
from typing import TYPE_CHECKING

from repro._typing import PortKey, VertexId
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
        "nbr_ids",
        "nbr_index",
        "kt0_rows",
        "kt0_ports",
        "walk_table",
        "_labeling",
        "_closed_sets",
        "_csr",
        "_port_targets",
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
        self._closed_sets: list[frozenset[VertexId] | None] = [None] * n
        self._port_targets: array | None = None

        csr = graph.csr_adjacency()
        if csr is not None:
            # CSR-backed graph (every generator output): adopt the
            # graph's flat buffers zero-copy.  The per-vertex rows —
            # nbr_ids, and nbr_index (KT1) or kt0_rows/kt0_ports (KT0,
            # flat labeling) — materialize lazily in __getattr__ on
            # first engine bind, so compile-and-export pipelines never
            # build them at all.
            self._csr = csr
            self.degrees = graph.degree_array()
            if port_model is PortModel.KT0:
                self.nbr_index = None  # never read by KT0 loops
                flat = labeling.flat_port_targets()  # type: ignore[union-attr]
                if flat is not None:
                    self._port_targets = flat  # zero-copy adoption
                else:
                    # Explicit (dict-built) permutations on a CSR graph:
                    # derive the rows eagerly, as the dict path does.
                    table = labeling.port_table()  # type: ignore[union-attr]
                    index_of = self.index_of
                    self.kt0_rows = [
                        tuple(index_of[u] for u in table[v]) for v in ids
                    ]
                    ports_by_degree: dict[int, tuple[int, ...]] = {}
                    self.kt0_ports = [
                        ports_by_degree.setdefault(d, tuple(range(d)))
                        for d in self.degrees
                    ]
            else:
                self.kt0_rows = None
                self.kt0_ports = None
            return

        # Dict-backed graph (user-supplied adjacency): the historical
        # eager compile — per-vertex rows first, flat CSR derived from
        # them on first access.
        nbr_map = graph.neighbor_map
        nbr_ids = [nbr_map[v] for v in ids]
        self.degrees = array("q", map(len, nbr_ids))
        self.nbr_ids = nbr_ids
        self.nbr_index = (
            [{u: self.index_of[u] for u in adj} for adj in nbr_ids]
            if port_model is PortModel.KT1
            else None
        )
        self._csr = None

        if port_model is PortModel.KT0:
            table = labeling.port_table()  # type: ignore[union-attr]
            index_of = self.index_of
            self.kt0_rows = [tuple(index_of[u] for u in table[v]) for v in ids]
            ports_by_degree = {}
            self.kt0_ports = [
                ports_by_degree.setdefault(d, tuple(range(d))) for d in self.degrees
            ]
        else:
            self.kt0_rows = None
            self.kt0_ports = None

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: the lazy per-vertex rows
        # of CSR-backed plans, and every plan's lockstep walk table.
        # Materialize once, cache in the slot.
        if name == "walk_table":
            # Mapping through one shared int object per vertex costs
            # one pointer per arc, not a freshly boxed int per arc.
            flat = (
                self.neighbor_indices
                if self.port_model is PortModel.KT1
                else self.port_targets
            )
            value = list(map(list(range(self.n)).__getitem__, flat))
        elif name == "nbr_ids":
            offsets, indices = self._csr
            getter = self.ids.__getitem__
            value: list = []
            append = value.append
            lo = 0
            for i in range(self.n):
                hi = offsets[i + 1]
                append(tuple(map(getter, indices[lo:hi])))
                lo = hi
        elif name == "nbr_index":
            offsets, indices = self._csr
            getter = self.ids.__getitem__
            value = []
            append = value.append
            lo = 0
            for i in range(self.n):
                hi = offsets[i + 1]
                chunk = indices[lo:hi]
                append(dict(zip(map(getter, chunk), chunk)))
                lo = hi
        elif name == "kt0_rows":
            flat = self._port_targets
            offsets = self._csr[0]
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
        flat port table is derived from it (on CSR-backed graphs that
        default labeling *is* the CSR index buffer, adopted zero-copy).
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
    # Accessors (views, tests, and the translation boundary)
    # ------------------------------------------------------------------

    @property
    def labeling(self) -> PortLabeling:
        """The plan's port labeling (ascending-ID default, built lazily)."""
        if self._labeling is None:
            self._labeling = PortLabeling(self.graph)
        return self._labeling

    @property
    def neighbor_offsets(self) -> array:
        """CSR offsets: vertex ``i``'s neighbors span ``[off[i], off[i+1])``.

        On CSR-backed graphs this is the builder's buffer itself
        (zero-copy); on dict-backed graphs the flat pair is derived
        from the per-vertex rows once on first access — one-off
        executions never pay for it.
        """
        return self._csr_arrays()[0]

    @property
    def neighbor_indices(self) -> array:
        """One ``array('q')`` of concatenated dense neighbor lists."""
        return self._csr_arrays()[1]

    @property
    def port_targets(self) -> array | None:
        """The hidden port table flattened CSR-style (KT0 plans only).

        Entry ``neighbor_offsets[i] + p`` is the dense index behind
        port ``p`` of vertex ``i``; ``None`` for KT1 plans.  On flat
        labelings this is the labeling's buffer (zero-copy); otherwise
        derived from the rows on first access.
        """
        if self.port_model is not PortModel.KT0:
            return None
        flat = self._port_targets
        if flat is None:
            flat = array("q")
            for row in self.kt0_rows:
                flat.extend(row)
            self._port_targets = flat
        return flat

    def _csr_arrays(self) -> tuple[array, array]:
        csr = self._csr
        if csr is None:
            index_of = self.index_of
            offsets = array("q", bytes(8 * (self.n + 1)))
            flat = array("q")
            total = 0
            for i, adj in enumerate(self.nbr_ids):
                flat.extend(index_of[u] for u in adj)
                total += len(adj)
                offsets[i + 1] = total
            csr = (offsets, flat)
            self._csr = csr
        return csr

    def index(self, vertex: VertexId) -> int:
        """Dense index of public identifier ``vertex``."""
        return self.index_of[vertex]

    def vertex_id(self, index: int) -> VertexId:
        """Public identifier behind dense ``index``."""
        return self.ids[index]

    def degree_of(self, index: int) -> int:
        """Degree of the vertex at dense ``index``."""
        return self.degrees[index]

    def neighbor_slice(self, index: int) -> array:
        """CSR slice of dense neighbor indices for ``index``."""
        offsets = self.neighbor_offsets
        return self.neighbor_indices[offsets[index]:offsets[index + 1]]

    def neighbor_ids_of(self, index: int) -> tuple[VertexId, ...]:
        """Public neighbor identifiers of ``index``, ascending."""
        return self.nbr_ids[index]

    def port_row(self, index: int) -> tuple[int, ...]:
        """Dense targets behind ports ``0, 1, ...`` of ``index`` (KT0)."""
        if self.port_model is not PortModel.KT0:
            raise SchedulerError("KT1 plans compile no hidden port table")
        return self.kt0_rows[index]

    def accessible_ports_of(self, index: int) -> tuple[PortKey, ...]:
        """Accessible port keys at ``index`` under the plan's model."""
        if self.port_model is PortModel.KT1:
            return self.nbr_ids[index]
        return self.kt0_ports[index]  # type: ignore[index]

    def closed_set(self, index: int) -> frozenset[VertexId]:
        """``N⁺`` of ``index`` as public identifiers, cached per vertex."""
        cached = self._closed_sets[index]
        if cached is None:
            vertex = self.ids[index]
            cached = self.graph.neighbor_set(vertex) | {vertex}
            self._closed_sets[index] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(graph={self.graph.name!r}, n={self.n}, "
            f"model={self.port_model.value})"
        )


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

        On a CSR-backed plan the buffers being copied are the
        builder's own (no flattening happens here or anywhere earlier);
        on a dict-backed plan they materialize on first export as
        before.  Raises :class:`SchedulerError` when shared memory is
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
        plan._csr = (offsets, indices)
        plan.degrees = degrees
        labeling = plan._labeling
        if plan._port_targets is not None:
            ports = array("q", plan._port_targets)
            plan._port_targets = ports
            if labeling is not None and labeling.flat_port_targets() is not None:
                labeling._flat_targets = ports
        elif labeling is not None and labeling.flat_port_targets() is not None:
            labeling._flat_targets = array("q", labeling.flat_port_targets())
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
