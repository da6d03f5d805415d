"""Frozen dict-based instance construction: the pre-builder baseline.

The CSR-native construction layer (:mod:`repro.graphs.build`) replaced
the dict-of-sets detour every generator used to take: accumulate
adjacency as Python sets, hand the mapping to :class:`StaticGraph`
(which sorted each neighborhood into a tuple and built a frozenset per
vertex), construct eager two-layer port dictionaries, and only then
flatten everything into the int64 buffers the execution plan actually
runs on.

This module freezes that original pipeline verbatim so it can serve as
a *differential oracle* — exactly the role :mod:`repro.runtime.reference`
plays for the engine:

* the generator functions here are byte-for-byte copies of the
  pre-builder implementations (same RNG consumption, same adjacency,
  same names), returning :class:`StaticGraph` instances built through
  its mapping constructor, which now also lays out the CSR buffers;
* :func:`reference_port_tables` rebuilds the port labeling the way
  ``PortLabeling`` originally did — both dictionary layers, eagerly;
* :func:`reference_plan_buffers` reproduces the original
  ``ExecutionPlan`` flatten: per-vertex rows first, flat CSR (and KT0
  port table) re-derived from them.

``tests/graphs/test_build.py`` asserts the new pipeline equals this one
per family × size × seed, and ``benchmarks/bench_instance_pipeline.py``
gates the new pipeline's setup throughput against it.  **Do not
"improve" this module** — its value is that it does not change.
"""

from __future__ import annotations

import math
import random
from array import array

from repro._typing import VertexId
from repro.errors import GenerationError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortModel

__all__ = [
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "barbell_graph",
    "random_graph_with_min_degree",
    "random_regular_graph",
    "random_geometric_dense_graph",
    "powerlaw_graph_with_floor",
    "dilate_id_space",
    "REFERENCE_GENERATORS",
    "reference_port_tables",
    "reference_plan_buffers",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GenerationError(message)


# ----------------------------------------------------------------------
# Frozen generators (dict-of-sets construction, as before the builder)
# ----------------------------------------------------------------------


def complete_graph(n: int) -> StaticGraph:
    """Frozen pre-builder ``K_n``."""
    _require(n >= 2, "complete_graph needs n >= 2")
    vertices = range(n)
    adjacency = {v: [u for u in vertices if u != v] for v in vertices}
    return StaticGraph(adjacency, name=f"complete(n={n})", validate=False)


def cycle_graph(n: int) -> StaticGraph:
    """Frozen pre-builder ``C_n``."""
    _require(n >= 3, "cycle_graph needs n >= 3")
    adjacency = {v: [(v - 1) % n, (v + 1) % n] for v in range(n)}
    return StaticGraph(adjacency, name=f"cycle(n={n})", validate=False)


def path_graph(n: int) -> StaticGraph:
    """Frozen pre-builder ``P_n``."""
    _require(n >= 2, "path_graph needs n >= 2")
    adjacency: dict[VertexId, list[VertexId]] = {v: [] for v in range(n)}
    for v in range(n - 1):
        adjacency[v].append(v + 1)
        adjacency[v + 1].append(v)
    return StaticGraph(adjacency, name=f"path(n={n})", validate=False)


def star_graph(n: int, center: VertexId = 0) -> StaticGraph:
    """Frozen pre-builder star."""
    _require(n >= 2, "star_graph needs n >= 2")
    _require(0 <= center < n, "center must be one of the n vertices")
    leaves = [v for v in range(n) if v != center]
    adjacency: dict[VertexId, list[VertexId]] = {center: leaves}
    for leaf in leaves:
        adjacency[leaf] = [center]
    return StaticGraph(adjacency, name=f"star(n={n})", validate=False)


def barbell_graph(clique_size: int) -> StaticGraph:
    """Frozen pre-builder barbell."""
    _require(clique_size >= 2, "barbell_graph needs clique_size >= 2")
    k = clique_size
    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(2 * k)}
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                adjacency[base + i].add(base + j)
                adjacency[base + j].add(base + i)
    adjacency[k - 1].add(k)
    adjacency[k].add(k - 1)
    return StaticGraph(adjacency, name=f"barbell(k={k})", validate=False)


def random_graph_with_min_degree(
    n: int,
    min_degree: int,
    rng: random.Random,
    edge_slack: float = 1.25,
) -> StaticGraph:
    """Frozen pre-builder Erdős–Rényi graph with a repair pass."""
    _require(n >= 2, "random_graph_with_min_degree needs n >= 2")
    _require(1 <= min_degree <= n - 1, "need 1 <= min_degree <= n - 1")
    p = min(1.0, edge_slack * min_degree / (n - 1))

    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(n)}
    if p >= 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                adjacency[u].add(v)
                adjacency[v].add(u)
    elif p > 0.0:
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            r = rng.random()
            w = w + 1 + int(math.log(max(1.0 - r, 1e-300)) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                adjacency[v].add(w)
                adjacency[w].add(v)

    _repair_min_degree(adjacency, min_degree, rng)
    return StaticGraph(
        adjacency, name=f"er-min-deg(n={n},delta>={min_degree})", validate=False
    )


def _repair_min_degree(
    adjacency: dict[VertexId, set[VertexId]],
    min_degree: int,
    rng: random.Random,
) -> None:
    """Frozen repair pass (uniform random completion of deficient vertices)."""
    n = len(adjacency)
    vertices = list(adjacency)
    deficient = [v for v in vertices if len(adjacency[v]) < min_degree]
    for v in deficient:
        missing = min_degree - len(adjacency[v])
        if missing <= 0:
            continue
        candidates = [u for u in vertices if u != v and u not in adjacency[v]]
        if len(candidates) < missing:
            raise GenerationError(
                f"cannot raise degree of vertex {v} to {min_degree} in an {n}-vertex graph"
            )
        for u in rng.sample(candidates, missing):
            adjacency[v].add(u)
            adjacency[u].add(v)


def random_regular_graph(
    n: int, degree: int, rng: random.Random, max_attempts: int = 200
) -> StaticGraph:
    """Frozen pre-builder configuration-model regular graph."""
    _require(n >= 2, "random_regular_graph needs n >= 2")
    _require(1 <= degree <= n - 1, "need 1 <= degree <= n - 1")
    _require(n * degree % 2 == 0, "n * degree must be even")

    for _ in range(max_attempts):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(n)}
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or v in adjacency[u]:
                ok = False
                break
            adjacency[u].add(v)
            adjacency[v].add(u)
        if ok:
            return StaticGraph(
                adjacency, name=f"regular(n={n},d={degree})", validate=False
            )

    adjacency = _circulant(n, degree)
    _double_edge_swaps(adjacency, rng, swaps=4 * n)
    return StaticGraph(adjacency, name=f"regular(n={n},d={degree})", validate=False)


def _circulant(n: int, degree: int) -> dict[VertexId, set[VertexId]]:
    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(n)}
    half = degree // 2
    for v in range(n):
        for k in range(1, half + 1):
            u = (v + k) % n
            adjacency[v].add(u)
            adjacency[u].add(v)
    if degree % 2 == 1:
        if n % 2 != 0:
            raise GenerationError("odd-degree circulant requires even n")
        for v in range(n // 2):
            u = v + n // 2
            adjacency[v].add(u)
            adjacency[u].add(v)
    return adjacency


def _double_edge_swaps(
    adjacency: dict[VertexId, set[VertexId]], rng: random.Random, swaps: int
) -> None:
    edges = [(u, v) for u in adjacency for v in adjacency[u] if u < v]
    for _ in range(swaps):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4:
            continue
        if d in adjacency[a] or b in adjacency[c]:
            continue
        adjacency[a].discard(b)
        adjacency[b].discard(a)
        adjacency[c].discard(d)
        adjacency[d].discard(c)
        adjacency[a].add(d)
        adjacency[d].add(a)
        adjacency[c].add(b)
        adjacency[b].add(c)
        edges.remove((min(a, b), max(a, b)))
        edges.remove((min(c, d), max(c, d)))
        edges.append((min(a, d), max(a, d)))
        edges.append((min(c, b), max(c, b)))


def random_geometric_dense_graph(
    n: int,
    min_degree: int,
    rng: random.Random,
    radius_slack: float = 1.3,
) -> StaticGraph:
    """Frozen pre-builder geometric graph with locality-preserving repair."""
    _require(n >= 2, "random_geometric_dense_graph needs n >= 2")
    _require(1 <= min_degree <= n - 1, "need 1 <= min_degree <= n - 1")
    points = [(rng.random(), rng.random()) for _ in range(n)]
    radius_sq = radius_slack * min_degree / ((n - 1) * math.pi)
    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(n)}

    def torus_dist_sq(p: tuple[float, float], q: tuple[float, float]) -> float:
        dx = abs(p[0] - q[0])
        dy = abs(p[1] - q[1])
        dx = min(dx, 1.0 - dx)
        dy = min(dy, 1.0 - dy)
        return dx * dx + dy * dy

    for u in range(n):
        for v in range(u + 1, n):
            if torus_dist_sq(points[u], points[v]) <= radius_sq:
                adjacency[u].add(v)
                adjacency[v].add(u)

    for v in range(n):
        if len(adjacency[v]) >= min_degree:
            continue
        others = sorted(
            (u for u in range(n) if u != v and u not in adjacency[v]),
            key=lambda u: torus_dist_sq(points[v], points[u]),
        )
        for u in others[: min_degree - len(adjacency[v])]:
            adjacency[v].add(u)
            adjacency[u].add(v)

    return StaticGraph(
        adjacency, name=f"geometric(n={n},delta>={min_degree})", validate=False
    )


def powerlaw_graph_with_floor(
    n: int,
    min_degree: int,
    rng: random.Random,
    exponent: float = 2.5,
    max_degree: int | None = None,
) -> StaticGraph:
    """Frozen pre-builder truncated-Pareto configuration graph."""
    _require(n >= 4, "powerlaw_graph_with_floor needs n >= 4")
    _require(1 <= min_degree <= n - 2, "need 1 <= min_degree <= n - 2")
    cap = max_degree if max_degree is not None else max(min_degree + 1, n // 2)
    cap = min(cap, n - 1)
    _require(cap >= min_degree, "max_degree must be >= min_degree")

    degrees = []
    for _ in range(n):
        u = rng.random()
        d = int(min_degree * (1.0 - u) ** (-1.0 / (exponent - 1.0)))
        degrees.append(max(min_degree, min(cap, d)))
    if sum(degrees) % 2 == 1:
        degrees[0] += 1 if degrees[0] < cap else -1

    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in range(n)}
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v or v in adjacency[u]:
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)

    _repair_min_degree(adjacency, min_degree, rng)
    return StaticGraph(
        adjacency,
        name=f"powerlaw(n={n},delta>={min_degree},gamma={exponent})",
        validate=False,
    )


def dilate_id_space(graph: StaticGraph, factor: int, rng: random.Random) -> StaticGraph:
    """Frozen pre-builder ID-space dilation (relabel into ``[0, factor·n')``)."""
    if factor < 1:
        raise GenerationError("dilation factor must be >= 1")
    new_space = graph.id_space * factor
    new_ids = rng.sample(range(new_space), graph.n)
    mapping = dict(zip(graph.vertices, sorted(new_ids)))
    images = {mapping[v] for v in graph.vertices}
    if len(images) != graph.n:  # pragma: no cover - sample() is injective
        raise GenerationError("relabeling mapping is not injective on the vertex set")
    adjacency = {
        mapping[v]: [mapping[u] for u in graph.neighbors(v)] for v in graph.vertices
    }
    dilated = StaticGraph(adjacency, id_space=new_space, name=graph.name, validate=True)
    dilated.name = f"{graph.name}+dilate(x{factor})"
    return dilated


#: The frozen twin of every ported generator, keyed by its public name.
REFERENCE_GENERATORS = {
    "complete_graph": complete_graph,
    "cycle_graph": cycle_graph,
    "path_graph": path_graph,
    "star_graph": star_graph,
    "barbell_graph": barbell_graph,
    "random_graph_with_min_degree": random_graph_with_min_degree,
    "random_regular_graph": random_regular_graph,
    "random_geometric_dense_graph": random_geometric_dense_graph,
    "powerlaw_graph_with_floor": powerlaw_graph_with_floor,
}


# ----------------------------------------------------------------------
# Frozen labeling and plan flattening (the pre-builder setup costs)
# ----------------------------------------------------------------------


def reference_port_tables(
    graph: StaticGraph, rng: random.Random | None = None
) -> tuple[dict, dict]:
    """Both port dictionary layers, built eagerly as ``PortLabeling`` once did.

    Returns ``(port_to_neighbor, neighbor_to_port)`` — the hidden
    bijection per vertex plus its inverse, which the original labeling
    constructed up front whether or not anything ever read them.
    """
    port_to_neighbor: dict[VertexId, tuple[VertexId, ...]] = {}
    for v in graph.vertices:
        order = list(graph.neighbors(v))
        if rng is not None:
            rng.shuffle(order)
        port_to_neighbor[v] = tuple(order)
    neighbor_to_port = {
        v: {u: i for i, u in enumerate(order)}
        for v, order in port_to_neighbor.items()
    }
    return port_to_neighbor, neighbor_to_port


def reference_plan_buffers(
    graph: StaticGraph,
    port_table: dict[VertexId, tuple[VertexId, ...]] | None = None,
    port_model: PortModel = PortModel.KT1,
) -> dict[str, array]:
    """The original eager plan compilation, down to its flat buffers.

    Reproduces what ``ExecutionPlan`` built before the CSR-native
    pipeline: the per-vertex interpreter rows first (``nbr_ids`` plus
    the KT1 ``nbr_index`` dicts or the KT0 rows), then the flat CSR
    pair and — for KT0 — the flat hidden port table re-derived from
    those rows.  Returns the canonical export surface as a dict of
    ``array('q')`` buffers: ``ids``, ``degrees``, ``offsets``,
    ``indices``, and (KT0 only) ``ports``.
    """
    ids = graph.vertices
    index_of = {v: i for i, v in enumerate(ids)}
    nbr_map = graph.neighbor_map
    nbr_ids = [nbr_map[v] for v in ids]
    n = len(ids)
    degrees = array("q", map(len, nbr_ids))

    kt0_rows = None
    if port_model is PortModel.KT1:
        # The movement-resolution dicts the old compile built eagerly.
        _ = [{u: index_of[u] for u in adj} for adj in nbr_ids]
    else:
        if port_table is None:
            port_table = {v: nbr_map[v] for v in ids}
        kt0_rows = [tuple(index_of[u] for u in port_table[v]) for v in ids]

    offsets = array("q", bytes(8 * (n + 1)))
    flat = array("q")
    total = 0
    for i, adj in enumerate(nbr_ids):
        flat.extend(index_of[u] for u in adj)
        total += len(adj)
        offsets[i + 1] = total

    buffers = {
        "ids": array("q", ids),
        "degrees": degrees,
        "offsets": offsets,
        "indices": flat,
    }
    if kt0_rows is not None:
        ports = array("q")
        for row in kt0_rows:
            ports.extend(row)
        buffers["ports"] = ports
    return buffers
