"""Workload graph generators with controllable ``(n, δ, Δ)``.

The paper's theorems quantify over *all* graphs with a given minimum
degree, so the experiment workloads are synthetic graph families whose
minimum degree (and, where relevant, maximum degree) we can dial:

* :func:`complete_graph`, :func:`cycle_graph`, :func:`path_graph`,
  :func:`star_graph`, :func:`barbell_graph` — classical fixed shapes
  used by unit tests and by the related-work baselines (the complete
  graph is the Anderson–Weber [6] setting).
* :func:`random_graph_with_min_degree` — Erdős–Rényi with a repair pass
  that guarantees ``δ_G >= min_degree``; the main Theorem 1/2 workload.
* :func:`random_regular_graph` — configuration-model regular graphs
  (``δ = Δ``), isolating the δ-dependence of the bounds.
* :func:`random_geometric_dense_graph` — dense proximity graphs, the
  "robot swarm" motivation workload.
* :func:`powerlaw_graph_with_floor` — skewed degrees with a minimum
  degree floor, stressing the ``√(nΔ)/δ`` term with ``Δ >> δ``.
* :func:`dilate_id_space` — relabels vertices into a strictly larger ID
  space ``[0, n')`` to exercise the ``n' > n`` assumption.

All generators take an explicit :class:`random.Random` and are fully
deterministic given a seed.

Every generator emits into the CSR-native construction layer
(:mod:`repro.graphs.build`): fixed shapes stream pre-sorted neighbor
runs straight into the CSR arrays (row mode, no sort at all); the
random families accumulate arcs in a flat :class:`~repro.graphs.build.EdgeBuffer`
and pay one array-level sort.  The resulting :class:`StaticGraph` is
CSR-backed — dict/tuple/frozenset views materialize lazily — and skips
re-validation, because emission guarantees symmetry and loop-freeness
by construction.  The pre-builder dict-of-sets implementations are
frozen in :mod:`repro.graphs.reference`; differential tests pin the
two pipelines to byte-identical graphs (same RNG stream, same
adjacency, same names) per family × size × seed.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain

from repro._typing import VertexId
from repro.errors import GenerationError
from repro.graphs.build import EdgeBuffer, GraphBuilder, from_adjacency_sets
from repro.graphs.graph import StaticGraph

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
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GenerationError(message)


def complete_graph(n: int) -> StaticGraph:
    """The complete graph ``K_n`` (δ = Δ = n-1; the setting of [6])."""
    _require(n >= 2, "complete_graph needs n >= 2")
    builder = GraphBuilder(n, name=f"complete(n={n})")
    for v in range(n):
        builder.add_row(chain(range(v), range(v + 1, n)))
    return builder.build()


def cycle_graph(n: int) -> StaticGraph:
    """The cycle ``C_n`` (δ = Δ = 2); the classic symmetry-breaking example."""
    _require(n >= 3, "cycle_graph needs n >= 3")
    builder = GraphBuilder(n, name=f"cycle(n={n})")
    builder.add_row((1, n - 1))
    for v in range(1, n - 1):
        builder.add_row((v - 1, v + 1))
    builder.add_row((0, n - 2))
    return builder.build()


def path_graph(n: int) -> StaticGraph:
    """The path ``P_n`` (δ = 1, Δ = 2)."""
    _require(n >= 2, "path_graph needs n >= 2")
    builder = GraphBuilder(n, name=f"path(n={n})")
    builder.add_row((1,))
    for v in range(1, n - 1):
        builder.add_row((v - 1, v + 1))
    builder.add_row((n - 2,))
    return builder.build()


def star_graph(n: int, center: VertexId = 0) -> StaticGraph:
    """A star with ``n`` vertices; ``center`` adjacent to all others."""
    _require(n >= 2, "star_graph needs n >= 2")
    _require(0 <= center < n, "center must be one of the n vertices")
    builder = GraphBuilder(n, name=f"star(n={n})")
    for v in range(n):
        if v == center:
            builder.add_row(chain(range(center), range(center + 1, n)))
        else:
            builder.add_row((center,))
    return builder.build()


def barbell_graph(clique_size: int) -> StaticGraph:
    """Two ``clique_size``-cliques joined by one edge (a bottleneck workload)."""
    _require(clique_size >= 2, "barbell_graph needs clique_size >= 2")
    k = clique_size
    builder = GraphBuilder(2 * k, name=f"barbell(k={k})")
    for v in range(k - 1):
        builder.add_row(chain(range(v), range(v + 1, k)))
    builder.add_row(chain(range(k - 1), (k,)))  # bridge endpoint k-1
    builder.add_row(chain((k - 1,), range(k + 1, 2 * k)))  # bridge endpoint k
    for v in range(k + 1, 2 * k):
        builder.add_row(chain(range(k, v), range(v + 1, 2 * k)))
    return builder.build()


def random_graph_with_min_degree(
    n: int,
    min_degree: int,
    rng: random.Random,
    edge_slack: float = 1.25,
) -> StaticGraph:
    """Erdős–Rényi graph repaired to satisfy ``δ_G >= min_degree``.

    Draws ``G(n, p)`` with ``p = edge_slack * min_degree / (n - 1)``,
    then runs a repair pass adding edges from every deficient vertex to
    uniformly random non-neighbors until its degree reaches
    ``min_degree``.  With ``edge_slack`` slightly above one, the repair
    pass touches only the tail of the degree distribution, so the
    result stays statistically close to ``G(n, p)`` while *guaranteeing*
    the minimum-degree contract the paper's theorems quantify over.

    Parameters
    ----------
    n: number of vertices.
    min_degree: required minimum degree ``δ``.
    rng: seeded random source.
    edge_slack: multiplier on the target edge probability.
    """
    _require(n >= 2, "random_graph_with_min_degree needs n >= 2")
    _require(1 <= min_degree <= n - 1, "need 1 <= min_degree <= n - 1")
    p = min(1.0, edge_slack * min_degree / (n - 1))
    name = f"er-min-deg(n={n},delta>={min_degree})"

    if p >= 1.0:
        # Full density: the complete graph, no coin flips, no repair.
        builder = GraphBuilder(n, name=name)
        for v in range(n):
            builder.add_row(chain(range(v), range(v + 1, n)))
        return builder.build()

    builder = GraphBuilder(n, name=name)
    buffer = builder.edges
    if p > 0.0:
        # Batagelj-Brandes geometric skipping over the lower triangle:
        # enumerates the edges of G(n, p) in O(m) expected time instead
        # of O(n^2) coin flips, and never emits a pair twice.
        log_q = math.log(1.0 - p)
        append = buffer.keys.append
        rand = rng.random
        log = math.log
        v, w = 1, -1
        while v < n:
            r = rand()
            w = w + 1 + int(log(max(1.0 - r, 1e-300)) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                append(v * n + w)
                append(w * n + v)

    degrees = _repair_min_degree_flat(buffer, min_degree, rng)
    return builder.build(dedup=False, degrees=degrees)


def _repair_min_degree_flat(
    buffer: EdgeBuffer, min_degree: int, rng: random.Random
):
    """Add edges until every vertex has degree at least ``min_degree``.

    Flat twin of the frozen dict repair
    (:func:`repro.graphs.reference._repair_min_degree`): same deficient
    order, same ascending candidate enumeration, same ``rng.sample``
    stream — only the bookkeeping differs (a degree array plus neighbor
    sets recovered for the deficient vertices alone, instead of
    per-vertex sets for the whole graph).  Returns the final degree
    array so the caller's :meth:`~repro.graphs.build.GraphBuilder.build`
    skips its counting pass.
    """
    n = buffer.n
    degrees = buffer.degree_counts()
    deficient = [v for v in range(n) if degrees[v] < min_degree]
    if not deficient:
        return degrees
    have = buffer.neighbor_sets_of(deficient)
    for v in deficient:
        missing = min_degree - degrees[v]
        if missing <= 0:
            continue
        mine = have[v]
        candidates = [u for u in range(n) if u != v and u not in mine]
        if len(candidates) < missing:
            raise GenerationError(
                f"cannot raise degree of vertex {v} to {min_degree} in an {n}-vertex graph"
            )
        for u in rng.sample(candidates, missing):
            buffer.add_edge(v, u)
            degrees[v] += 1
            degrees[u] += 1
            mine.add(u)
            peer = have.get(u)
            if peer is not None:
                peer.add(v)
    return degrees


def random_regular_graph(n: int, degree: int, rng: random.Random, max_attempts: int = 200) -> StaticGraph:
    """A uniform-ish ``degree``-regular graph via the configuration model.

    Pairs stubs uniformly at random and rejects pairings that create
    self-loops or parallel edges, retrying up to ``max_attempts`` times.
    Rejection succeeds quickly for ``degree = o(√n)``; for denser
    regular graphs we fall back to a repaired pairing (swap edges to
    remove collisions), which preserves regularity.
    """
    _require(n >= 2, "random_regular_graph needs n >= 2")
    _require(1 <= degree <= n - 1, "need 1 <= degree <= n - 1")
    _require(n * degree % 2 == 0, "n * degree must be even")
    name = f"regular(n={n},d={degree})"

    for _ in range(max_attempts):
        # Rebuilt (not reused) per attempt: the retry must shuffle the
        # ordered stub list, exactly as the frozen reference does.
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        builder = GraphBuilder(n, name=name)
        buffer = builder.edges
        append = buffer.keys.append
        seen: set[int] = set()
        seen_add = seen.add
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = u * n + v
            if u == v or key in seen:
                ok = False
                break
            seen_add(key)
            seen_add(v * n + u)
            append(key)
            append(v * n + u)
        if ok:
            return builder.build(
                dedup=False, degrees=array("q", [degree]) * n
            )

    # Dense fallback: deterministic circulant graph perturbed by double
    # edge swaps.  Still exactly `degree`-regular, connected, and seeded.
    adjacency = _circulant(n, degree)
    _double_edge_swaps(adjacency, rng, swaps=4 * n)
    return from_adjacency_sets(adjacency, name=name)


def _circulant(n: int, degree: int) -> dict[VertexId, set[VertexId]]:
    """A ``degree``-regular circulant graph on ``n`` vertices."""
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
    """Randomize a graph by degree-preserving double edge swaps.

    The pair is drawn by index and the two old edges deleted by index:
    ``Random.sample`` makes the same draws for any population of the
    same length, and the edges are distinct, so the edge list, the
    graph and the RNG stream match removing the old edges by value
    (the frozen reference) without its two linear scans per swap.
    """
    edges = [(u, v) for u in adjacency for v in adjacency[u] if u < v]
    for _ in range(swaps):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
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
        del edges[max(i, j)]
        del edges[min(i, j)]
        edges.append((min(a, d), max(a, d)))
        edges.append((min(c, b), max(c, b)))


def random_geometric_dense_graph(
    n: int,
    min_degree: int,
    rng: random.Random,
    radius_slack: float = 1.3,
) -> StaticGraph:
    """A random geometric graph on the unit torus, repaired to ``δ >= min_degree``.

    Models dense proximity networks (robot swarms, wireless meshes) —
    the kind of "two agents already within communication range" setting
    the neighborhood-rendezvous problem formalizes.  The connection
    radius is chosen so the *expected* degree is
    ``radius_slack * min_degree``; the repair pass then links each
    deficient vertex to its nearest non-neighbors, preserving locality.
    """
    _require(n >= 2, "random_geometric_dense_graph needs n >= 2")
    _require(1 <= min_degree <= n - 1, "need 1 <= min_degree <= n - 1")
    points = [(rng.random(), rng.random()) for _ in range(n)]
    # Expected degree on the unit torus is (n - 1) * pi * r^2.
    radius_sq = radius_slack * min_degree / ((n - 1) * math.pi)
    builder = GraphBuilder(n, name=f"geometric(n={n},delta>={min_degree})")
    buffer = builder.edges
    add_edge = buffer.add_edge
    append = buffer.keys.append

    def torus_dist_sq(p: tuple[float, float], q: tuple[float, float]) -> float:
        dx = abs(p[0] - q[0])
        dy = abs(p[1] - q[1])
        dx = min(dx, 1.0 - dx)
        dy = min(dy, 1.0 - dy)
        return dx * dx + dy * dy

    for u in range(n):
        pu = points[u]
        base = u * n
        for v in range(u + 1, n):
            if torus_dist_sq(pu, points[v]) <= radius_sq:
                append(base + v)
                append(v * n + u)

    # Locality-preserving repair: attach deficient vertices to nearest
    # non-neighbors instead of uniform ones.
    degrees = buffer.degree_counts()
    initial_deficient = [v for v in range(n) if degrees[v] < min_degree]
    if initial_deficient:
        have = buffer.neighbor_sets_of(initial_deficient)
        for v in initial_deficient:
            if degrees[v] >= min_degree:
                continue
            mine = have[v]
            others = sorted(
                (u for u in range(n) if u != v and u not in mine),
                key=lambda u: torus_dist_sq(points[v], points[u]),
            )
            for u in others[: min_degree - degrees[v]]:
                add_edge(v, u)
                degrees[v] += 1
                degrees[u] += 1
                mine.add(u)
                peer = have.get(u)
                if peer is not None:
                    peer.add(v)

    return builder.build(dedup=False, degrees=degrees)


def powerlaw_graph_with_floor(
    n: int,
    min_degree: int,
    rng: random.Random,
    exponent: float = 2.5,
    max_degree: int | None = None,
) -> StaticGraph:
    """A skewed-degree graph with a hard minimum-degree floor.

    Degrees are drawn from a truncated Pareto distribution on
    ``[min_degree, max_degree]`` (default cap ``n // 2``) and realized
    with a configuration-model pairing simplified to remove loops and
    parallel edges; a final repair pass restores the floor.  These
    graphs have ``Δ >> δ``, which is exactly the regime where Theorem
    1's ``√(nΔ)/δ`` term dominates and where the trivial ``O(Δ)``
    baseline is most expensive.
    """
    _require(n >= 4, "powerlaw_graph_with_floor needs n >= 4")
    _require(1 <= min_degree <= n - 2, "need 1 <= min_degree <= n - 2")
    cap = max_degree if max_degree is not None else max(min_degree + 1, n // 2)
    cap = min(cap, n - 1)
    _require(cap >= min_degree, "max_degree must be >= min_degree")

    degrees = []
    for _ in range(n):
        # Inverse-CDF sample from Pareto(exponent) truncated at the cap.
        u = rng.random()
        d = int(min_degree * (1.0 - u) ** (-1.0 / (exponent - 1.0)))
        degrees.append(max(min_degree, min(cap, d)))
    if sum(degrees) % 2 == 1:
        degrees[0] += 1 if degrees[0] < cap else -1

    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    builder = GraphBuilder(
        n, name=f"powerlaw(n={n},delta>={min_degree},gamma={exponent})"
    )
    buffer = builder.edges
    append = buffer.keys.append
    seen: set[int] = set()
    seen_add = seen.add
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        key = u * n + v
        if u == v or key in seen:
            continue  # simplification: drop loops and parallel edges
        mirror = v * n + u
        seen_add(key)
        seen_add(mirror)
        append(key)
        append(mirror)

    final_degrees = _repair_min_degree_flat(buffer, min_degree, rng)
    return builder.build(dedup=False, degrees=final_degrees)


def dilate_id_space(graph: StaticGraph, factor: int, rng: random.Random) -> StaticGraph:
    """Relabel ``graph`` into the larger ID space ``[0, factor * n')``.

    The paper only assumes identifiers live in ``[0, n' - 1]`` for some
    polynomially-bounded ``n' >= n``; algorithms must not rely on IDs
    being contiguous.  This helper scatters the vertices uniformly into
    a ``factor`` times larger space (keeping determinism via ``rng``),
    so tests can exercise that assumption.
    """
    if factor < 1:
        raise GenerationError("dilation factor must be >= 1")
    new_space = graph.id_space * factor
    new_ids = rng.sample(range(new_space), graph.n)
    mapping = dict(zip(graph.vertices, sorted(new_ids)))
    dilated = graph.relabeled(mapping, id_space=new_space)
    dilated.name = f"{graph.name}+dilate(x{factor})"
    return dilated
