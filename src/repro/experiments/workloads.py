"""The experiment registry: one entry per quantitative claim of the paper.

Every entry of :data:`EXPERIMENTS` regenerates one row/series family of
the paper's evaluation (its theorems and lemmas — the paper is
theory-only, so the claims *are* the evaluation; see DESIGN.md §1).
Runners accept a ``quick`` flag: benchmarks use ``quick=True``; the CLI
can run the larger sweeps.

All randomness is seeded; rerunning an experiment reproduces its table
exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro._typing import VertexId
from repro.analysis import bounds
from repro.analysis.fitting import fit_power_law
from repro.analysis.stats import summarize
from repro.baselines.explore import DfsExplorerA
from repro.baselines.oracles import run_with_distance_oracle, run_with_map_oracle
from repro.core.constants import Constants
from repro.core.construct import ConstructOnlyProgram
from repro.core.dense import dense_violations, heavy_set, light_set
from repro.core.knowledge import LocalMap
from repro.core.main_rendezvous import MainRendezvousA, MarkerB
from repro.core.gathering import gathering_programs
from repro.core.no_whiteboard import SWEEP, NoWhiteboardA, NoWhiteboardB, sweep_schedule
from repro.extensions.multihop import multihop_programs
from repro.runtime.multi import MultiAgentScheduler
from repro.core.sample import sample_run
from repro.errors import ProtocolError, ReproError
from repro.experiments.harness import StreamSummary, run_trial, run_trials
from repro.experiments.parallel import (
    SweepSpec, build_graph, clear_instance_cache, resolve_delta, run_sweep,
)
from repro.experiments.report import Table
from repro.graphs.generators import complete_graph, random_graph_with_min_degree
from repro.graphs.graph import StaticGraph
from repro.graphs.lowerbound import (
    cliques_sharing_vertex,
    double_star,
    swapped_edge_cliques,
)
from repro.graphs.ports import PortModel
from repro.lowerbound.glue import build_theorem6_instance
from repro.runtime.agent import AgentProgram
from repro.runtime.scheduler import SyncScheduler
from repro.runtime.single import run_single_agent

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment"]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _rng(tag: str) -> random.Random:
    return random.Random(f"experiment:{tag}")


def _delta_for(n: int, exponent: float = 0.75) -> int:
    # One δ convention for registry experiments and sweep specs alike.
    return resolve_delta(f"n^{exponent}", n)


#: ``SweepSpec``'s default δ rule, which most registry grids keep.
_RULE = "n^0.75"


def _met_groups(spec: SweepSpec) -> dict[tuple[str, int, str, str], StreamSummary]:
    """Run ``spec`` inline; its groups keyed ``(family, n, δ rule, algorithm)``.

    A claim's table is read off these aggregates, so a group in which
    any trial failed to meet raises :class:`ReproError` instead.
    """
    groups = {}
    for key, group in run_sweep(spec, workers=1, stream=True).groups.items():
        family, n, rule, algorithm, _ = key
        if group.met != group.total:
            raise ReproError(
                f"{spec.name}: {algorithm} met in only {group.met}/{group.total} "
                f"trials on {family} n={n} delta={rule}"
            )
        groups[family, n, rule, algorithm] = group
    return groups


def two_hop_oracle(
    graph: StaticGraph, start: VertexId, avoid_via: frozenset[VertexId] = frozenset()
) -> tuple[tuple[VertexId, ...], dict[VertexId, VertexId]]:
    """The oracle dense set ``N⁺(N⁺(start))`` with 2-hop route hints.

    Every closed neighbor ``u`` of ``start`` has its whole closed
    neighborhood inside this set, so its heaviness is ``deg(u)+1 ≥ δ``
    — comfortably (δ/8)-heavy.  Used by the Lemma 1 and Theorem 2
    phase-mechanism experiments to bypass ``Construct``.

    ``avoid_via`` lists vertices not to use as route intermediates
    when an alternative exists.  The phase-mechanism experiment avoids
    ``v₀ᵇ`` there, otherwise agent ``a``'s travel keeps passing through
    the waiting agent ``b`` and the measured rounds reflect that
    incidental collision rather than the schedule under study.
    """
    closed = graph.closed_neighbor_set(start)
    members = set(closed)
    via: dict[VertexId, VertexId] = {}
    preferred = [s for s in sorted(closed) if s != start and s not in avoid_via]
    fallback = [s for s in sorted(closed) if s != start and s in avoid_via]
    for s in preferred + fallback:
        for w in graph.neighbors(s):
            if w not in members:
                members.add(w)
                via[w] = s
    return tuple(sorted(members)), via


def _adjacent_starts(graph: StaticGraph, seed: int) -> tuple[VertexId, VertexId]:
    from repro.core.api import pick_adjacent_starts

    return pick_adjacent_starts(graph, random.Random(f"starts:{seed}"))


def run_theorem2_oracle(
    graph: StaticGraph,
    start_a: VertexId,
    start_b: VertexId,
    seed: int,
    constants: Constants,
):
    """Run the Theorem 2 phase mechanism with an oracle dense set.

    Skips ``Construct`` (oracle set) and shrinks the barrier to a
    single round so the measured rounds isolate the ``n/√δ·log²n``
    phase schedule.  Returns the scheduler's execution result.
    """
    delta = graph.min_degree
    # Avoid routing agent a through b's sweep set N⁺(v₀ᵇ): incidental
    # travel collisions would otherwise dominate the measurement (they
    # are legitimate meetings, just not the schedule under study).
    avoid = graph.closed_neighbor_set(start_b)
    target_set, via = two_hop_oracle(graph, start_a, avoid_via=avoid)
    program_a = NoWhiteboardA(
        delta, constants, oracle_target_set=target_set, oracle_routes_via=via
    )
    program_b = NoWhiteboardB(delta, constants)
    phases = math.ceil(graph.id_space / constants.block_width(delta))
    budget = (
        constants.sync_barrier(graph.id_space, delta)
        + (phases + 2) * constants.phase_length(graph.id_space)
        + 10_000
    )
    scheduler = SyncScheduler(
        graph,
        program_a,
        program_b,
        start_a,
        start_b,
        seed=seed,
        whiteboards=False,
        max_rounds=budget,
    )
    return scheduler.run()


def _construct_solo(
    graph: StaticGraph, start: VertexId, delta: float, constants: Constants, seed: int
) -> ConstructOnlyProgram:
    """Run ``Construct`` alone on ``graph`` (no partner to collide with)."""
    program = ConstructOnlyProgram(delta, constants)
    budget = int(
        400 * constants.sample_multiplier * bounds.theorem1_construct_bound(
            graph.n, delta
        )
        + 100_000
    )
    run_single_agent(
        program, graph, start, rounds=budget, seed=seed, id_space=graph.id_space
    )
    return program


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def run_t1_scaling(quick: bool = True) -> list[Table]:
    """Theorem 1: rounds scale like ``n/δ·log²n + √(nΔ)/δ·log n``.

    Workload: dense random *geometric* graphs, whose clustered
    neighborhoods make the optimistic decisions of ``Construct`` fire
    as intended (the favorable case of the bound).  The adversarial
    spread case — where strict runs carry the load — is measured
    separately in the CONSTRUCT experiment on ER graphs.
    """
    ns = (300, 600, 1200, 2400) if quick else (300, 600, 1200, 2400, 4800)
    groups = _met_groups(SweepSpec(
        name="t1-scaling", families=("geometric",), ns=ns,
        algorithms=("theorem1", "trivial"), seeds=tuple(range(5 if quick else 9)),
    ))
    table = Table(
        title="T1-SCALING — Theorem 1 rounds vs n (geometric, delta = n^0.75)",
        headers=[
            "n", "delta", "Delta", "median rounds", "mean rounds",
            "bound", "median/bound", "trivial median",
        ],
    )
    points = []
    for n in ns:
        graph = build_graph("geometric", n, _RULE)
        summary = groups["geometric", n, _RULE, "theorem1"].summary()
        bound = bounds.theorem1_bound(graph.n, graph.min_degree, graph.max_degree)
        points.append((n, summary.median))
        table.add_row(
            n, graph.min_degree, graph.max_degree, summary.median, summary.mean,
            bound, summary.median / bound,
            groups["geometric", n, _RULE, "trivial"].summary().median,
        )
    fit = fit_power_law([x for x, _ in points], [y for _, y in points])
    table.add_note(
        f"log-log fit of theorem1 median rounds vs n: exponent {fit.exponent:.2f} "
        f"(R^2 {fit.r_squared:.3f}); bound predicts ~n^0.25 * polylog at delta = n^0.75"
    )
    return [table]


def run_t1_delta(quick: bool = True) -> list[Table]:
    """Theorem 1: 1/δ decay at fixed n and the crossover vs O(Δ).

    Uses the ``aggressive`` constants preset: the paper's crossover
    point ``δ = ω(√n·log n)`` is asymptotic, and the hidden constants
    of ``Construct`` push it beyond simulable sizes under the default
    preset.  With 48×-scaled constants the crossover appears inside
    the sweep; the bound *shape* (monotone 1/δ decay against a growing
    Δ) is preset-independent.
    """
    n = 1600 if quick else 3200
    rules = tuple(f"n^{e}" for e in (0.55, 0.65, 0.75, 0.85, 0.93)) + (str(n // 2),)
    groups = _met_groups(SweepSpec(
        name="t1-delta", ns=(n,), deltas=rules, algorithms=("theorem1", "trivial"),
        seeds=tuple(range(3 if quick else 5)), preset="aggressive",
    ))
    table = Table(
        title=f"T1-DELTA — Theorem 1 rounds vs delta (n = {n}, aggressive constants)",
        headers=[
            "delta req", "delta", "Delta", "theorem1 median", "trivial median",
            "t1/trivial",
        ],
    )
    for rule in rules:
        graph = build_graph("er-min-degree", n, rule)
        t1_median = groups["er-min-degree", n, rule, "theorem1"].summary().median
        tr_median = groups["er-min-degree", n, rule, "trivial"].summary().median
        table.add_row(
            resolve_delta(rule, n), graph.min_degree, graph.max_degree, t1_median,
            tr_median, t1_median / tr_median,
        )
    table.add_note(
        "paper: theorem1 beats the trivial probe once delta = omega(sqrt(n) log n) "
        f"~ {bounds.sublinear_threshold_theorem1(n):.0f} for this n; the t1/trivial "
        "column should fall below 1 toward the dense end"
    )
    return [table]


def run_t2_phases(quick: bool = True) -> list[Table]:
    """Theorem 2 phase mechanism in isolation (oracle dense set)."""
    ns = [600, 1200, 2400] if quick else [600, 1200, 2400, 4800]
    trials = 12 if quick else 24
    # phi = 0.6 sparsifies the probe sets so the first common block is
    # several phases in (otherwise the n/sqrt(delta) growth hides below
    # one phase at simulable n); the expected intersection is still
    # ~25 vertices, far from empty.
    constants = Constants.tuned().with_overrides(
        preset="tuned-oracle",
        phi_multiplier=0.6,
        sparse_c2=2.7,
        sync_multiplier=1e-9,  # barrier -> 1 round; Construct is skipped
    )
    table = Table(
        title="T2-PHASES — whiteboard-free phase mechanism (delta ~ 2*sqrt(n))",
        headers=[
            "n", "delta", "median rounds", "mean rounds",
            "phase bound n/sqrt(delta)*ln^2 n", "mean/bound", "met",
        ],
    )
    points = []
    for index, n in enumerate(ns):
        delta = max(16, 2 * round(math.sqrt(n)))
        graph = random_graph_with_min_degree(n, delta, _rng(f"t2p:{index}"))
        start_a, start_b = _adjacent_starts(graph, index)
        results = [
            run_theorem2_oracle(graph, start_a, start_b, seed, constants)
            for seed in range(trials)
        ]
        met = [r for r in results if r.met]
        rounds = [r.rounds for r in met]
        summary = summarize(rounds) if rounds else None
        bound = bounds.theorem2_phase_bound(graph.n, graph.min_degree)
        mean = summary.mean if summary else float("nan")
        points.append((n / math.sqrt(graph.min_degree), mean))
        table.add_row(
            n, graph.min_degree, summary.median if summary else float("nan"), mean,
            bound, (mean / bound) if summary else float("nan"),
            f"{len(met)}/{trials}",
        )
    valid = [(x, y) for x, y in points if y == y]
    if len(valid) >= 2:
        fit = fit_power_law([x for x, _ in valid], [y for _, y in valid])
        table.add_note(
            f"fit of mean rounds vs n/sqrt(delta): exponent {fit.exponent:.2f} "
            "(1.0 = the Theorem 2 shape); the phase index of the first common "
            "probe vertex is geometric, hence the wide per-seed spread"
        )
    return [table]


def run_t2_end_to_end(quick: bool = True) -> list[Table]:
    """Full Theorem 2 algorithm (documents the early-collision effect)."""
    ns = (400, 800) if quick else (400, 800, 1600)
    groups = _met_groups(SweepSpec(
        name="t2-full", ns=ns, deltas=("n^0.8",), algorithms=("theorem2",),
        seeds=tuple(range(3 if quick else 5)),
    ))
    constants = Constants.tuned()  # the sweep's default preset
    table = Table(
        title="T2-FULL — whiteboard-free algorithm end to end",
        headers=["n", "delta", "mean rounds", "t'", "met before barrier", "met"],
    )
    for n in ns:
        graph = build_graph("er-min-degree", n, "n^0.8")
        group = groups["er-min-degree", n, "n^0.8", "theorem2"]
        t_prime = constants.sync_barrier(graph.id_space, graph.min_degree)
        early = sum(1 for rounds in group.rounds if rounds < t_prime)
        table.add_row(
            n, graph.min_degree, group.summary().mean, t_prime,
            f"{early}/{group.met}", f"{group.met}/{group.total}",
        )
    table.add_note(
        "agent b waits at v0_b (adjacent to a's start) until the barrier, so "
        "Construct's wandering almost always collides with it first; the paper's "
        "bound still holds, the measured rounds are just far below it"
    )
    return [table]


def run_construct(quick: bool = True) -> list[Table]:
    """Lemmas 6-8: Construct iterations, strict runs, and round scaling."""
    ns = [300, 600, 1200, 2400] if quick else [300, 600, 1200, 2400, 4800]
    trials = 3 if quick else 5
    constants = Constants.tuned()
    table = Table(
        title="CONSTRUCT — Lemmas 6-8 (delta = n^0.75)",
        headers=[
            "n", "delta", "mean rounds", "rounds/(n ln^2 n / delta)",
            "mean iterations", "2n/delta cap", "max strict runs", "|T^a| mean",
        ],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n), _rng(f"cons:{index}"))
        delta = graph.min_degree
        runs = [
            _construct_solo(graph, graph.vertices[0], delta, constants, seed)
            for seed in range(trials)
        ]
        outcomes = [p.outcome for p in runs]
        if not all(o is not None and o.completed for o in outcomes):
            raise ReproError(f"CONSTRUCT: a solo Construct run did not finish at n={n}")
        rounds = [o.end_round - o.start_round for o in outcomes]
        bound = bounds.theorem1_construct_bound(n, delta)
        table.add_row(
            n, delta, summarize(rounds).mean, summarize(rounds).mean / bound,
            summarize([o.iterations for o in outcomes]).mean, 2 * n / delta,
            max(o.strict_runs for o in outcomes),
            summarize([len(o.target_set) for o in outcomes]).mean,
        )
    table.add_note("Lemma 6 predicts <= 2n/delta iterations; Lemma 7 O(log n) strict runs")
    return [table]


class _SampleProbe(AgentProgram):
    """Single-agent wrapper running one ``Sample(Γ, α)`` call."""

    def __init__(self, alpha: float, constants: Constants) -> None:
        self._alpha = alpha
        self._constants = constants
        self.outcome = None
        self.home_closed: frozenset[VertexId] = frozenset()

    def run(self, ctx):
        self.home_closed = frozenset(ctx.view.closed_neighbors)
        local_map = LocalMap(ctx.start_vertex, ctx.view.neighbors)
        self.outcome = yield from sample_run(
            ctx, sorted(self.home_closed), self._alpha, local_map,
            self.home_closed, self._constants,
        )


def run_sample_accuracy(quick: bool = True) -> list[Table]:
    """Lemma 2 / Corollary 1: Sample's heavy/light classification."""
    ns = [300, 600] if quick else [300, 600, 1200]
    trials = 5 if quick else 10
    constants = Constants.testing()
    table = Table(
        title="SAMPLE-ACC — Lemma 2 classification errors",
        headers=[
            "n", "delta", "trials", "candidates/run",
            "alpha-light declared heavy", "4alpha-heavy declared light",
        ],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n, 0.7), _rng(f"sam:{index}"))
        start = graph.vertices[0]
        alpha = constants.alpha(graph.min_degree)
        false_heavy = 0
        false_light = 0
        candidates = 0
        for seed in range(trials):
            probe = _SampleProbe(alpha, constants)
            run_single_agent(
                probe, graph, start, rounds=10**9, seed=seed, id_space=graph.id_space
            )
            gamma = probe.home_closed
            truly_light = light_set(graph, gamma, alpha, universe=gamma)
            truly_heavy4 = heavy_set(graph, gamma, 4 * alpha, universe=gamma)
            declared_heavy = probe.outcome.heavy
            candidates += len(gamma)
            false_heavy += len(declared_heavy & truly_light)
            false_light += len(truly_heavy4 - declared_heavy)
        table.add_row(
            n, graph.min_degree, trials, candidates // trials, false_heavy, false_light
        )
    table.add_note("Lemma 2 bounds each error type by 1/n^8 per candidate (paper constants)")
    return [table]


def run_main_rendezvous(quick: bool = True) -> list[Table]:
    """Lemma 1: Main-Rendezvous with an oracle dense set."""
    ns = [300, 600, 1200, 2400] if quick else [300, 600, 1200, 2400, 4800]
    trials = 5 if quick else 10
    table = Table(
        title="MAIN-RDV — Lemma 1 meeting time with oracle T^a (delta = n^0.75)",
        headers=[
            "n", "delta", "Delta", "|T^a|", "mean rounds",
            "bound sqrt(n*Delta)/delta*ln n", "rounds/bound",
        ],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n), _rng(f"mr:{index}"))
        start_a, start_b = _adjacent_starts(graph, index)
        target_set, via = two_hop_oracle(graph, start_a)
        rounds = []
        for seed in range(trials):
            scheduler = SyncScheduler(
                graph,
                MainRendezvousA(target_set, routes_via=via),
                MarkerB(),
                start_a,
                start_b,
                seed=seed,
                whiteboards=True,
                max_rounds=4_000_000,
            )
            result = scheduler.run()
            if not result.met:
                raise ReproError(f"MAIN-RDV: seed {seed} did not meet at n={n}")
            rounds.append(result.rounds)
        bound = bounds.theorem1_meeting_bound(n, graph.min_degree, graph.max_degree)
        table.add_row(
            n, graph.min_degree, graph.max_degree, len(target_set),
            summarize(rounds).mean, bound, summarize(rounds).mean / bound,
        )
    return [table]


def run_estimation(quick: bool = True) -> list[Table]:
    """Corollary 2: doubling estimation costs only a constant factor."""
    ns = [300, 600, 1200] if quick else [300, 600, 1200, 2400]
    trials = 3 if quick else 5
    constants = Constants.tuned()
    table = Table(
        title="ESTIMATION — Corollary 2 (known delta vs doubling estimation)",
        headers=["n", "delta", "known mean", "estimated mean", "ratio", "max restarts"],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n), _rng(f"est:{index}"))
        known = run_trials(graph, "theorem1", range(trials), constants=constants)
        estimated = run_trials(
            graph, "theorem1", range(trials), constants=constants, delta="estimate"
        )
        if not all(r.met for r in known + estimated):
            raise ReproError(f"ESTIMATION: a theorem1 trial did not meet at n={n}")
        known_mean = summarize([r.rounds for r in known]).mean
        est_mean = summarize([r.rounds for r in estimated]).mean
        restarts = max(r.reports["a"].get("estimation_restarts", 0) for r in estimated)
        table.add_row(n, graph.min_degree, known_mean, est_mean,
                      est_mean / known_mean, restarts)
    return [table]


def run_lb_mindeg(quick: bool = True) -> list[Table]:
    """Theorem 3 / Figure 1: Ω(Δ) on double stars (delta = o(sqrt(n)))."""
    ns = [512, 1024, 2048] if quick else [512, 1024, 2048, 4096]
    trials = 5 if quick else 10
    table = Table(
        title="LB-MINDEG — Theorem 3 double stars",
        headers=[
            "n", "Delta", "trivial mean rounds", "trivial rounds/n",
            "walk mean rounds", "walk rounds/n",
        ],
    )
    for index, n in enumerate(ns):
        graph, j, k = double_star(n)
        trivial = run_trials(graph, "trivial", range(trials), start_a=j, start_b=k)
        walks = run_trials(
            graph, "random-walk", range(trials), start_a=j, start_b=k,
            max_rounds=400 * n,
        )
        if not all(r.met for r in trivial):
            raise ReproError(f"LB-MINDEG: a trivial trial did not meet at n={n}")
        t_mean = summarize([r.rounds for r in trivial]).mean
        w_rounds = [r.rounds for r in walks]  # censored at budget on failure
        w_mean = summarize(w_rounds).mean
        table.add_row(n, graph.max_degree, t_mean, t_mean / n, w_mean, w_mean / n)
    table.add_note(
        "every algorithm needs Omega(Delta) = Omega(n) here; the sublinear regime "
        "requires delta = omega(sqrt(n) log n), violated by delta = 1"
    )
    return [table]


def run_lb_kt0(quick: bool = True) -> list[Table]:
    """Theorem 4 / Figure 2: Ω(n) without neighborhood IDs (KT0)."""
    ns = [256, 512, 1024] if quick else [256, 512, 1024, 2048]
    trials = 5 if quick else 10
    table = Table(
        title="LB-KT0 — Theorem 4 swapped-edge cliques under KT0",
        headers=["n", "delta", "walk met", "walk mean rounds", "rounds/n"],
    )
    for index, n in enumerate(ns):
        graph, labeling, v_a, v_b = swapped_edge_cliques(n, _rng(f"kt0:{index}"))
        walks = run_trials(
            graph, "random-walk", range(trials), start_a=v_a, start_b=v_b,
            max_rounds=800 * n, port_model=PortModel.KT0, labeling=labeling,
        )
        met = sum(r.met for r in walks)
        mean = summarize([r.rounds for r in walks]).mean
        table.add_row(n, graph.min_degree, f"{met}/{trials}", mean, mean / n)
    table.add_note(
        "the crafted ports make the cross edges indistinguishable from clique "
        "edges; KT1-dependent algorithms cannot run at all in this model"
    )
    return [table]


def run_lb_dist2(quick: bool = True) -> list[Table]:
    """Theorem 5 / Figure 3: initial distance two."""
    ns = [257, 513, 1025] if quick else [257, 513, 1025, 2049]
    trials = 5 if quick else 10
    table = Table(
        title="LB-DIST2 — Theorem 5 cliques sharing a vertex (distance 2 starts)",
        headers=[
            "n", "delta", "trivial met", "walk mean rounds", "walk rounds/n",
        ],
    )
    for index, n in enumerate(ns):
        graph, c_a, c_b = cliques_sharing_vertex(n)
        trivial_met = sum(r.met for r in run_trials(
            graph, "trivial", range(trials), start_a=c_a, start_b=c_b, check_instance=False,
        ))
        walks = run_trials(
            graph, "random-walk", range(trials), start_a=c_a, start_b=c_b,
            max_rounds=400 * n, check_instance=False,
        )
        mean = summarize([r.rounds for r in walks]).mean
        table.add_row(n, graph.min_degree, f"{trivial_met}/{trials}", mean, mean / n)
    table.add_note(
        "the trivial probe relies on the adjacency contract and fails outright at "
        "distance 2; Theorem 5's Omega(n) for *all* algorithms is existential "
        "(adversarial choice of the shared vertex), see EXPERIMENTS.md"
    )
    return [table]


def run_lb_deterministic(quick: bool = True) -> list[Table]:
    """Theorem 6: deterministic algorithms need Ω(n); randomization doesn't."""
    ns = [128, 256, 512] if quick else [128, 256, 512, 1024]
    table = Table(
        title="LB-DET — Theorem 6 glued adversarial instances",
        headers=[
            "n", "glued delta", "budget n/32", "deterministic met",
            "randomized (theorem1) met", "theorem1 rounds",
        ],
    )
    for index, n in enumerate(ns):
        instance = build_theorem6_instance(
            lambda: DfsExplorerA(randomize=False),
            lambda: DfsExplorerA(randomize=False),
            n=n,
            rng=_rng(f"det:{index}"),
        )
        scheduler = SyncScheduler(
            instance.graph,
            DfsExplorerA(randomize=False),
            DfsExplorerA(randomize=False),
            instance.start_a,
            instance.start_b,
            seed=0,
            whiteboards=False,
            max_rounds=instance.budget,
        )
        det = scheduler.run()
        randomized = run_trial(
            instance.graph, "theorem1", seed=index,
            start_a=instance.start_a, start_b=instance.start_b,
        )
        table.add_row(
            n, instance.graph.min_degree, instance.budget, det.met,
            randomized.met, randomized.rounds,
        )
    table.add_note(
        "the adversary (Lemma 9) guarantees the deterministic pair cannot meet "
        "within n/32 rounds; the randomized Theorem 1 algorithm meets quickly on "
        "the very same instance"
    )
    return [table]


def run_complete_aw(quick: bool = True) -> list[Table]:
    """Anderson-Weber [6] on complete graphs, vs our generalization."""
    ns = (256, 576, 1024, 1600) if quick else (256, 1024, 2304, 4096)
    trials = 5 if quick else 10
    groups = _met_groups(SweepSpec(
        name="complete-aw", families=("complete",), ns=ns,
        algorithms=("anderson-weber", "trivial"), seeds=tuple(range(trials)),
    ))
    groups.update(_met_groups(SweepSpec(
        name="complete-aw-theorem1", families=("complete",), ns=ns,
        algorithms=("theorem1",), seeds=tuple(range(2 if quick else trials)),
    )))
    table = Table(
        title="COMPLETE-AW — complete graphs: [6]'s O(sqrt n) vs theorem1 vs trivial",
        headers=[
            "n", "AW mean rounds", "AW/sqrt(n)", "theorem1 mean", "trivial mean",
        ],
    )
    aw_points = []
    for n in ns:
        aw_mean = groups["complete", n, _RULE, "anderson-weber"].summary().mean
        aw_points.append((n, aw_mean))
        table.add_row(
            n, aw_mean, aw_mean / math.sqrt(n),
            groups["complete", n, _RULE, "theorem1"].summary().mean,
            groups["complete", n, _RULE, "trivial"].summary().mean,
        )
    fit = fit_power_law([x for x, _ in aw_points], [y for _, y in aw_points])
    table.add_note(
        f"AW fit: rounds ~ n^{fit.exponent:.2f} (paper [6]: 0.5); the trivial "
        "probe is Theta(n) here since Delta = n-1"
    )
    return [table]


def run_shootout(quick: bool = True) -> list[Table]:
    """Who wins where: paper algorithms vs baselines across families."""
    n = 800
    rows = (
        ("er-min-degree", _RULE), ("geometric", _RULE), ("powerlaw", "n^0.62"),
        ("regular", _RULE), ("complete", _RULE),
    )
    algorithms = ("theorem1", "trivial", "explore", "random-walk")
    seeds = tuple(range(3 if quick else 5))
    groups = _met_groups(SweepSpec(
        name="shootout", families=tuple(f for f, rule in rows if rule == _RULE),
        ns=(n,), algorithms=algorithms, seeds=seeds,
    ))
    groups.update(_met_groups(SweepSpec(
        name="shootout-powerlaw", families=("powerlaw",), ns=(n,),
        deltas=("n^0.62",), algorithms=algorithms, seeds=seeds,
    )))
    table = Table(
        title=f"SHOOTOUT — mean rounds by family and algorithm (n = {n})",
        headers=["family", "delta", "Delta", *algorithms],
    )
    for family, rule in rows:
        graph = build_graph(family, n, rule)
        table.add_row(
            family, graph.min_degree, graph.max_degree,
            *(groups[family, n, rule, a].summary().mean for a in algorithms),
        )
    table.add_note("at n = 800 with safe constants the trivial probe dominates — "
                   "consistent with the paper: sublinearity is asymptotic, kicking in "
                   "past delta = omega(sqrt(n) log n) with the hidden constants of "
                   "Construct (see T1-DELTA for the crossover under scaled constants)")
    return [table]


def run_ablation_constants(quick: bool = True) -> list[Table]:
    """Paper vs scaled constants: Construct cost tracks the multiplier.

    Measured on solo ``Construct`` runs — in full two-agent runs the
    incidental collision with agent ``b`` ends most executions before
    the constants matter.
    """
    n = 400
    trials = 2 if quick else 5
    graph = random_graph_with_min_degree(n, _delta_for(n), _rng("ablc:0"))
    start = graph.vertices[0]
    delta = graph.min_degree
    alpha_ref = Constants.paper().alpha(delta)
    table = Table(
        title=f"ABL-CONSTANTS — constants presets on solo Construct (n = {n})",
        headers=[
            "preset", "sample multiplier", "mean rounds", "rounds/multiplier",
            "dense violations",
        ],
    )
    for constants in (Constants.paper(), Constants.testing(), Constants.tuned(),
                      Constants.aggressive()):
        rounds, violations = [], 0
        for seed in range(trials):
            program = _construct_solo(graph, start, delta, constants, seed)
            outcome = program.outcome
            rounds.append(outcome.end_round - outcome.start_round)
            violations += len(
                dense_violations(graph, start, outcome.target_set, alpha_ref, 2)
            )
        mean = summarize(rounds).mean
        table.add_row(
            constants.preset, constants.sample_multiplier, mean,
            mean / constants.sample_multiplier, violations,
        )
    table.add_note("rounds divided by the sample multiplier should be roughly "
                   "flat; the dense condition must hold under every preset")
    return [table]


def run_ablation_threshold(quick: bool = True) -> list[Table]:
    """Sample threshold sensitivity: dense-condition violations appear."""
    n = 600
    trials = 3 if quick else 5
    base = Constants.testing()
    # delta = n^0.6 keeps adjacent neighborhoods nearly disjoint, so a
    # too-low threshold genuinely risks false-heavy classifications.
    graph = random_graph_with_min_degree(n, _delta_for(n, 0.6), _rng("ablt:0"))
    start = graph.vertices[0]
    delta = graph.min_degree
    alpha = base.alpha(delta)
    table = Table(
        title=f"ABL-THRESHOLD — Sample threshold ratio vs dense condition (n = {n})",
        headers=[
            "threshold ratio", "mean rounds", "mean strict runs",
            "dense violations (of |N+| candidates)",
        ],
    )
    for ratio in (0.4, 150.0 / 96.0, 4.0):
        constants = base.with_overrides(preset=f"thr={ratio:.2f}", threshold_ratio=ratio)
        rounds, strict, violations = [], [], 0
        for seed in range(trials):
            program = _construct_solo(graph, start, delta, constants, seed)
            outcome = program.outcome
            rounds.append(outcome.end_round - outcome.start_round)
            strict.append(outcome.strict_runs)
            violations += len(
                dense_violations(graph, start, outcome.target_set, alpha, 2)
            )
        table.add_row(
            ratio, summarize(rounds).mean, summarize(strict).mean, violations
        )
    table.add_note("too-low thresholds mark light vertices heavy (risking dense-"
                   "condition violations); too-high thresholds force strict runs")
    return [table]


def run_ablation_dwell(quick: bool = True) -> list[Table]:
    """Theorem 2 dwell slack: the deviation DESIGN.md #5 justifies.

    Audits agent ``b``'s schedule in isolation (no partner — in
    two-agent runs incidental meetings swamp the mechanism): when the
    dwell/repetition length ``L`` shrinks below agent ``b``'s
    4-rounds-per-member sweep cost, repetitions truncate
    (``sweep_overflows``) and the coverage guarantee behind Theorem 2's
    meeting argument breaks.  The counts are read off ``b``'s schedule
    coroutine (:func:`~repro.core.no_whiteboard.sweep_schedule`), fed
    the draws a solo run of its program makes: the same sweeps, without
    playing their rounds.
    """
    n = 600
    trials = 3 if quick else 6
    base = Constants.tuned().with_overrides(
        phi_multiplier=2.5, sparse_c2=11.25, sync_multiplier=1e-9
    )
    # A complete graph concentrates ~beta members of Phi_b in every ID
    # block, so the sweep cost actually stresses the dwell length.
    graph = complete_graph(n)
    delta = graph.min_degree
    start_b = graph.vertices[0]
    table = Table(
        title=f"ABL-DWELL — agent b sweep truncation vs dwell slack (n = {n})",
        headers=[
            "dwell slack", "dwell L", "max block sweep cost",
            "total sweep overflows",
        ],
    )
    for slack in (0.25, 0.5, 1.0, 1.5):
        constants = base.with_overrides(preset=f"slack={slack}", dwell_slack=slack)
        overflows = 0
        max_cost = 0
        dwell = constants.dwell_rounds(graph.id_space)
        for seed in range(trials):
            # A solo run's tape, "{seed}:a", and its round-0 view.
            _, blocks, stats = NoWhiteboardB(delta, constants).opening(
                random.Random(f"{seed}:a"), graph.closed_neighbor_set(start_b),
                graph.id_space,
            )
            overflows += sum(
                item[5] for item in sweep_schedule(
                    blocks, start_b, float(delta), graph.id_space, constants, 0
                ) if item[0] is SWEEP
            )
            max_cost = max(max_cost, 4 * stats["max_block_size"])
        table.add_row(slack, dwell, max_cost, overflows)
    table.add_note("overflows appear once L falls below the densest block's sweep "
                   "cost; the shipped slack of 1.5 keeps a 50% margin")
    return [table]


def run_oracles(quick: bool = True) -> list[Table]:
    """What the related-work oracles buy (Section 1.3 positioning).

    Compares the paper's oracle-free Theorem 1 algorithm against the
    common-map baseline ([10]-style: both agents know the graph) and
    the distance-detection baseline ([15]-style: agent a can query its
    distance to agent b) on the same instances.
    """
    ns = [300, 600, 1200] if quick else [300, 600, 1200, 2400]
    trials = 5 if quick else 10
    constants = Constants.tuned()
    table = Table(
        title="ORACLES — oracle-equipped related work vs the oracle-free algorithm",
        headers=[
            "n", "start dist", "delta", "Delta", "map-oracle mean",
            "distance-oracle mean", "theorem1 mean", "theorem1 met",
        ],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n), _rng(f"orc:{index}"))
        start_a, start_b = _adjacent_starts(graph, index)
        start_b2 = next(
            v for v in graph.vertices if graph.distance(start_a, v) == 2
        )
        for distance, partner in ((1, start_b), (2, start_b2)):
            map_rounds, dist_rounds = [], []
            for seed in range(trials):
                map_result = run_with_map_oracle(graph, start_a, partner, seed)
                dist_result = run_with_distance_oracle(graph, start_a, partner, seed)
                if not (map_result.met and dist_result.met):
                    raise ReproError(f"ORACLES: an oracle run missed at n={n}, seed {seed}")
                map_rounds.append(map_result.rounds)
                dist_rounds.append(dist_result.rounds)
            t1 = run_trials(
                graph, "theorem1", range(trials), constants=constants,
                start_a=start_a, start_b=partner, check_instance=False,
                max_rounds=4_000_000,
            )
            t1_rounds = [r.rounds for r in t1 if r.met]
            table.add_row(
                n, distance, graph.min_degree, graph.max_degree,
                summarize(map_rounds).mean, summarize(dist_rounds).mean,
                summarize(t1_rounds).mean if t1_rounds else float("nan"),
                f"{len(t1_rounds)}/{trials}",
            )
    table.add_note("a common map collapses the problem to the graph eccentricity "
                   "and distance detection to O(Delta*d) at any start distance — "
                   "at distance 1 gradient descent coincides with the trivial "
                   "probe; the paper's contribution is doing without either oracle")
    return [table]


def run_ext_gathering(quick: bool = True) -> list[Table]:
    """Extension: leader-based k-agent gathering on the paper's primitives."""
    n = 400
    ks = [2, 4, 8] if quick else [2, 4, 8, 16]
    trials = 3 if quick else 5
    constants = Constants.tuned()
    graph = random_graph_with_min_degree(n, _delta_for(n), _rng("gath:0"))
    leader_home = graph.vertices[0]
    table = Table(
        title=f"EXT-GATHER — k-agent gathering (n = {n}, delta = {graph.min_degree})",
        headers=["agents k", "gathered", "mean rounds", "mean leader probes"],
    )
    for k in ks:
        follower_homes = list(graph.neighbors(leader_home))[: k - 1]
        rounds, probes, completed = [], [], 0
        for seed in range(trials):
            leader, followers = gathering_programs(
                k - 1, delta=graph.min_degree, constants=constants
            )
            scheduler = MultiAgentScheduler(
                graph,
                [leader, *followers],
                [leader_home, *follower_homes],
                names=["leader"] + [f"f{i}" for i in range(k - 1)],
                seed=seed,
                max_rounds=6_000_000,
            )
            result = scheduler.run()
            if result.completed:
                completed += 1
                rounds.append(result.rounds)
                probes.append(result.reports["leader"].get("probes", 0))
        table.add_row(
            k, f"{completed}/{trials}",
            summarize(rounds).mean if rounds else float("nan"),
            summarize(probes).mean if probes else float("nan"),
        )
    table.add_note("extension beyond the paper: discovery is a coupon collector over "
                   "the followers, so probes grow ~ k log k on top of Construct")
    return [table]


def run_ext_distance_two(quick: bool = True) -> list[Table]:
    """Extension: distance-two rendezvous via symmetric trail marks."""
    ns = [300, 600] if quick else [300, 600, 1200]
    trials = 5 if quick else 10
    constants = Constants.tuned()
    table = Table(
        title="EXT-DIST2 — trail-mark extension at initial distance two",
        headers=[
            "n", "delta", "multihop met", "multihop mean rounds",
            "theorem1 met", "theorem1 mean rounds",
        ],
    )
    for index, n in enumerate(ns):
        graph = random_graph_with_min_degree(n, _delta_for(n), _rng(f"ext2:{index}"))
        start_a = graph.vertices[0]
        start_b = next(
            v for v in graph.vertices if graph.distance(start_a, v) == 2
        )
        multihop_rounds = []
        budget = 4_000_000
        for seed in range(trials):
            prog_a, prog_b = multihop_programs(graph.min_degree, constants)
            result = SyncScheduler(
                graph, prog_a, prog_b, start_a, start_b, seed=seed,
                max_rounds=budget,
            ).run()
            if result.met:
                multihop_rounds.append(result.rounds)
        theorem1 = run_trials(
            graph, "theorem1", range(trials), constants=constants,
            start_a=start_a, start_b=start_b, check_instance=False,
            max_rounds=budget,
        )
        theorem1_rounds = [r.rounds for r in theorem1 if r.met]
        table.add_row(
            n, graph.min_degree,
            f"{len(multihop_rounds)}/{trials}",
            summarize(multihop_rounds).mean if multihop_rounds else float("nan"),
            f"{len(theorem1_rounds)}/{trials}",
            summarize(theorem1_rounds).mean if theorem1_rounds else float("nan"),
        )
    table.add_note("Theorem 5 forbids worst-case guarantees at distance 2; this "
                   "measures the extension's behaviour on dense random instances "
                   "(theorem1 successes come from incidental Construct collisions)")
    return [table]


def run_parallel_sweep(quick: bool = True) -> list[Table]:
    """Infrastructure: the parallel sweep engine on a cross-family grid.

    Runs one :class:`~repro.experiments.parallel.SweepSpec` twice —
    inline (``workers=1``) and through the process pool — and asserts
    the records are identical, which is the engine's core guarantee
    (DESIGN.md §3): worker count changes the wall clock, never the
    results.  The table reports the fanned-out run.
    """
    spec = SweepSpec(
        name="registry-demo",
        families=("er-min-degree", "complete"),
        ns=(200, 400) if quick else (200, 400, 800),
        deltas=("n^0.75",),
        algorithms=("trivial", "explore"),
        seeds=tuple(range(3 if quick else 5)),
    )
    serial = run_sweep(spec, workers=1)
    fanned = run_sweep(spec, workers=2)
    if serial.records != fanned.records:  # the guarantee must survive -O
        raise ReproError("sweep engine determinism violated across worker counts")
    table = fanned.summary_table()
    table.add_note(
        "records verified byte-identical between workers=1 and workers=2; "
        "see benchmarks/bench_parallel_sweep.py for the speedup measurement"
    )
    return [table]


def _outcomes(
    graph: StaticGraph, algorithm: str, scenario: str, trials: int, max_rounds: int
) -> tuple[StreamSummary, int]:
    """Seeds ``0..trials-1`` under ``scenario``: their summary and error count.

    A fault or churn can end a trial in a clean ``ProtocolError``, which
    counts as an outcome here; a batch would stop at the first one.
    """
    group, errors = StreamSummary(), 0
    for seed in range(trials):
        try:
            group.add(run_trial(
                graph, algorithm, seed, scenario=scenario, max_rounds=max_rounds
            ))
        except ProtocolError:
            errors += 1
    return group, errors


def run_fault_tolerance(quick: bool = True) -> list[Table]:
    """FAULT-TOL: theorem1 meeting probability under injected faults.

    Workload: ``theorem1`` on one ER graph with min degree ``n^0.75``,
    re-run with the same seeds under four registered scenarios — the
    benign baseline, whiteboard corruption, lost whiteboard writes,
    and agent crash-with-restart (see the "Scenarios" section of
    ``docs/runtime.md``).  Each row reports the met count and the
    one-sided 95% Hoeffding lower confidence bound on the meeting
    probability (:func:`repro.analysis.bounds.meeting_probability_lower_bound`).

    Assertions: the benign row must certify ``P(meet) > 1/2`` (the
    paper's algorithms meet w.h.p., so all trials meet and the bound
    is ``1 - sqrt(ln(1/0.05)/(2N)) ≈ 0.57`` at N = 8); every faulty
    trial must end *gracefully* — met, budget exhausted, or a clean
    :class:`~repro.errors.ProtocolError` — never an unhandled
    exception.
    """
    n = 200 if quick else 400
    trials = 8 if quick else 16
    graph = random_graph_with_min_degree(n, _delta_for(n), _rng("fault-tol"))
    table = Table(
        title=f"FAULT-TOL — theorem1 under fault scenarios (er-min-degree, n = {n})",
        headers=["scenario", "met", "protocol errors", "mean rounds (met)",
                 "P(meet) LCB"],
    )
    for name in ("none", "wb-corrupt", "wb-loss", "crash-restart", "chaos"):
        group, errors = _outcomes(graph, "theorem1", name, trials, 200_000)
        summary = group.summary()
        lcb = bounds.meeting_probability_lower_bound(group.met, trials)
        mean = summary.mean if summary else float("nan")
        table.add_row(name, f"{group.met}/{trials}", errors, mean, round(lcb, 3))
        if name == "none" and lcb <= 0.5:
            raise ReproError(f"benign baseline failed its w.h.p. gate: LCB {lcb:.3f}")
    table.add_note(
        "LCB = p_hat - sqrt(ln(1/0.05)/(2N)): the true meeting probability "
        "exceeds the bound with 95% confidence; the benign row must clear 1/2, "
        "faulty rows document graceful degradation (every non-met trial is a "
        "budget exhaustion or a clean ProtocolError)"
    )
    table.add_note(
        "whiteboard-only rows can match the benign row exactly: theorem1's "
        "whiteboard protocol is write-heavy but read-light (meeting is "
        "positional; the mark read only fires in the sampling phase), so "
        "read corruption rarely lands — crash scenarios are where real "
        "degradation shows"
    )
    return [table]


def run_dynamic_churn(quick: bool = True) -> list[Table]:
    """DYN-CHURN: rendezvous while edges churn between rounds.

    Workload: ``random-walk`` (structure-oblivious — churn merely
    perturbs its trajectory) and ``trivial`` (whose fixed probe order
    assumes a static neighborhood) on an ER graph, under the benign
    baseline and both churn scenarios: degree-preserving random double
    edge swaps and their adversarial variant that anchors swaps at the
    agents' current positions (the Lemma 9 adversary's move, applied
    per round; see ``repro.lowerbound.adversary``).

    The contract under churn is graceful degradation, not success:
    every trial either meets, exhausts its budget, or fails with a
    clean :class:`~repro.errors.ProtocolError` when churn invalidates
    an algorithm's static-world assumption — never an unhandled
    exception.  The benign rows must meet on every seed.
    """
    n = 150 if quick else 300
    trials = 6 if quick else 12
    graph = random_graph_with_min_degree(n, _delta_for(n), _rng("dyn-churn"))
    table = Table(
        title=f"DYN-CHURN — rendezvous under edge churn (er-min-degree, n = {n})",
        headers=["algorithm", "scenario", "met", "protocol errors",
                 "mean rounds (met)"],
    )
    for algorithm in ("random-walk", "trivial"):
        for name in ("none", "edge-churn", "adversarial-churn"):
            group, errors = _outcomes(graph, algorithm, name, trials, 100 * n)
            summary = group.summary()
            mean = summary.mean if summary else float("nan")
            table.add_row(algorithm, name, f"{group.met}/{trials}", errors, mean)
            if name == "none" and group.met != trials:
                raise ReproError(f"benign {algorithm} missed {trials - group.met} trials")
    table.add_note(
        "double swaps preserve every degree, so the instance stays a valid "
        "min-degree graph throughout; adversarial churn re-anchors one swap "
        "endpoint at an agent's position each time, per Lemma 9's adversary"
    )
    return [table]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    key: str
    title: str
    claim: str
    runner: Callable[[bool], list[Table]]


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.key: spec
    for spec in [
        ExperimentSpec(
            "T1-SCALING", "Theorem 1 rounds vs n",
            "Theorem 1: O(n/delta log^2 n + sqrt(n Delta)/delta log n)",
            run_t1_scaling,
        ),
        ExperimentSpec(
            "T1-DELTA", "Theorem 1 rounds vs delta; crossover vs O(Delta)",
            "Theorem 1 + Section 1.2 sublinearity threshold",
            run_t1_delta,
        ),
        ExperimentSpec(
            "T2-PHASES", "Theorem 2 phase mechanism (oracle dense set)",
            "Theorem 2: O(n/sqrt(delta) log^2 n) past the barrier",
            run_t2_phases,
        ),
        ExperimentSpec(
            "T2-FULL", "Theorem 2 end to end",
            "Theorem 2 total bound (with barrier t')",
            run_t2_end_to_end,
        ),
        ExperimentSpec(
            "CONSTRUCT", "Construct iterations/strict-runs/rounds",
            "Lemmas 6-8", run_construct,
        ),
        ExperimentSpec(
            "SAMPLE-ACC", "Sample classification accuracy",
            "Lemma 2 / Corollary 1", run_sample_accuracy,
        ),
        ExperimentSpec(
            "MAIN-RDV", "Main-Rendezvous with oracle dense set",
            "Lemma 1", run_main_rendezvous,
        ),
        ExperimentSpec(
            "ESTIMATION", "Doubling estimation overhead",
            "Corollary 2 / Section 4.1", run_estimation,
        ),
        ExperimentSpec(
            "LB-MINDEG", "Omega(Delta) on double stars",
            "Theorem 3 / Figure 1", run_lb_mindeg,
        ),
        ExperimentSpec(
            "LB-KT0", "Omega(n) without neighborhood IDs",
            "Theorem 4 / Figure 2", run_lb_kt0,
        ),
        ExperimentSpec(
            "LB-DIST2", "Distance-two starts",
            "Theorem 5 / Figure 3", run_lb_dist2,
        ),
        ExperimentSpec(
            "LB-DET", "Deterministic lower bound (adaptive adversary)",
            "Theorem 6 / Lemma 9", run_lb_deterministic,
        ),
        ExperimentSpec(
            "COMPLETE-AW", "Complete graphs: Anderson-Weber vs theorem1",
            "Section 1.3 / reference [6]", run_complete_aw,
        ),
        ExperimentSpec(
            "SHOOTOUT", "All algorithms across graph families",
            "Section 1 positioning", run_shootout,
        ),
        ExperimentSpec(
            "ORACLES", "Oracle-equipped related-work baselines",
            "Section 1.3 (references [10], [15])", run_oracles,
        ),
        ExperimentSpec(
            "EXT-GATHER", "k-agent gathering extension",
            "extension (related work [7], [20])", run_ext_gathering,
        ),
        ExperimentSpec(
            "EXT-DIST2", "distance-two trail-mark extension",
            "extension (Theorem 5 caveat applies)", run_ext_distance_two,
        ),
        ExperimentSpec(
            "PAR-SWEEP", "Parallel sweep engine demonstration",
            "infrastructure (DESIGN.md §3)", run_parallel_sweep,
        ),
        ExperimentSpec(
            "FAULT-TOL", "Fault scenarios: whiteboard faults and crashes",
            "w.h.p. meeting under the scenario axis (docs/runtime.md)",
            run_fault_tolerance,
        ),
        ExperimentSpec(
            "DYN-CHURN", "Dynamic scenario: per-round edge churn",
            "graceful degradation under the scenario axis (Lemma 9 adversary)",
            run_dynamic_churn,
        ),
        ExperimentSpec(
            "ABL-CONSTANTS", "Constants presets ablation",
            "Section 3.3.1 constants", run_ablation_constants,
        ),
        ExperimentSpec(
            "ABL-THRESHOLD", "Sample threshold ablation",
            "Lemma 2 margins", run_ablation_threshold,
        ),
        ExperimentSpec(
            "ABL-DWELL", "Theorem 2 dwell slack ablation",
            "DESIGN.md deviation #5", run_ablation_dwell,
        ),
    ]
}


def run_experiment(key: str, quick: bool = True, save_dir: str | None = None) -> list[Table]:
    """Run one registered experiment; optionally persist markdown tables."""
    spec = EXPERIMENTS[key]
    tables = spec.runner(quick)
    # Experiments share no sweep instance; a finished engine holds no
    # reference cycle, so dropping the memo frees its graphs and plans.
    clear_instance_cache()
    if save_dir is not None:
        for i, t in enumerate(tables):
            t.save_markdown(save_dir, f"{key.lower()}-{i}")
    return tables
