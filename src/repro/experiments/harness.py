"""Seeded trial running and aggregation for the experiment registry.

Every trial executes on the unified runtime engine
(:class:`repro.runtime.engine.Engine`) or, for eligible batches, on the
lockstep kernels that reproduce it; ``docs/runtime.md`` documents the
execution semantics a :class:`TrialRecord` summarizes.

Two execution shapes, one executor:

* :func:`run_trials` — the trial executor: arm each seed once (its
  programs, starts and budget, checked as
  :class:`~repro.runtime.scheduler.SyncScheduler` checks them), bind or
  compile one :class:`~repro.runtime.plan.ExecutionPlan` for the
  instance, then hand the armed seeds to the lockstep kernels when the
  batch is eligible, or run them on a single engine re-armed per seed
  (:meth:`~repro.runtime.engine.Engine.reset`).  The records do not
  depend on the route: ``tests/integration/test_scheduler_equivalence.py``
  asserts they equal the frozen per-seed engine path
  (:func:`repro.runtime.reference.reference_run_trials`) for every
  registered algorithm, while skipping all per-trial table building
  (``docs/performance.md`` quantifies the difference);
* :func:`run_trial` — one seeded trial, a batch of one through
  :func:`run_trials`, for callers that must see each trial's own
  failure.  Scheduler extras the harness does not take
  (``record_trace``) go through
  :class:`~repro.runtime.scheduler.SyncScheduler` or
  :func:`repro.core.api.rendezvous`.

A finished engine holds no reference cycle, so a batch's plan and graph
are freed by reference counting as soon as its caller drops them.

Sweep grids reach :func:`run_trials` through the chunks of
:func:`repro.experiments.parallel.run_sweep`; registry experiments the
grid axes cannot express call it directly (DESIGN.md §1).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator

from repro._typing import VertexId
from repro.analysis.stats import Summary, summarize
from repro.core.api import ALGORITHMS, prepare_rendezvous
from repro.core.verification import verify_result
from repro.core.constants import Constants
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.graphs.validation import require_neighborhood_instance
from repro.runtime.engine import Engine, ExecutionResult
from repro.runtime.lockstep import lockstep_supported, run_lockstep_batch
from repro.runtime.plan import ExecutionPlan
from repro.runtime.scheduler import check_pair
from repro.scenarios.spec import active_scenario

__all__ = [
    "TrialRecord",
    "StreamSummary",
    "run_trial",
    "run_trials",
    "aggregate_rounds",
    "json_native",
]

#: The scalar int fields of a :class:`TrialRecord`, in the column order
#: of the batch codec and the warehouse (one int64 column each).
_INT_COLUMNS = (
    "n", "id_space", "delta", "max_degree", "seed",
    "rounds", "total_moves", "whiteboard_writes",
)
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
_JSON_SCALARS = frozenset({bool, int, float, str, type(None)})


def json_native(value: Any) -> bool:
    """Whether ``value`` survives a JSON round trip *unchanged*.

    Only ``dict`` (with ``str`` keys), ``list``, ``str``, ``int``,
    ``float``, ``bool`` and ``None`` do: JSON turns a tuple into a
    list, and it cannot carry a set or an arbitrary object at all.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return True
    if kind is list:
        return all(json_native(item) for item in value)
    if kind is dict:
        return all(
            type(key) is str and json_native(item) for key, item in value.items()
        )
    return False


@dataclass(frozen=True)
class TrialRecord:
    """One execution of one algorithm on one instance.

    Records made by the harness hold JSON-native ``reports`` and int64
    scalars (:func:`_trial_record` checks both), which is what lets
    every codec — JSON lines, the columnar batch, the warehouse —
    return them unchanged.
    """

    algorithm: str
    graph_name: str
    n: int
    id_space: int
    delta: int
    max_degree: int
    seed: int
    met: bool
    rounds: int
    total_moves: int
    whiteboard_writes: int
    reports: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Name of the *active* scenario the trial ran under, or ``None``
    #: for the benign world (no-op scenarios normalize to ``None``, so
    #: a zero-rate run's record is byte-identical to a scenario-free
    #: one — including this field).
    scenario: str | None = None

    @property
    def rounds_per_n(self) -> float:
        """Rounds normalized by instance size (Ω(n) checks)."""
        return self.rounds / self.n


def _trial_record(
    graph: StaticGraph,
    algorithm: str,
    seed: int,
    result: ExecutionResult,
    scenario: str | None = None,
) -> TrialRecord:
    """Fold one execution result into the harness's record shape.

    The one place an execution becomes a record, so the one place its
    values are checked: a program whose report JSON would not return
    unchanged, or a scalar outside int64, raises
    :class:`~repro.errors.ProtocolError` naming the algorithm here,
    before any transport or store sees the record.
    """
    record = TrialRecord(
        algorithm=algorithm,
        graph_name=graph.name,
        n=graph.n,
        id_space=graph.id_space,
        delta=graph.min_degree,
        max_degree=graph.max_degree,
        seed=seed,
        met=result.met,
        rounds=result.rounds,
        total_moves=result.total_moves,
        whiteboard_writes=result.whiteboard_writes,
        reports=result.reports,
        scenario=scenario,
    )
    if not json_native(record.reports):
        raise ProtocolError(
            f"algorithm {algorithm!r} reported a value JSON cannot carry "
            "unchanged; reports may hold only dict (str keys), list, str, "
            "int, float, bool and None"
        )
    for name in _INT_COLUMNS:
        value = getattr(record, name)
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ProtocolError(
                f"algorithm {algorithm!r}: {name}={value} is outside int64"
            )
    return record


def run_trial(
    graph: StaticGraph,
    algorithm: str,
    seed: int,
    constants: Constants | None = None,
    delta: int | str | None = None,
    start_a: VertexId | None = None,
    start_b: VertexId | None = None,
    max_rounds: int | None = None,
    check_instance: bool = True,
    scenario: Any = None,
    *,
    plan: ExecutionPlan | None = None,
    port_model: PortModel = PortModel.KT1,
    labeling: PortLabeling | None = None,
) -> TrialRecord:
    """Run one seeded trial: a batch of one through :func:`run_trials`.

    When ``check_instance`` is true (default) and explicit starts are
    given, the harness first asserts the starts form a valid
    neighborhood-rendezvous instance — except for experiments that
    intentionally violate it (distance-two lower bounds), which pass
    ``check_instance=False``.

    ``scenario`` (a name, :class:`~repro.scenarios.ScenarioSpec`, or
    ``None``) selects the per-round world-mutation axis.  Under an
    *active* scenario the post-run static-world verification is
    skipped — churned edges and crashed agents legitimately violate
    its invariants — and the record carries the scenario's name.
    """
    return run_trials(
        graph, algorithm, [seed],
        plan=plan, constants=constants, delta=delta,
        start_a=start_a, start_b=start_b, max_rounds=max_rounds,
        check_instance=check_instance, port_model=port_model,
        labeling=labeling, scenario=scenario,
    )[0]


def run_trials(
    graph: StaticGraph,
    algorithm: str,
    seeds: range | list[int],
    *,
    plan: ExecutionPlan | None = None,
    constants: Constants | None = None,
    delta: int | str | None = None,
    start_a: VertexId | None = None,
    start_b: VertexId | None = None,
    max_rounds: int | None = None,
    check_instance: bool = True,
    port_model: PortModel = PortModel.KT1,
    labeling: PortLabeling | None = None,
    scenario: Any = None,
) -> list[TrialRecord]:
    """Run one trial per seed against a single compiled plan.

    Each seed is *armed* once: :func:`~repro.core.api.prepare_rendezvous`
    resolves its programs, starts and round budget, and
    :func:`~repro.runtime.scheduler.check_pair` makes the same start
    checks :class:`~repro.runtime.scheduler.SyncScheduler` makes.  The
    plan is bound (``plan=``) or compiled right after the first seed
    is armed.  Records do not depend on the batch's size or on the
    route it takes.

    Eligible batches (see
    :func:`repro.runtime.lockstep.lockstep_supported`) hand their armed
    seeds to the lockstep kernels — the same records from
    struct-of-arrays tapes at a fraction of the cost
    (``docs/performance.md`` § Lockstep execution).  Every other batch
    runs on one :class:`~repro.runtime.engine.Engine` re-armed per seed
    (:meth:`~repro.runtime.engine.Engine.reset`), its seeds armed one
    at a time, so no finished trial's programs outlive its run; a batch
    the kernels decline runs its already armed seeds there.

    ``scenario`` selects the world-mutation axis; a batch with an
    *active* scenario never routes to lockstep (the kernels cannot
    mutate the world), skips the static-world result verification, and
    names the scenario in its records.
    """
    seed_list = list(seeds)
    if not seed_list:
        return []
    if check_instance and start_a is not None and start_b is not None:
        require_neighborhood_instance(graph, start_a, start_b)
    active = active_scenario(scenario)
    record_scenario = active.name if active is not None else None

    def arm(seed: int) -> tuple:
        _, program_a, program_b, sa, sb, budget = prepare_rendezvous(
            graph,
            algorithm,
            start_a=start_a,
            start_b=start_b,
            seed=seed,
            delta=delta,
            constants=constants,
            max_rounds=max_rounds,
        )
        check_pair(graph, sa, sb, labeling)
        return seed, program_a, program_b, sa, sb, budget

    first = arm(seed_list[0])
    if plan is None:
        plan = ExecutionPlan.compile(graph, labeling, port_model)
    else:
        plan.ensure_matches(graph, labeling, port_model)
    # Later seeds are armed lazily, one per engine run; ``first`` is
    # dropped so only ``armed`` holds it, and its programs go with it.
    armed: Iterable[tuple] = chain([first], map(arm, seed_list[1:]))
    del first

    results: Iterable[ExecutionResult] | None = None
    if lockstep_supported(algorithm, port_model, scenario=active):
        armed = list(armed)
        results = run_lockstep_batch(plan, algorithm, armed)
    if results is None:
        results = _engine_results(
            graph, plan, armed, port_model,
            ALGORITHMS[algorithm].uses_whiteboards, active,
        )
    records = []
    for seed, result in zip(seed_list, results):
        if active is None:
            verify_result(graph, result, start_a=start_a, start_b=start_b)
        records.append(
            _trial_record(graph, algorithm, seed, result, scenario=record_scenario)
        )
    return records


def _engine_results(
    graph: StaticGraph,
    plan: ExecutionPlan,
    armed: Iterable[tuple],
    port_model: PortModel,
    whiteboards: bool,
    scenario: Any,
) -> Iterator[ExecutionResult]:
    """Run armed seeds on one engine, re-armed per seed; yield each result."""
    engine: Engine | None = None
    for seed, program_a, program_b, start_a, start_b, budget in armed:
        if engine is None:
            engine = Engine(
                graph,
                (program_a, program_b),
                (start_a, start_b),
                names=("a", "b"),
                seed=seed,
                port_model=port_model,
                whiteboards=whiteboards,
                max_rounds=budget,
                multi_view=False,
                plan=plan,
                scenario=scenario,
            )
        else:
            engine.reset(
                (program_a, program_b), (start_a, start_b),
                seed=seed, max_rounds=budget,
            )
        yield engine.run_pair()


class StreamSummary:
    """Record-dropping aggregate of one group of streamed trials.

    Every sweep table, streamed or held, and ``repro report`` over a
    JSONL export fold each :class:`TrialRecord` into one of these.
    ``repro report`` over a warehouse builds the same aggregates from
    the columns (:mod:`repro.experiments.query`), so both report paths
    render through one table builder.
    The streaming paths then drop the record, so resident memory stays
    O(batch) in the record stream: per successful trial the aggregate
    keeps one integer, its rounds, in a compact ``array('q')`` column.
    Keeping the raw rounds — not just moments — is what makes the
    final summaries *exact*, medians included, and
    :func:`~repro.analysis.stats.summarize` does not depend on value
    order, so records may arrive in any order.
    """

    __slots__ = ("total", "met", "delta", "rounds")

    def __init__(self) -> None:
        self.total = 0
        self.met = 0
        self.delta: int | None = None
        #: Rounds of the successful trials, in arrival order.
        self.rounds = array("q")

    def add(self, record: TrialRecord) -> None:
        """Fold one record."""
        if self.delta is None:
            self.delta = record.delta
        if record.met:
            self.rounds.append(record.rounds)
            self.met += 1
        self.total += 1

    def summary(self) -> Summary | None:
        """Exact rounds summary (``None`` when no trial met)."""
        if not self.met:
            return None
        return summarize(self.rounds)


def aggregate_rounds(records: list[TrialRecord]) -> Summary:
    """Summary of the ``rounds`` metric over successful trials only."""
    rounds = [r.rounds for r in records if r.met]
    if not rounds:
        raise ValueError("no successful trials to aggregate")
    return summarize(rounds)
