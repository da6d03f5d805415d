"""Seeded trial running and aggregation for the experiment registry.

Every trial executes on the unified runtime engine
(:class:`repro.runtime.engine.Engine`, via
:func:`repro.core.api.rendezvous`); ``docs/runtime.md`` documents the
execution semantics a :class:`TrialRecord` summarizes.

Two execution shapes:

* :func:`run_trial` — one seeded trial, full setup each call;
* :func:`run_trials` — the batched executor: compile one
  :class:`~repro.runtime.plan.ExecutionPlan` for the instance, then
  run every seed against it with a single reused engine
  (:meth:`~repro.runtime.engine.Engine.reset` between trials).  The
  records are byte-identical to per-seed :func:`run_trial` calls —
  ``tests/integration/test_scheduler_equivalence.py`` asserts it for
  every registered algorithm — while skipping all per-trial table
  building (``docs/performance.md`` quantifies the difference).

:func:`repeat_trials` keeps its historical signature and routes to the
batched executor automatically whenever its keyword arguments allow.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Any

from repro._typing import VertexId
from repro.analysis.stats import Summary, summarize
from repro.core.api import prepare_rendezvous, rendezvous
from repro.core.verification import verify_result
from repro.core.constants import Constants
from repro.errors import ProtocolError, SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.graphs.validation import require_neighborhood_instance
from repro.runtime.engine import Engine, ExecutionResult
from repro.runtime.lockstep import lockstep_supported, run_lockstep_batch
from repro.runtime.plan import ExecutionPlan
from repro.runtime.scheduler import SyncScheduler
from repro.scenarios.spec import active_scenario

__all__ = [
    "TrialRecord",
    "StreamSummary",
    "run_trial",
    "run_trials",
    "repeat_trials",
    "aggregate_rounds",
    "json_native",
]

#: Keyword arguments :func:`run_trials` understands; :func:`repeat_trials`
#: takes the batched path only when every forwarded kwarg is in this
#: set, falling back to per-seed :func:`run_trial` calls otherwise
#: (e.g. ``record_trace``).
_BATCHABLE_KWARGS = frozenset({
    "plan", "constants", "delta", "start_a", "start_b",
    "max_rounds", "check_instance", "port_model", "labeling",
    "scenario",
})


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
    **scheduler_kwargs: Any,
) -> TrialRecord:
    """Run one seeded trial and wrap the result in a :class:`TrialRecord`.

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
    if check_instance and start_a is not None and start_b is not None:
        require_neighborhood_instance(graph, start_a, start_b)
    active = active_scenario(scenario)
    if active is not None:
        scheduler_kwargs["scenario"] = active
    result = rendezvous(
        graph,
        algorithm=algorithm,
        start_a=start_a,
        start_b=start_b,
        seed=seed,
        delta=delta,
        constants=constants,
        max_rounds=max_rounds,
        **scheduler_kwargs,
    )
    if active is None:
        verify_result(graph, result, start_a=start_a, start_b=start_b)
    return _trial_record(
        graph, algorithm, seed, result,
        scenario=active.name if active is not None else None,
    )


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

    The batched twin of per-seed :func:`run_trial` calls: the first
    seed goes through the full :class:`SyncScheduler` façade (its
    validations and engine construction, with ``plan=`` bound or
    compiled there — no duplicated setup logic to drift), and every
    further seed re-arms that same engine in place
    (:meth:`~repro.runtime.engine.Engine.reset` — reused agent slots
    and views, fresh programs, tapes, and whiteboards).  Per-trial
    validation, start selection, and result verification match
    :func:`run_trial` exactly, so the returned records are
    byte-identical to the serial path for any seed list.

    Eligible batches (see
    :func:`repro.runtime.lockstep.lockstep_supported`) first try the
    lockstep executor — the same records from struct-of-arrays tapes
    at a fraction of the cost; any batch the kernels decline falls
    back here automatically (``docs/performance.md`` § Lockstep
    execution).

    ``scenario`` selects the world-mutation axis exactly as in
    :func:`run_trial`; a batch with an *active* scenario never routes
    to lockstep (the kernels cannot mutate the world) and skips the
    static-world result verification.
    """
    seed_list = list(seeds)
    if not seed_list:
        return []
    if check_instance and start_a is not None and start_b is not None:
        require_neighborhood_instance(graph, start_a, start_b)
    active = active_scenario(scenario)
    record_scenario = active.name if active is not None else None

    if lockstep_supported(algorithm, port_model, scenario=active):
        results = run_lockstep_batch(
            graph,
            algorithm,
            seed_list,
            plan=plan,
            constants=constants,
            delta=delta,
            start_a=start_a,
            start_b=start_b,
            max_rounds=max_rounds,
            port_model=port_model,
            labeling=labeling,
        )
        if results is not None:
            records = []
            for seed, result in zip(seed_list, results):
                verify_result(graph, result, start_a=start_a, start_b=start_b)
                records.append(_trial_record(graph, algorithm, seed, result))
            return records

    engine: Engine | None = None
    records: list[TrialRecord] = []
    for seed in seed_list:
        spec, program_a, program_b, sa, sb, budget = prepare_rendezvous(
            graph,
            algorithm,
            start_a=start_a,
            start_b=start_b,
            seed=seed,
            delta=delta,
            constants=constants,
            max_rounds=max_rounds,
        )
        if engine is None:
            scheduler = SyncScheduler(
                graph,
                program_a,
                program_b,
                sa,
                sb,
                seed=seed,
                port_model=port_model,
                labeling=labeling,
                whiteboards=spec.uses_whiteboards,
                max_rounds=budget,
                plan=plan,
                scenario=active,
            )
            engine = scheduler.engine
            result = scheduler.run()
        else:
            if sa == sb:  # SyncScheduler's pair invariant, re-checked per seed
                raise SchedulerError("agents must start at two different vertices")
            engine.reset(
                (program_a, program_b), (sa, sb), seed=seed, max_rounds=budget
            )
            result = engine.run_pair()
        if active is None:
            verify_result(graph, result, start_a=start_a, start_b=start_b)
        records.append(
            _trial_record(graph, algorithm, seed, result, scenario=record_scenario)
        )
    return records


def repeat_trials(
    graph: StaticGraph,
    algorithm: str,
    seeds: range | list[int],
    **kwargs: Any,
) -> list[TrialRecord]:
    """Run one trial per seed (new random starts and tapes each time).

    Takes the batched :func:`run_trials` path (one compiled plan for
    the whole seed list, lockstep when eligible) whenever every
    keyword argument is one it understands, and per-seed
    :func:`run_trial` calls otherwise (e.g. ``record_trace``).  Every
    trial is independently seeded, so the records are identical on
    both routes.  Grids that should fan out over cores run through
    :func:`repro.experiments.parallel.run_sweep`.
    """
    if set(kwargs) <= _BATCHABLE_KWARGS:
        return run_trials(graph, algorithm, seeds, **kwargs)
    return [run_trial(graph, algorithm, seed, **kwargs) for seed in seeds]


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
