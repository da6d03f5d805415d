"""Exception taxonomy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy distinguishes *caller
mistakes* (bad graphs, bad parameters) from *protocol violations*
(an agent program asking the runtime for something its model forbids)
and *algorithmic failures* (a Monte Carlo algorithm missing its
synchronization barrier).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """A graph is malformed or violates a documented precondition.

    Examples: duplicate vertex identifiers, asymmetric adjacency,
    self-loops, identifiers outside the declared ID space.
    """


class GenerationError(ReproError):
    """A graph generator could not satisfy the requested parameters.

    Raised, for example, when a requested minimum degree exceeds
    ``n - 1`` or a degree sequence is not graphical.
    """


class ProtocolError(ReproError):
    """An agent program violated the mobile-agent model.

    Examples: moving along a non-existent edge, reading neighbor IDs
    under the KT0 model, or touching a whiteboard when whiteboards are
    disabled.
    """


class WhiteboardDisabledError(ProtocolError):
    """A whiteboard access was attempted in a whiteboard-free model."""


class SchedulerError(ReproError):
    """The synchronous scheduler was driven into an invalid state."""


class RoundLimitExceeded(ReproError):
    """An execution exceeded its configured ``max_rounds`` budget.

    The scheduler normally *returns* a failed :class:`ExecutionResult`
    instead of raising; this exception is reserved for callers who
    explicitly request strict behaviour.
    """


class SynchronizationError(ReproError):
    """A phase-synchronized algorithm missed its barrier.

    Used by the whiteboard-free algorithm (paper Section 4.2) when
    ``Construct`` has not finished by the common starting round ``t'``.
    With default constants this indicates a mis-configured preset.
    """


class EstimationError(ReproError):
    """The doubling estimation of the minimum degree failed.

    This can only occur if the estimate underflows below one, which
    would indicate a disconnected or degenerate input graph.
    """


class AdversaryError(ReproError):
    """The Lemma 9 adversary could not complete its construction.

    Raised when the parameters violate the lemma's preconditions (for
    instance a round budget larger than ``n/32``) or when gluing fails
    to find a compatible pair ``(j, k)`` within its retry budget.
    """


class ScenarioError(ReproError):
    """A scenario specification is unknown or malformed.

    Raised by :func:`repro.scenarios.resolve_scenario` for unregistered
    names and by :class:`repro.scenarios.ScenarioSpec` validation for
    out-of-range rates or unknown churn/respawn policies.
    """


class WarehouseError(ReproError):
    """A results warehouse directory is missing, malformed, or corrupt.

    Raised by :mod:`repro.experiments.warehouse` when a path is not a
    warehouse (no readable manifest), when segment files are shorter
    than the committed row count, or when the manifest schema does not
    match the reader's format version.  ``repro report`` surfaces this
    as a clean one-line message instead of a traceback.
    """


class ServiceError(ReproError):
    """The distributed sweep service failed or was misused.

    Raised by :mod:`repro.service` when a broker rejects a submission,
    a job fails on every retry, a peer cannot be reached within the
    connection retry budget, or a worker reports a trial error the
    broker cannot recover by re-queuing.
    """


class ChaosError(ServiceError):
    """A fault schedule is malformed or the chaos layer was misused.

    Raised by :mod:`repro.service.chaos` when a ``FaultSchedule``
    payload fails validation (the message names the offending rule's
    position in the schedule), when a schedule file cannot be read,
    or when a :class:`~repro.service.chaos.ChaosProxy` is driven
    through an invalid lifecycle.  Faults *injected* by the layer do
    not raise this — they surface as the symptom they simulate
    (a :class:`WireError` torn frame, a lease timeout, a refused
    connection) exactly as real infrastructure failures would.
    """


class WireError(ServiceError):
    """A service socket carried a malformed or truncated frame.

    Raised by :mod:`repro.service.protocol` for bad magic, garbage or
    non-object headers, length prefixes beyond the documented caps,
    and connections that close mid-frame.  Broker and worker loops
    treat it as "this peer is gone": the connection is dropped and any
    leased work units are re-queued — never half-merged.
    """

