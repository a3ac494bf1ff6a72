"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing built-in
exceptions.  The hierarchy is split along the package's two halves: the
RDBMS substrate (``repro.engine``) and the partial-materialized-view
layer (``repro.core``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Engine errors
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for errors raised by the RDBMS substrate."""


class SchemaError(EngineError):
    """A schema is malformed or an operation does not match a schema."""


class TypeMismatchError(SchemaError):
    """A value does not match the declared column type."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema."""


class CatalogError(EngineError):
    """A catalog object is missing or duplicated."""


class StorageError(EngineError):
    """A page/heap-level invariant was violated."""


class PageFullError(StorageError):
    """A slotted page has no room for the requested record."""


class BufferPoolError(EngineError):
    """The buffer pool could not satisfy a request (e.g. all pages pinned)."""


class IndexError_(EngineError):
    """An index operation failed (named with a trailing underscore to
    avoid shadowing the built-in :class:`IndexError`)."""


class PlanningError(EngineError):
    """The planner could not produce a plan for a query."""


class ParseError(EngineError):
    """The template/query parser rejected its input."""


class WALCorruptionError(EngineError):
    """The write-ahead log file is damaged beyond a torn final line
    (e.g. an unparseable record followed by further records)."""


class WALChecksumError(WALCorruptionError):
    """A log record's stored CRC32 disagrees with its body — bit rot,
    detected on recovery replay or on the replication ship path."""


class WALFencedError(EngineError):
    """An append was attempted on a fenced log: a newer epoch has been
    promoted and this instance must not acknowledge further writes."""


class DiskFullError(StorageError, OSError):
    """The disk has no space for a durable mutation (ENOSPC).

    Raised *before* the engine mutates anything (reserve-before-mutate
    probes at the WAL-append, segment-rotate and page-write sites), so a
    refused statement simply never happened:
    queries keep serving PMV-backed answers and the next successful
    probe clears the read-only condition automatically.

    Doubles as an :class:`OSError` with ``errno`` set to ``ENOSPC`` so
    callers written against the OS-level contract see the same shape.
    """

    def __init__(self, message: str, site: str = "") -> None:
        import errno as _errno

        super().__init__(message)
        self.errno = _errno.ENOSPC
        self.strerror = message
        self.site = site


class SnapshotCorruptionError(EngineError):
    """A snapshot document's stored CRC32 disagrees with its contents;
    loading it would silently install garbage, so it fails loudly."""


class FaultInjectionError(EngineError):
    """An injected, recoverable fault (see :mod:`repro.faults`).

    Raised by fault hooks in ERROR mode; the engine treats it like any
    other statement failure (clean abort), which is exactly what the
    torture harness verifies."""

    def __init__(self, message: str, site: str = "", occurrence: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.occurrence = occurrence


class TransactionError(EngineError):
    """A transaction was used incorrectly (e.g. after commit)."""


class LockError(TransactionError):
    """A lock could not be acquired."""


class DeadlockError(LockError):
    """Lock acquisition was aborted to break a deadlock."""


# ---------------------------------------------------------------------------
# PMV-layer errors
# ---------------------------------------------------------------------------


class PMVError(ReproError):
    """Base class for errors raised by the partial-materialized-view layer."""


class ConditionError(PMVError):
    """A condition part or selection condition is malformed."""


class DiscretizationError(PMVError):
    """Dividing values / basic intervals are invalid (overlap, gaps, ...)."""


class ViewDefinitionError(PMVError):
    """A (partial) materialized view definition is invalid."""


class ViewCapacityError(PMVError):
    """A PMV capacity parameter (F, UB, N) is invalid."""


class MaintenanceError(PMVError):
    """Deferred maintenance failed or was invoked incorrectly."""


# ---------------------------------------------------------------------------
# QoS / overload-protection errors
# ---------------------------------------------------------------------------


class QoSError(ReproError):
    """Base class for errors raised by the overload-protection layer."""


class OverloadError(QoSError):
    """The admission controller shed this query instead of queueing it.

    Carries the shed ``reason`` (``"queue_full"``, ``"rate"``,
    ``"timeout"``, ``"shedding"``) so clients and benchmarks can
    distinguish the shedding policies.
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class WorkloadError(ReproError):
    """A workload/generator parameter is invalid."""


# ---------------------------------------------------------------------------
# Replication errors
# ---------------------------------------------------------------------------


class ReplicationError(ReproError):
    """Base class for errors raised by the replication layer."""


class StaleEpochError(ReplicationError):
    """A shipped record (or an operation) carried an epoch older than
    the receiver's — the sender is a fenced, deposed primary."""


class ReplicaLagError(ReplicationError):
    """A replica read was refused because the replica's applied
    watermark trails the primary by more than the staleness bound.

    Carries ``lag`` (records behind) and ``bound`` so routers can
    decide whether to retry elsewhere or surface the refusal."""

    def __init__(self, message: str, lag: int = 0, bound: int = 0) -> None:
        super().__init__(message)
        self.lag = lag
        self.bound = bound


class NodeIsolatedError(ReplicationError):
    """A node refused to serve because its coordinator lease expired.

    A primary that cannot renew its lease must assume it has been (or
    is about to be) deposed: serving reads would risk staleness stamps
    that silently lie about how far behind the authoritative timeline
    the answer is, and accepting writes would risk a second node
    writing in the same era.  Refusal is retryable — the client's retry
    lands on the promoted primary (or succeeds here after the partition
    heals and the lease renews)."""


# ---------------------------------------------------------------------------
# Network serving tier errors
# ---------------------------------------------------------------------------


class NetError(ReproError):
    """Base class for errors raised by the network serving tier."""


class NetProtocolError(NetError):
    """A wire frame was malformed, oversized, from an unsupported
    protocol version, or cut off mid-frame."""


class NetTimeoutError(NetError):
    """A socket operation timed out talking to the server.

    A typed, *retryable* wrapper for ``socket.timeout``: the request
    may or may not have been applied (the classic in-doubt window), so
    only idempotent operations — queries, and DML carrying an
    idempotency key — may be retried, which is exactly what the client
    driver does."""


class RetryExhaustedError(NetError):
    """The client driver gave up after its retry budget.

    Carries ``attempts`` and the final ``cause`` so callers can tell a
    dead server from a persistently-overloaded one."""

    def __init__(self, message: str, attempts: int = 0, cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.cause = cause


class WriteUnacknowledgedError(NetError):
    """A write was applied locally but could not reach the semi-sync
    acknowledgement watermark (no replica confirmed it).  Retryable:
    the idempotency key guarantees the retry acks without re-applying."""


# ---------------------------------------------------------------------------
# Control-exception discipline
# ---------------------------------------------------------------------------

CONTROL_EXCEPTIONS: tuple[type[BaseException], ...] = (
    KeyboardInterrupt,
    SystemExit,
    GeneratorExit,
)
"""Exception types that are *control flow*, not statement failures.

Fail-safe handlers (abort notification, the maintenance fail-safe
clear) must let these propagate untouched instead of treating them as
an organic error at the site.  ``SimulatedCrash`` needs no entry — it
derives from :class:`BaseException` precisely so no ``except
Exception`` handler can see it."""


def is_control_exception(exc: BaseException) -> bool:
    """Whether ``exc`` is control flow that fail-safe paths must not
    intercept.

    Covers the interpreter's control exceptions and the fault/scheduler
    harness's control types (recognized structurally, so the engine
    never imports the test-only modules)."""
    if isinstance(exc, CONTROL_EXCEPTIONS):
        return True
    # repro.faults control types: SimulatedCrash is a BaseException and
    # never reaches Exception handlers; SchedDeadlock means the test
    # scheduler wedged — an infrastructure condition, not a statement
    # failure, so fail-safes must not fire on it.
    return type(exc).__name__ in ("SimulatedCrash", "SchedDeadlock")
