"""The QoS serving gate: admission + deadlines + degradation, composed.

:class:`ServingGate` is the overload-protected front end of a
:class:`~repro.core.manager.PMVManager`.  Every query passes through:

1. **admission** — the :class:`~repro.qos.admission.AdmissionController`
   either grants a slot (possibly after a bounded, deadline-aware
   queue wait) or sheds the query with a typed
   :class:`~repro.errors.OverloadError`;
2. **deadline** — a per-query budget (the caller's, or the gate's
   default, tightened by the governor's state) threaded down to the
   executor: O2 always runs, O3 is skipped or abandoned when the
   budget is spent, and the answer comes back explicitly marked
   ``complete=False``;
3. **observation** — completion latency and outcome feed the
   :class:`~repro.qos.governor.DegradationGovernor`, which ticks at a
   bounded rate from the query path itself (no background thread, so
   tests and benchmarks stay deterministic).

The gate never *improves* an answer — a degraded answer is always a
true subset of the full answer (`repro.bench.overload` replay-verifies
this row for row) — it only bounds how long anyone waits for it.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.executor import PMVQueryResult
from repro.core.metrics import QoSMetrics
from repro.qos.admission import AdmissionController
from repro.qos.deadline import Deadline
from repro.qos.governor import DegradationGovernor, GovernorConfig

__all__ = ["ServingGate"]


class ServingGate:
    """Overload-protected query execution over a PMVManager fleet."""

    def __init__(
        self,
        manager,
        admission: AdmissionController | None = None,
        governor: DegradationGovernor | None = None,
        governor_config: GovernorConfig | None = None,
        default_deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.manager = manager
        self.metrics = QoSMetrics()
        self.admission = admission or AdmissionController(metrics=self.metrics)
        if self.admission.metrics is None:
            self.admission.metrics = self.metrics
        self.governor = governor or DegradationGovernor(
            manager, self.admission, config=governor_config, metrics=self.metrics
        )
        if self.governor.metrics is None:
            self.governor.metrics = self.metrics
            self.governor.breaker.metrics = self.metrics
        self.default_deadline = default_deadline
        self._clock = clock
        # Lease-gated serving (DESIGN.md §16): when a PrimaryNode binds
        # itself here, this raises NodeIsolatedError before admission
        # while the node's coordinator lease is expired — an isolated
        # node must not serve reads or accept writes.
        self.serving_check: Callable[[], None] | None = None

    def check_serving(self) -> None:
        """Raise :class:`~repro.errors.NodeIsolatedError` while the bound
        node may not serve; the one place ``serving_check`` runs."""
        if self.serving_check is not None:
            self.serving_check()

    # -- the protected query path --------------------------------------------

    def execute(
        self,
        query,
        deadline: Deadline | float | None = None,
        txn=None,
        distinct: bool = False,
        on_o3=None,
    ) -> PMVQueryResult:
        """Run ``query`` under admission control and a deadline budget.

        ``deadline`` is a :class:`Deadline`, a relative budget in
        seconds, or ``None`` for the gate's default.  Raises
        :class:`~repro.errors.OverloadError` when the query is shed;
        otherwise always returns an answer — complete when the budget
        allowed O3 to finish, else the PMV partial answer with
        ``result.complete`` False.
        """
        self.check_serving()
        deadline = self._resolve_deadline(deadline)
        slot = self.admission.admit(
            timeout=None if deadline is None else deadline.remaining()
        )
        started = self._clock()
        try:
            result = self.manager.execute(
                query, txn=txn, distinct=distinct, on_o3=on_o3, deadline=deadline
            )
        finally:
            slot.release()
            elapsed = self._clock() - started
            self.governor.observe_latency(elapsed)
            self.governor.maybe_tick()
        self.metrics.record_answer(
            result.complete, abandoned=result.degraded_reason == "deadline-abandon"
        )
        return result

    def admit_write(self, deadline: Deadline | float | None = None):
        """Admit one DML statement through the same admission controller
        as queries; returns the slot (caller releases after the write).

        The network tier routes remote writes through here so they
        cannot bypass overload protection the way in-process callers
        can't bypass it for reads.  ``deadline`` bounds the queue wait
        exactly as for queries; sheds raise
        :class:`~repro.errors.OverloadError`.
        """
        self.check_serving()
        deadline = self._resolve_deadline(deadline)
        return self.admission.admit(
            timeout=None if deadline is None else deadline.remaining()
        )

    def _resolve_deadline(self, deadline: Deadline | float | None) -> Deadline | None:
        if deadline is None:
            if self.default_deadline is None:
                return None
            deadline = self.default_deadline
        if not isinstance(deadline, Deadline):
            deadline = Deadline.after(float(deadline), clock=self._clock)
        return deadline.tightened(self.governor.deadline_factor_now())

    # -- failover -------------------------------------------------------------

    def rebind(self, manager, configured_bounds: dict[str, int | None] | None = None) -> None:
        """Route all future queries to ``manager`` (failover rewiring).

        The :class:`~repro.replication.FailoverCoordinator` calls this
        after promoting a replica: the gate's admission controller,
        deadlines, and governor state all survive — only the fleet
        underneath changes.  The governor adopts the new fleet first
        (restoring configured PMV UBs even mid-DEGRADED, DESIGN.md
        §11), so no query ever reaches a promoted view still carrying
        the dead primary's shrunken budget.
        """
        self.governor.adopt_manager(manager, configured_bounds)
        self.manager = manager

    # -- inspection -----------------------------------------------------------

    def stats(self) -> dict:
        """One consistent report: QoS counters (under the record
        mutex), admission gauges, governor/breaker state, and each
        managed view's counter snapshot."""
        report = self.metrics.snapshot()
        report["admission"] = self.admission.stats()
        report["governor"] = self.governor.stats()
        report["views"] = {
            managed.view.template.name: managed.view.metrics.snapshot()
            for managed in self.manager.managed()
        }
        database = self.manager.database
        report["database_swallowed_errors"] = database.swallowed_errors
        wal = database.wal
        report["wal_checksum_failures"] = 0 if wal is None else wal.checksum_failures
        # Resource model (DESIGN.md §15): WAL repairs are reported with
        # their truncation point (segment + offset), never silent; the
        # disk-full gauge tells operators the instance is read-only.
        report["wal_repairs"] = 0 if wal is None else wal.repairs
        report["wal_last_repair"] = None if wal is None else wal.last_repair
        report["wal_resources"] = None if wal is None else wal.resource_stats()
        report["outbox"] = (
            None if database.outbox is None else database.outbox.stats()
        )
        report["disk_full"] = {
            "active": database.disk_full,
            "refusals": database.disk_full_refusals,
            "recoveries": database.disk_full_recoveries,
        }
        return report
