"""The degradation state machine and the memory/maintenance governor.

Three serving states with hysteresis (DESIGN.md §10):

::

              pressure ELEVATED                pressure SEVERE
    NORMAL  ─────────────────────▶  DEGRADED ─────────────────────▶  SHED
       ▲                                │ ▲                            │
       └────  healthy × recover_ticks ──┘ └── not SEVERE × recover ────┘

Pressure is computed from three signals, sampled at every
:meth:`DegradationGovernor.tick`:

- the admission controller's **queue depth**;
- the **p99 latency** of a sliding window of recently completed queries;
- the **lock-timeout rate** (delta of the lock manager's ``timeouts``
  counter since the previous tick) — the leading indicator that the
  S/X pipeline is thrashing;
- the **CDC backlog depth** (how many LSNs the slowest
  async-maintained view's cursor trails the log by) — a drain that
  cannot keep up with the write rate keeps every change past that
  cursor resident, and the right response is backpressure (widened
  freshness + admission throttle), not OOM (DESIGN.md §15).

Entering DEGRADED engages the governor's pressure-relief actions, all
reversed when the machine returns to NORMAL:

- async-maintained views' freshness bounds are widened by
  ``freshness_widen_factor`` *first* — trading staleness before memory,
  so answers stay on the PMV path (DESIGN.md §13);
- every managed PMV's UB byte budget is shrunk by :data:`UB_SHRINK_FACTOR`
  (``PartialMaterializedView.set_upper_bound`` sheds entries via the
  replacement policy; below one entry the view degrades to
  empty-but-alive, never an error);
- deferred-maintenance retries are put behind the
  :class:`~repro.qos.breaker.CircuitBreaker`, so writer statements
  stop parking on the lock queue when retries keep losing;
- query deadlines are tightened by :data:`DEADLINE_FACTOR` (the serving
  gate consults :meth:`deadline_factor_now`).

Entering SHED additionally flips the admission controller into
queue-bypass shedding.  Step-downs require ``recover_ticks``
*consecutive* healthy ticks — the hysteresis that prevents flapping at
the threshold.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.metrics import QoSMetrics
from repro.qos.admission import AdmissionController
from repro.qos.breaker import CircuitBreaker

__all__ = ["QoSState", "GovernorConfig", "DegradationGovernor"]


LOCK_TIMEOUT_RATE = 5
"""Lock timeouts per tick at which NORMAL escalates to DEGRADED."""
UB_SHRINK_FACTOR = 0.5
"""DEGRADED shrinks every managed PMV's UB to this fraction."""
DEADLINE_FACTOR = 0.5
"""DEGRADED multiplies each query's deadline budget by this."""


class QoSState:
    NORMAL = "NORMAL"
    DEGRADED = "DEGRADED"
    SHED = "SHED"


@dataclass(frozen=True)
class GovernorConfig:
    """Knobs of the degradation state machine (see README's QoS table)."""

    degrade_p99: float = 0.5
    """p99 latency (seconds) at which NORMAL escalates to DEGRADED."""
    shed_p99: float = 2.0
    """p99 latency at which anything escalates to SHED."""
    degrade_queue: int = 8
    """Admission queue depth at which NORMAL escalates to DEGRADED."""
    shed_queue: int = 24
    """Admission queue depth at which anything escalates to SHED."""
    degrade_backlog: int = 512
    """CDC drain lag (LSNs) at which NORMAL escalates to DEGRADED
    (maintenance backpressure instead of unbounded memory)."""
    shed_backlog: int = 4096
    """CDC drain lag (LSNs) at which anything escalates to SHED."""
    recover_ticks: int = 2
    """Consecutive healthy ticks required before stepping down one
    state (the hysteresis)."""
    freshness_widen_factor: float = 4.0
    """DEGRADED multiplies every async-maintained executor's
    ``freshness_bound`` by this, *before* any UB is shrunk: tolerating
    more staleness keeps answers on the cheap PMV path and relieves
    pressure without giving up cache residency (DESIGN.md §13)."""
    latency_window: int = 256
    """Completed-query latencies kept for the p99 estimate."""
    tick_interval: float = 0.25
    """Minimum seconds between automatic ticks (gate-driven)."""


class DegradationGovernor:
    """Drives NORMAL → DEGRADED → SHED from observed pressure."""

    def __init__(
        self,
        manager,
        admission: AdmissionController,
        config: GovernorConfig | None = None,
        breaker: CircuitBreaker | None = None,
        metrics: QoSMetrics | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.manager = manager
        self.admission = admission
        self.config = config or GovernorConfig()
        self.metrics = metrics
        self.breaker = breaker or CircuitBreaker(metrics=metrics)
        self._clock = clock
        self._mutex = threading.Lock()
        self._tick_mutex = threading.Lock()
        self._state = QoSState.NORMAL
        self._healthy_streak = 0
        self._latencies: deque[float] = deque(maxlen=self.config.latency_window)
        self._last_lock_timeouts: int | None = None
        self._last_tick = clock()
        self._saved_upper_bounds: dict[str, int | None] = {}
        self._saved_freshness_bounds: dict[str, int] = {}
        self.transitions: list[tuple[str, str]] = []
        # Lease isolation probe (DESIGN.md §16): installed by
        # PrimaryNode.bind_gate.  An ISOLATED node is severe pressure by
        # definition — it cannot serve, so the admission queue must shed
        # instead of parking callers behind a lease that may never renew.
        self.isolation_probe: Callable[[], bool] | None = None

    # -- observations ---------------------------------------------------------

    @property
    def state(self) -> str:
        with self._mutex:
            return self._state

    def observe_latency(self, seconds: float) -> None:
        """Record one completed query's end-to-end latency."""
        with self._mutex:
            self._latencies.append(seconds)

    def p99_latency(self) -> float:
        with self._mutex:
            return self._p99()

    def _p99(self) -> float:
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        return ordered[int(0.99 * (len(ordered) - 1))]

    def deadline_factor_now(self) -> float:
        """The deadline multiplier for the current state (<= 1)."""
        with self._mutex:
            if self._state == QoSState.NORMAL:
                return 1.0
            return DEADLINE_FACTOR

    # -- the tick -------------------------------------------------------------

    def maybe_tick(self) -> None:
        """Tick if at least ``tick_interval`` elapsed (gate-driven)."""
        if self._clock() - self._last_tick >= self.config.tick_interval:
            self.tick()

    def tick(self) -> str:
        """Sample pressure and run one state-machine step.

        Serialized: concurrent callers skip rather than queue, so the
        tick can be driven from the query path without convoying.
        Returns the (possibly new) state.
        """
        if not self._tick_mutex.acquire(blocking=False):
            return self.state
        try:
            self._last_tick = self._clock()
            pressure = self._pressure_level()
            return self._step(pressure)
        finally:
            self._tick_mutex.release()

    def _pressure_level(self) -> str:
        """Classify current pressure: ``severe``/``elevated``/``healthy``."""
        cfg = self.config
        queue_depth = self.admission.queue_depth
        p99 = self.p99_latency()
        timeouts = self.manager.database.lock_manager.stats()["timeouts"]
        with self._mutex:
            last = self._last_lock_timeouts
            self._last_lock_timeouts = timeouts
        timeout_delta = 0 if last is None else max(0, timeouts - last)
        backlog = self._backlog_depth()
        if self.isolation_probe is not None and self.isolation_probe():
            return "severe"
        if (
            p99 >= cfg.shed_p99
            or queue_depth >= cfg.shed_queue
            or backlog >= cfg.shed_backlog
        ):
            return "severe"
        if (
            p99 >= cfg.degrade_p99
            or queue_depth >= cfg.degrade_queue
            or timeout_delta >= LOCK_TIMEOUT_RATE
            or backlog >= cfg.degrade_backlog
        ):
            return "elevated"
        return "healthy"

    def _backlog_depth(self) -> int:
        """The CDC drain's lag: how many LSNs the slowest
        async-maintained view's cursor trails the log by (0 with none).

        Read defensively — test fixtures hand the governor bare fake
        managers, and the governor must keep working unchanged without
        the CDC layer."""
        database = getattr(self.manager, "database", None)
        managed = getattr(self.manager, "managed", None)
        if database is None or managed is None:
            return 0
        now = database.current_lsn()
        return max(
            (now - m.view.applied_lsn for m in managed() if m.view.async_maintenance),
            default=0,
        )

    def _step(self, pressure: str) -> str:
        with self._mutex:
            state = self._state
        if pressure == "severe":
            self._healthy_streak = 0
            if state != QoSState.SHED:
                if state == QoSState.NORMAL:
                    self._enter_degraded()
                self._enter_shed()
            return self.state
        if pressure == "elevated":
            self._healthy_streak = 0
            if state == QoSState.NORMAL:
                self._enter_degraded()
            # DEGRADED under elevated pressure holds; SHED holds too —
            # stepping down from SHED requires the pressure to drop
            # below the *degrade* thresholds, not just the shed ones.
            return self.state
        # healthy: hysteresis before stepping down one level.
        self._healthy_streak += 1
        if self._healthy_streak >= self.config.recover_ticks:
            self._healthy_streak = 0
            if state == QoSState.SHED:
                self._exit_shed()
            elif state == QoSState.DEGRADED:
                self._exit_degraded()
        return self.state

    # -- failover -------------------------------------------------------------

    def adopt_manager(self, manager, configured_bounds: dict[str, int | None] | None = None) -> None:
        """Rebind the governor to a promoted replica's PMV fleet.

        Failover while DEGRADED is the trap this guards: the old
        fleet's shrunken budgets (and this governor's saved-bounds map)
        belong to views that just died with the primary.  The promoted
        replica's warm PMVs must serve at their *configured* UBs — a
        standby promoted into a degraded budget would throw away the
        very cache warmth replication paid to keep.

        Every adopted view's UB is restored via ``set_upper_bound``
        before it serves (from ``configured_bounds`` keyed by view
        name, else the view's own ``configured_upper_bound_bytes``),
        and the saved-bounds map is re-seeded with those values so a
        later step-down to NORMAL re-applies them harmlessly.  While
        DEGRADED/SHED, the breaker still guards the adopted
        maintainers — pressure policy survives the failover even
        though budgets are restored.
        """
        with self._mutex:
            state = self._state
            self._saved_upper_bounds.clear()
            self._saved_freshness_bounds.clear()
            self._last_lock_timeouts = None
        self.manager = manager
        bounds = configured_bounds or {}
        for managed in manager.managed():
            view = managed.view
            target = bounds.get(view.name, view.configured_upper_bound_bytes)
            view.set_upper_bound(target)
            if state != QoSState.NORMAL:
                with self._mutex:
                    self._saved_upper_bounds[view.name] = target
                managed.maintainer.breaker = self.breaker

    # -- transitions (actions + bookkeeping) ----------------------------------

    def _transition(self, new_state: str) -> None:
        with self._mutex:
            old = self._state
            self._state = new_state
        self.transitions.append((old, new_state))
        if self.metrics is not None:
            self.metrics.record_transition(new_state)

    def _enter_degraded(self) -> None:
        """Engage the memory/maintenance governor.

        Freshness is widened before a single byte of UB is given up:
        an async-maintained view serving slightly-staler answers stays
        on the cheap PMV path, which is often all the relief needed —
        cache residency (the expensive thing to rebuild) is sacrificed
        only second.
        """
        for managed in self.manager.managed():
            view, executor = managed.view, managed.executor
            if view.async_maintenance and executor.freshness_bound is not None:
                self._saved_freshness_bounds[view.name] = executor.freshness_bound
                executor.freshness_bound = max(
                    executor.freshness_bound,
                    int(executor.freshness_bound * self.config.freshness_widen_factor),
                )
        for managed in self.manager.managed():
            view = managed.view
            self._saved_upper_bounds[view.name] = view.upper_bound_bytes
            if view.upper_bound_bytes is not None:
                view.set_upper_bound(
                    max(1, int(view.upper_bound_bytes * UB_SHRINK_FACTOR))
                )
            managed.maintainer.breaker = self.breaker
        self._transition(QoSState.DEGRADED)

    def _exit_degraded(self) -> None:
        """Pressure cleared: restore budgets and retry policy."""
        for managed in self.manager.managed():
            view = managed.view
            if view.name in self._saved_upper_bounds:
                view.set_upper_bound(self._saved_upper_bounds.pop(view.name))
            if view.name in self._saved_freshness_bounds:
                managed.executor.freshness_bound = (
                    self._saved_freshness_bounds.pop(view.name)
                )
            managed.maintainer.breaker = None
        self.breaker.reset()
        self._transition(QoSState.NORMAL)

    def _enter_shed(self) -> None:
        self.admission.set_shedding(True)
        self._transition(QoSState.SHED)

    def _exit_shed(self) -> None:
        self.admission.set_shedding(False)
        self._transition(QoSState.DEGRADED)

    # -- inspection -----------------------------------------------------------

    def stats(self) -> dict:
        backlog = self._backlog_depth()
        isolated = self.isolation_probe is not None and self.isolation_probe()
        with self._mutex:
            return {
                "state": self._state,
                "isolated": isolated,
                "p99_latency": self._p99(),
                "healthy_streak": self._healthy_streak,
                "transitions": len(self.transitions),
                "breaker_state": self.breaker.state,
                "breaker_opens": self.breaker.opens,
                "cdc_backlog": backlog,
            }
