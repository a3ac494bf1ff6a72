"""Circuit breaker for deferred-maintenance retries.

Under reader-heavy overload the maintainer's X-lock retry loop is pure
queueing-theory poison: every retry parks a writer thread on the lock
queue for another timeout+backoff round while fresh readers keep
arriving.  The breaker turns that loop off when it stops paying:

- **CLOSED** — normal operation, retries allowed.
  :data:`FAILURE_THRESHOLD` *consecutive* failures (retry budgets
  exhausted, or maintenance fail-safe clears) trip it OPEN.
- **OPEN** — retries are paused: :meth:`allow_retries` answers False,
  so maintenance makes exactly one immediate no-wait attempt and a
  denial aborts the writing statement fast instead of stalling the
  pipeline.  After :data:`RESET_TIMEOUT` seconds the next caller is let
  through as a half-open probe.
- **HALF_OPEN** — one probe runs with full retries.  Success closes
  the breaker; failure re-opens it for another :data:`RESET_TIMEOUT`.

Thread-safe; state transitions are reported to an optional
:class:`~repro.core.metrics.QoSMetrics` so ``stats()`` can expose the
breaker gauge.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker", "FAILURE_THRESHOLD", "RESET_TIMEOUT"]

FAILURE_THRESHOLD = 3
RESET_TIMEOUT = 1.0


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self._clock = clock
        self.metrics = metrics
        self._mutex = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.opens = 0

    # -- queries -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._mutex:
            return self._effective_state()

    def _effective_state(self) -> str:
        """State after applying the reset timeout (mutex held)."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= RESET_TIMEOUT
        ):
            self._state = self.HALF_OPEN
            self._probe_in_flight = False
            self._report()
        return self._state

    def allow_retries(self) -> bool:
        """Whether the caller may run its full retry/backoff loop.

        CLOSED: yes.  OPEN: no — callers degrade to a single no-wait
        attempt.  HALF_OPEN: yes for exactly one caller (the probe);
        concurrent callers during the probe stay degraded.
        """
        with self._mutex:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    # -- outcome reporting ----------------------------------------------------

    def record_success(self) -> None:
        """A maintenance pass completed: close (from any state)."""
        with self._mutex:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self._report()

    def record_failure(self) -> None:
        """A retry budget was exhausted or a fail-safe clear fired."""
        with self._mutex:
            state = self._effective_state()
            if state == self.HALF_OPEN:
                # The probe failed: straight back to OPEN.
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                state == self.CLOSED
                and self._consecutive_failures >= FAILURE_THRESHOLD
            ):
                self._trip()

    def reset(self) -> None:
        """Force-close (the governor does this when pressure clears)."""
        with self._mutex:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self._report()

    # -- internals ------------------------------------------------------------

    def _trip(self) -> None:
        """Open the breaker (mutex held)."""
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.opens += 1
        self._report()

    def _report(self) -> None:
        if self.metrics is not None:
            self.metrics.record_breaker(self._state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state}, opens={self.opens})"
