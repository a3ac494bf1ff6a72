"""Change-data-capture maintenance for PMVs (DESIGN.md §13).

The eager maintainer (:mod:`repro.core.maintenance`) takes an X lock on
the write path of every relevant delete/update — correct, but ROADMAP
open item 4's scalability ceiling for write-heavy traffic.  This package
moves the long tail of maintenance off the write path:

- :class:`AsyncMaintainer` — a cursor on the write-ahead log: each
  statement's record carries its change while a drain is registered,
  so the feed order *is* the serialization order.  The drain applies
  the deltas in LSN order through the existing
  :class:`~repro.core.maintenance.PMVMaintainer` machinery under its
  own lock/breaker discipline, advancing each view's ``applied_lsn``
  cursor;
- :class:`HeavyLightSplitter` — keeps operator- or popularity-designated
  hot condition parts on the eager path (Abo-Khamis et al.'s
  heavy-light partitioning) while cold changes wait in the log.

Answers served from an async-maintained view carry a ``staleness``
stamp (current LSN minus applied LSN) and are bypassed to full
execution beyond the executor's ``freshness_bound`` — the same honesty
model replication uses for replica lag.
"""

from repro.cdc.maintainer import AsyncMaintainer
from repro.cdc.split import HeavyLightSplitter

__all__ = ["AsyncMaintainer", "HeavyLightSplitter"]
