"""Heavy-light splitting: which changes stay on the eager path.

Abo-Khamis et al. maintain queries under updates by partitioning keys
into *heavy* (maintained eagerly, they are read constantly) and *light*
(batched, the long tail).  Here the unit is the condition part: a
base-relation change whose ``Cselect`` attribute values fall in a
designated hot set is applied to the PMV at write time (the classic
X-lock path), everything else waits in the log and is applied by the
background drain.

Hot sets come from the operator (``hot_parts``).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.engine.transactions import Change

__all__ = ["HeavyLightSplitter"]


class HeavyLightSplitter:
    """Classifies one base-relation change as hot (eager) or cold (async).

    ``hot_parts`` maps a qualified slot column (``"r.f"``) to the raw
    attribute values considered hot.  ``default_hot`` is the verdict
    when no hot set is configured for any slot of the changed relation
    (``True`` degenerates to fully-eager maintenance, ``False`` to
    fully-async).
    """

    def __init__(
        self,
        hot_parts: Mapping[str, Iterable[Any]] | None = None,
        default_hot: bool = False,
    ) -> None:
        self.hot_values: dict[str, set[Any]] = {
            column: set(values) for column, values in (hot_parts or {}).items()
        }
        self.default_hot = default_hot

    def is_hot(self, change: Change, view) -> bool:
        """True when the change touches a hot condition part of ``view``.

        Reads the *old* row (deletes/updates maintain by removing
        derivations of the old values; inserts never reach here).
        """
        row = change.old_row if change.old_row is not None else change.new_row
        if row is None:
            return self.default_hot
        saw_hot_set = False
        for slot in view.template.slots:
            if slot.relation != change.relation:
                continue
            hot = self.hot_values.get(slot.column)
            if not hot:
                continue
            saw_hot_set = True
            value = row[slot.column.split(".", 1)[1]]
            if value in hot:
                return True
        if saw_hot_set:
            return False
        return self.default_hot
