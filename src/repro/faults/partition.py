"""Seeded, replayable network-partition schedules (the nemesis).

A :class:`PartitionPlan` is the partition analogue of
:class:`~repro.faults.plan.FaultPlan`: a deterministic list of
:class:`PartitionEvent` entries — "at driver step N, cut (or heal)
this directed link" — generated from a seed, serializable to a compact
``SCHEDULE`` handle, and replayable bit-for-bit.  The
:class:`Nemesis` executes the plan against whatever link seams the
harness registers:

======================  ====================================================
``coord-primary``       the heartbeat/lease control link
                        (:class:`~repro.replication.lease.ControlLink`) —
                        cutting ``up`` hides the primary from the
                        coordinator, cutting ``down`` starves the
                        primary of lease renewals
``primary-replica``     the WAL shipping link
                        (:class:`~repro.replication.ship.ReplicationLink`
                        ``partitioned`` seam)
``client-server``       the TCP serving edge
                        (:class:`~repro.net.server.NetServer`'s
                        ``refuse_connections`` hook plus
                        ``drop_connections()``)
======================  ====================================================

Every generated plan ends with a *quiesce tail*: all links healed for
the final stretch of the run, so the history checker can also assert
the cluster converges (acked writes present, lag drains) rather than
merely that it never lied mid-chaos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = ["PARTITION_LINKS", "PartitionEvent", "PartitionPlan", "Nemesis"]

#: The directed link pairs a plan may cut.
PARTITION_LINKS: tuple[str, ...] = (
    "coord-primary",
    "primary-replica",
    "client-server",
)

_ACTIONS = ("cut", "heal")
_DIRECTIONS = ("both", "up", "down")


@dataclass(frozen=True)
class PartitionEvent:
    """One scheduled link transition at a driver step (0-based)."""

    step: int
    action: str
    link: str
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.link not in PARTITION_LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")

    def describe(self) -> str:
        """Compact replayable form, e.g. ``12:cut:coord-primary:up``."""
        return f"{self.step}:{self.action}:{self.link}:{self.direction}"

    @staticmethod
    def parse(text: str) -> "PartitionEvent":
        """Inverse of :meth:`describe`."""
        step, action, link, direction = text.split(":")
        return PartitionEvent(int(step), action, link, direction)


class PartitionPlan:
    """A deterministic schedule of cut/heal events over driver steps."""

    def __init__(self, events: Iterable[PartitionEvent] = ()) -> None:
        self.events = tuple(sorted(events, key=lambda e: (e.step, e.link, e.action)))

    @classmethod
    def generate(
        cls,
        seed: int,
        steps: int,
        links: Iterable[str] = PARTITION_LINKS,
        min_cut: int = 3,
        max_cut: int = 12,
        min_gap: int = 2,
        max_gap: int = 8,
        quiesce: int = 10,
    ) -> "PartitionPlan":
        """A seeded schedule over a ``steps``-long run.

        Each link independently alternates healthy gaps and cut
        windows (sometimes asymmetric — one direction only), with no
        event landing inside the final ``quiesce`` steps: the run
        always ends fully healed long enough to converge.
        """
        if steps <= quiesce:
            raise ValueError("steps must exceed the quiesce tail")
        rng = random.Random(f"partition:{seed}")
        horizon = steps - quiesce
        events: list[PartitionEvent] = []
        for link in links:
            at = rng.randint(min_gap, max_gap)
            while at < horizon:
                # Asymmetric cuts only make sense on the directed
                # control link; the other seams are all-or-nothing.
                direction = (
                    rng.choice(("both", "both", "up", "down"))
                    if link == "coord-primary"
                    else "both"
                )
                heal_at = min(horizon, at + rng.randint(min_cut, max_cut))
                events.append(PartitionEvent(at, "cut", link, direction))
                events.append(PartitionEvent(heal_at, "heal", link, "both"))
                at = heal_at + rng.randint(min_gap, max_gap)
        return cls(events)

    def __iter__(self) -> Iterator[PartitionEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        """The replayable ``SCHEDULE`` handle."""
        return ",".join(event.describe() for event in self.events) or "<no events>"

    @staticmethod
    def parse(text: str) -> "PartitionPlan":
        """Inverse of :meth:`describe`."""
        if text == "<no events>":
            return PartitionPlan()
        return PartitionPlan(
            PartitionEvent.parse(item) for item in text.split(",") if item
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionPlan({self.describe()})"


class Nemesis:
    """Executes a :class:`PartitionPlan` against registered link seams.

    The harness registers each link by name with a ``cut(direction)``
    and ``heal(direction)`` callable; :meth:`advance_to` then fires
    every not-yet-fired event whose step has been reached — the driver
    calls it once per step, so the schedule is exact regardless of how
    the driver paces its work.
    """

    def __init__(self, plan: PartitionPlan) -> None:
        self.plan = plan
        self._links: dict[str, tuple[Callable[[str], None], Callable[[str], None]]] = {}
        self._cursor = 0
        self.fired: list[PartitionEvent] = []

    def register(
        self,
        link: str,
        cut: Callable[[str], None],
        heal: Callable[[str], None],
    ) -> None:
        if link not in PARTITION_LINKS:
            raise ValueError(f"unknown link {link!r}")
        self._links[link] = (cut, heal)

    def advance_to(self, step: int) -> list[PartitionEvent]:
        """Fire every pending event scheduled at or before ``step``."""
        fired: list[PartitionEvent] = []
        while self._cursor < len(self.plan.events):
            event = self.plan.events[self._cursor]
            if event.step > step:
                break
            self._cursor += 1
            self._fire(event)
            fired.append(event)
        return fired

    def _fire(self, event: PartitionEvent) -> None:
        seam = self._links.get(event.link)
        if seam is None:  # link not wired in this harness: a no-op
            return
        cut, heal = seam
        (cut if event.action == "cut" else heal)(event.direction)
        self.fired.append(event)

    def heal_all(self) -> None:
        """Force every registered link healthy (end-of-run cleanup)."""
        for _cut, heal in self._links.values():
            heal("both")
