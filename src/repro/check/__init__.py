"""``repro.check`` — the world every drill builds and the oracle every
drill is judged by (DESIGN.md §3, "How answers are judged")."""

from repro.check import oracle, world
from repro.check.oracle import *  # noqa: F401,F403
from repro.check.world import *  # noqa: F401,F403

__all__ = [*oracle.__all__, *world.__all__]
