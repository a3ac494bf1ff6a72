"""``repro.check`` — the world every drill builds, the reference model
and oracle every drill is judged by, the invariant checkers, and the
runner every drill runs under (DESIGN.md §3, "How answers are judged")."""

from repro.check import invariants, model, oracle, runner, workers, world
from repro.check.invariants import *  # noqa: F401,F403
from repro.check.model import *  # noqa: F401,F403
from repro.check.oracle import *  # noqa: F401,F403
from repro.check.runner import *  # noqa: F401,F403
from repro.check.workers import *  # noqa: F401,F403
from repro.check.world import *  # noqa: F401,F403

__all__ = [
    *invariants.__all__,
    *model.__all__,
    *oracle.__all__,
    *runner.__all__,
    *workers.__all__,
    *world.__all__,
]
