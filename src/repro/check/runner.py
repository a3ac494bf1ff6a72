"""The one drill runner: ``python -m repro.check <drill>|all``.

A drill is a workload, a fault schedule and the invariants judged after
it.  Everything else is decided here, once: which seeds run, which of a
seed's schedule points run, the handle that names one run, the
:class:`Outcome` it produced, the printed summary, the JSON report and
the exit code (0 when every outcome is clean, 1 otherwise)::

    python -m repro.check all --report DRILLS_report.json
    python -m repro.check torture --seeds 0 1 2 --max-points 300
    python -m repro.check --replay torture/1/wal.append:17:torn

A handle is ``<drill>/<seed>/<schedule>``.  The schedule is the drill's
own: a fault point (``FaultSpec.describe()``), a partition plan
(``PartitionPlan.describe()``), ``sched`` or ``free`` for the stress
drill's scheduled and free-running interleavings, or ``none``.  A drill
has no other setting, so a handle names its run exactly, and
``--replay`` reruns it — bit for bit where the drill is deterministic
(torture, failover, nemesis, ``stress/<seed>/sched``).
"""

from __future__ import annotations

import argparse
import json
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable

__all__ = ["Drill", "Outcome", "handle", "main", "parse_handle", "registry", "sample"]


@dataclass
class Outcome:
    """What one run of one drill found."""

    handle: str
    violations: list[str]
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def handle(drill: str, seed: int, schedule: str) -> str:
    return f"{drill}/{seed}/{schedule}"


def parse_handle(text: str) -> tuple[str, int, str]:
    """Inverse of :func:`handle` (no schedule contains a ``/``)."""
    drill, seed, schedule = text.split("/", 2)
    return drill, int(seed), schedule


@dataclass(frozen=True)
class Drill:
    """One registered drill: the schedules a seed reaches, and one run."""

    name: str
    points: Callable[[int], list[str]]
    run: Callable[[int, str], Outcome]
    seeds: tuple[int, ...] = (0,)
    max_points: int | None = None
    """Points run over all seeds together; ``None`` runs every point."""


def registry() -> dict[str, Drill]:
    from repro.bench import (
        cdc,
        endurance,
        failover,
        nemesis,
        netload,
        overload,
        stress,
        torture,
    )

    drills = (
        stress.DRILL,
        overload.DRILL,
        failover.DRILL,
        torture.DRILL,
        torture.CDC_DRILL,
        cdc.DRILL,
        netload.DRILL,
        nemesis.DRILL,
        endurance.DRILL,
    )
    return {drill.name: drill for drill in drills}


def sample(points: list, budget: int) -> list:
    """At most ``budget`` of ``points``, by even stride so the sample
    still spans every site and phase of the enumeration."""
    if len(points) <= budget:
        return list(points)
    stride = len(points) / budget
    return [points[int(i * stride)] for i in range(budget)]


def plan(drill: Drill, seeds: list[int], max_points: int | None) -> list[tuple[int, str]]:
    """The ``(seed, schedule)`` pairs a sweep runs: every point of every
    seed, or ``max_points`` split evenly over the seeds (the first seeds
    take the remainder), each seed's share sampled by even stride."""
    pairs = []
    for n, seed in enumerate(seeds):
        if max_points is None:
            points = drill.points(seed)
        else:
            share = max_points // len(seeds) + (n < max_points % len(seeds))
            points = sample(drill.points(seed), share) if share else []
        pairs.extend((seed, point) for point in points)
    return pairs


def _run(drill: Drill, seed: int, schedule: str) -> Outcome:
    try:
        outcome = drill.run(seed, schedule)
    except Exception as exc:  # a drill that dies is a failing outcome
        traceback.print_exc()
        outcome = Outcome(
            handle(drill.name, seed, schedule),
            [f"drill raised {type(exc).__name__}: {exc}"],
        )
    status = "ok  " if outcome.ok else "FAIL"
    counts = " ".join(f"{key}={value}" for key, value in outcome.counts.items())
    print(f"{status} {outcome.handle}  {counts}", flush=True)
    for violation in outcome.violations[:10]:
        print(f"       {violation}")
    return outcome


def _entry(name: str, outcomes: list[Outcome]) -> dict:
    """One drill's part of the report, and its printed summary."""
    counts: dict[str, int] = {}
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    seeds = list(dict.fromkeys(parse_handle(o.handle)[1] for o in outcomes))
    failed = sum(not outcome.ok for outcome in outcomes)
    print(
        f"== {name}: {len(outcomes)} points over seeds {seeds} — "
        + " ".join(f"{key}={value}" for key, value in counts.items())
        + (f" — {failed} FAILED" if failed else " — ok")
    )
    return {
        "drill": name,
        "ok": not failed,
        "points": len(outcomes),
        "seeds": seeds,
        "counts": counts,
        "outcomes": [dict(asdict(o), ok=o.ok) for o in outcomes],
    }


def main(argv: list[str] | None = None) -> int:
    drills = registry()
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Run the drills; every run prints its replay handle.",
    )
    parser.add_argument("drill", nargs="?", choices=[*drills, "all"])
    parser.add_argument(
        "--seeds", type=int, nargs="+", help="seeds to run (default: the drill's own)"
    )
    parser.add_argument(
        "--max-points",
        type=int,
        help="points per drill, split evenly over the seeds (default: the drill's own)",
    )
    parser.add_argument("--replay", metavar="HANDLE", help="rerun the run a handle names")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            name, seed, schedule = parse_handle(args.replay)
            drill = drills[name]
        except (KeyError, ValueError):
            parser.error(f"not a handle: {args.replay!r}")
        entries = [_entry(name, [_run(drill, seed, schedule)])]
    elif args.drill is not None:
        selected = list(drills.values()) if args.drill == "all" else [drills[args.drill]]
        entries = []
        for drill in selected:
            seeds = args.seeds or list(drill.seeds)
            budget = drill.max_points if args.max_points is None else args.max_points
            outcomes = [_run(drill, seed, point) for seed, point in plan(drill, seeds, budget)]
            entries.append(_entry(drill.name, outcomes))
    else:
        parser.error("name a drill, 'all', or --replay HANDLE")

    failing = [o["handle"] for entry in entries for o in entry["outcomes"] if not o["ok"]]
    for failed in failing:
        print(f"replay: python -m repro.check --replay {failed}")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump({"ok": not failing, "drills": entries}, out, indent=2)
    return 1 if failing else 0
