"""Command-line experiment runner.

Regenerate any table/figure of the paper's evaluation directly::

    python -m repro.bench table1
    python -m repro.bench fig6 fig7
    python -m repro.bench all
    PMV_BENCH_SCALE=0.05 python -m repro.bench fig6
    python -m repro.bench fig10 --downscale 500 --runs 50

Scales default to the same knobs the pytest benchmarks use
(``PMV_BENCH_SCALE``, ``PMV_BENCH_DOWNSCALE``, ``PMV_BENCH_RUNS``);
the ``--scale/--downscale/--runs`` flags override them for the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench import figures
from repro.bench.reporting import Series

EXPERIMENTS = {
    "table1": figures.run_table1,
    "fig6": figures.run_fig6,
    "fig7": figures.run_fig7,
    "fig8": figures.run_fig8,
    "fig9": figures.run_fig9,
    "fig10": figures.run_fig10,
    "fig11": figures.run_fig11,
    "fig12": figures.run_fig12,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, "all"],
        help="which experiments to run ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        type=str,
        default=None,
        help="simulation scale fraction, or 'paper' (fig6/fig7)",
    )
    parser.add_argument(
        "--downscale",
        type=int,
        default=None,
        help="TPC-R row divisor; 1 = paper size (table1, fig8-10)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="measured queries per engine data point (fig8-10)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump every experiment's raw series to a JSON file",
    )
    args = parser.parse_args(argv)

    if args.scale is not None:
        os.environ["PMV_BENCH_SCALE"] = args.scale
    if args.downscale is not None:
        os.environ["PMV_BENCH_DOWNSCALE"] = str(args.downscale)
    if args.runs is not None:
        os.environ["PMV_BENCH_RUNS"] = str(args.runs)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    collected: dict[str, object] = {}
    for name in names:
        print(f"\n===== {name} =====")
        started = time.perf_counter()
        collected[name] = _jsonable(EXPERIMENTS[name](verbose=True))
        print(f"[{name} done in {time.perf_counter() - started:.1f}s]")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, default=str)
        print(f"\nraw series written to {args.json}")
    return 0


def _jsonable(result):
    """Series objects -> plain dicts (floats kept; inf via default=str)."""
    if isinstance(result, Series):
        return {"label": result.label, "x": result.x, "y": result.y}
    if isinstance(result, list):
        return [_jsonable(item) for item in result]
    return result


if __name__ == "__main__":
    sys.exit(main())
