"""``python -m bench.perf`` — one harness for the real read and write paths.

Without ``--workload`` it runs every workload end to end (tracing off),
then the traced pass of each, checks every answer and the recovered WAL,
prints every metric by name with its unit and writes one JSON result
(``--out``, default ``bench/out/result.json``).

With ``--workload NAME --seed N --seconds S --trace 0|1`` it runs that
one workload (``--trace 0``: end to end; ``--trace 1``: the traced
pass) and prints, as the last line of stdout, the one-object JSON form
``BENCHMARK.json``'s driver reads.

``--smoke`` runs everything at about 1/20 size to test the harness, not
to produce numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from bench import checks, spec, trace
from bench.loadgen import PhaseLog, run_phase
from bench.streams import WRITE_KINDS, Streams
from bench.sut import OUT_DIR, ROOT, start_sut

GEN_LAG_LIMIT_MS = 1.0


# -- one workload, end to end ------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    metrics: dict = field(default_factory=dict)  # name -> {"value", "unit", "n", ...}
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _ms(timed, since_due: bool = False, reference: bool = True) -> list[float]:
    """Latencies in ms of ``(entry, speed factor)`` pairs — at reference
    speed unless ``reference`` is off (the raw wall-clock figure)."""
    return [
        (e.end - (e.due if since_due else e.start)) * (f if reference else 1.0) * 1e3
        for e, f in timed
    ]


def run_workload(workload: spec.Workload, seed: int, seconds: float, repeats: int) -> RunResult:
    result = RunResult(workload.name, seed, seconds)
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    streams = Streams(workload, seed, seconds)
    sut, setup_times = start_sut(workload, scratch, seed, repeats)
    logs: dict[str, PhaseLog] = {}
    wal_growth: dict[str, int] = {}
    try:
        for phase in workload.phases:
            closed, open_ = streams.for_phase(phase)
            callers = [sut.caller() for _ in closed + open_]
            before = sut.wal_bytes()
            try:
                logs[phase.name] = run_phase(phase, phase.share * seconds, callers, closed, open_)
            finally:
                for caller in callers:
                    caller.close()
            wal_growth[phase.name] = sut.wal_bytes() - before
        shape, snapshot_path, wal_dir = sut.shape, sut.snapshot_path, sut.wal_dir
        peak_rss_mb = sut.close()
    except BaseException:
        sut.abort()
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    entries = [e for log in logs.values() for e in log.entries()]
    report = checks.verify(shape, snapshot_path, wal_dir, entries)
    shutil.rmtree(scratch, ignore_errors=True)
    _summarise(result, workload, logs, wal_growth, setup_times, peak_rss_mb)
    errors = [e for e in entries if e.error is not None]
    result.attempted = len(entries)
    result.failed = len(errors) + len(report.mismatches)
    result.correct = result.failed == 0
    result.details.update(
        error_rate=result.failed / max(1, result.attempted),
        errors=sorted({e.error for e in errors})[:5],
        checks={
            "answers_checked": report.answers_checked,
            "partials_checked": report.partials_checked,
            "acked_writes_checked": report.writes_checked,
            "wal_records_recovered": report.wal_records,
            "wal_torn_tail": report.wal_torn_tail,
            "mismatches": report.mismatches,
        },
    )
    return result


def _summarise(result, workload, logs, wal_growth, setup_times, peak_rss_mb) -> None:
    src = workload.sources
    metrics = result.metrics

    def put(name: str, value: float, n: int, note: str) -> None:
        unit = next(m.unit for m in spec.END_TO_END if m.name == name)
        metrics[name] = {"value": value, "unit": unit, "n": n, "note": note}

    def describe(phase_name: str) -> str:
        phase = next(p for p in workload.phases if p.name == phase_name)
        what = "connection" if workload.transport == "socket" else "thread"
        parts = []
        if phase.closed:
            parts.append(f"{len(phase.closed)} {what}(s) closed loop [{'+'.join(phase.closed)}]")
        if phase.open:
            parts.append(
                f"{len(phase.open)} {what}(s) open loop at {phase.rate:g}/s [{'+'.join(phase.open)}]"
            )
        return f"phase {phase_name}: " + ", ".join(parts)

    raw: dict[str, float] = {}

    def ok(log: PhaseLog, kinds, loop="closed"):
        return [(e, f) for e, f in log.timed(loop) if e.error is None and e.op[0] in kinds]

    def put_pct(name: str, timed, q: float, phase_name: str, since_due: bool = False) -> None:
        put(name, _pct(_ms(timed, since_due), q), len(timed), describe(phase_name))
        raw[name] = _pct(_ms(timed, since_due, reference=False), q)

    def put_rate(name: str, log: PhaseLog, timed, note: str) -> None:
        put(name, len(timed) / log.reference_wall, len(timed), note)
        raw[name] = len(timed) / log.wall

    put("setup_s", median(s for s, _raw in setup_times), len(setup_times),
        "data load + snapshot + view build + warm-up + server start, median")
    raw["setup_s"] = median(r for _s, r in setup_times)
    read_log = logs[src["read"]]
    full = ok(read_log, ("read", "replica"))
    put_pct("read_p50_ms", full, 50, src["read"])
    put_pct("read_p99_ms", full, 99, src["read"])
    partial = ok(logs[src["partial"]], ("partial",))
    put_pct("partial_p50_ms", partial, 50, src["partial"])
    put_pct("partial_p95_ms", partial, 95, src["partial"])
    qps_log = logs[src["qps"]]
    put_rate("read_qps", qps_log, ok(qps_log, ("read", "replica")), describe(src["qps"]))
    open_log = logs[src["open"]]
    sent = [(e, f) for e, f in open_log.timed("open") if e.error is None]
    put_pct("open_p50_ms", sent, 50, src["open"], since_due=True)
    gen_lag = _pct([e.gen_lag * 1e3 for e in open_log.entries("open")], 99)
    write_log = logs[src["write"]]
    writes = ok(write_log, WRITE_KINDS)
    put_pct("write_p50_ms", writes, 50, src["write"])
    put_pct("write_p95_ms", writes, 95, src["write"])
    put_rate("write_wps", write_log, writes, describe(src["write"]) + ", wall time incl. drains")
    put("wal_bytes_per_write", wal_growth[src["write"]] / max(1, len(writes)), len(writes),
        "WAL directory growth over the phase / acked writes")
    put("peak_rss_mb", peak_rss_mb, 1, "VmHWM of the process hosting the database")
    tails = {
        "open_p99_ms": _pct(_ms(sent, since_due=True), 99),
        "write_p99_ms": _pct(_ms(writes), 99),
    }
    result.details.update(
        gen_lag_p99_ms=gen_lag,
        open_phase_valid=gen_lag <= GEN_LAG_LIMIT_MS,
        raw=raw,
        tails=tails,
        phases={
            name: {
                "wall_s": log.wall,
                "speed_index": log.speed_index(),
                "ops": sum(1 for _ in log.entries()),
                "by_kind": _count_kinds(log),
            }
            for name, log in logs.items()
        },
    )


def _count_kinds(log: PhaseLog) -> dict:
    counts: dict[str, int] = {}
    for entry in log.entries():
        counts[entry.op[0]] = counts.get(entry.op[0], 0) + 1
    return counts


# -- reporting -----------------------------------------------------------------------


def _meta(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "seconds_per_workload": seconds,
        "data": {
            "customers": spec.CUSTOMERS, "orders": spec.ORDERS, "lineitems": spec.LINEITEMS,
            "template": "T1", "parts_per_query": "2x2",
            "shapes": {
                s.name: {"dates": s.dates, "suppliers": s.suppliers, "cells": s.cells,
                         "F": s.tuples_per_entry, "pmv_entries": s.max_entries}
                for s in spec.SHAPES.values()
            },
        },
        "flush_policy": spec.FLUSH_POLICY,
    }


def _print_run(result: RunResult) -> None:
    print(f"== {result.workload}  seed={result.seed}  seconds={result.seconds:g}")
    d = result.details
    for name, m in result.metrics.items():
        raw = f"raw {d['raw'][name]:.4f}  " if name in d["raw"] else ""
        print(f"{result.workload:18s} {name:22s} {m['value']:12.4f} {m['unit']:4s} n={m['n']:<6d} {raw}{m['note']}")
    for name, value in d["tails"].items():
        print(f"{result.workload:18s} {name:22s} {value:12.4f} ms   unbounded tail (per-layer metric tail.{name})")
    valid = "valid" if d["open_phase_valid"] else "INVALID (generator late)"
    print(f"{result.workload:18s} {'gen_lag_p99_ms':22s} {d['gen_lag_p99_ms']:12.4f} ms   open phase {valid}")
    print(f"{result.workload:18s} {'error_rate':22s} {d['error_rate']:12.6f} ratio {result.failed} of {result.attempted}")
    c = d["checks"]
    print(
        f"{result.workload:18s} checks: {c['answers_checked']} full answers, "
        f"{c['partials_checked']} partial answers, {c['acked_writes_checked']} acked writes "
        f"against {c['wal_records_recovered']} recovered WAL records; "
        f"{len(c['mismatches'])} mismatches"
    )
    for line in c["mismatches"] + d["errors"]:
        print(f"{result.workload:18s}   ! {line}")
    for name, p in d["phases"].items():
        print(f"{result.workload:18s}   phase {name}: {p['ops']} ops in {p['wall_s']:.2f}s "
              f"at speed index {p['speed_index']:.2f} {p['by_kind']}")


def _print_trace(name: str, layer: dict) -> None:
    print(f"== {name}  traced pass ({layer['ops']} ops, spans in {layer['trace_file']})")
    for metric, m in layer["metrics"].items():
        print(f"{name:18s} {metric:32s} {m['value']:14.4f} {m['unit']}")
    print(f"{name:18s} reference read p50 over TCP, tracing off: {layer['reference_read_p50_ms']:.4f} ms")
    for note in layer["notes"]:
        print(f"{name:18s}   ! {note}")


def _driver_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.DEFAULT_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeats", type=int, default=1, help="full runs to record (seed, seed+1, ...)")
    parser.add_argument("--smoke", action="store_true", help="~1/20 size: tests the harness only")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = parser.parse_args(argv)
    spec.check_manifest(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    seconds = args.seconds / 20 if args.smoke else args.seconds
    setups = 1 if args.smoke else spec.SETUP_REPEATS
    trace_ops = spec.TRACE_OPS // 20 if args.smoke else spec.TRACE_OPS

    if args.workload is not None:
        workload = spec.WORKLOADS[args.workload]
        if args.trace:
            tails = run_workload(workload, args.seed, spec.TAIL_SECONDS, 1).details["tails"]
            layer = trace.traced_pass(workload, args.seed, trace_ops, OUT_DIR, tails)
            _print_trace(workload.name, layer)
            print(_driver_line(layer["correct"], layer["ops"], layer["failed"], layer["metrics"]))
            return 0 if layer["correct"] else 1
        result = run_workload(workload, args.seed, seconds, setups)
        _print_run(result)
        print(_driver_line(result.correct, result.attempted, result.failed, result.metrics))
        return 0 if result.correct else 1

    document = {"meta": _meta(args.seed, seconds) | {"smoke": args.smoke}, "runs": []}
    print(json.dumps(document["meta"], indent=1))
    all_correct = True
    for repeat in range(args.repeats):
        seed = args.seed + repeat
        run = {"seed": seed, "workloads": {}}
        for workload in spec.WORKLOADS.values():
            result = run_workload(workload, seed, seconds, setups)
            _print_run(result)
            layer = trace.traced_pass(workload, seed, trace_ops, OUT_DIR, result.details["tails"])
            _print_trace(workload.name, layer)
            all_correct = all_correct and result.correct and layer["correct"]
            run["workloads"][workload.name] = {
                "end_to_end": result.metrics,
                "per_layer": layer["metrics"],
                "attempted": result.attempted,
                "failed": result.failed,
                "details": result.details,
                "trace": {
                    k: layer[k]
                    for k in ("ops", "failed", "trace_file", "reference_read_p50_ms", "notes")
                },
            }
        document["runs"].append(run)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"result written to {os.path.relpath(args.out, ROOT)}; "
          f"{'all checks passed' if all_correct else 'CHECKS FAILED'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
