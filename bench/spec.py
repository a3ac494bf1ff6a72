"""What the benchmark runs and what it reports: shapes, workloads, metrics.

Everything a reader needs to interpret a number is a constant here —
data sizes, phase shares, open-loop rates, bounds — so a result file can
be read against one place.  ``BENCHMARK.json`` at the repository root
restates the workload and metric names for the driver;
:func:`check_manifest` keeps the two from drifting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SECONDS",
    "END_TO_END",
    "PER_LAYER",
    "SHAPES",
    "WORKLOADS",
    "Metric",
    "Phase",
    "Shape",
    "Workload",
    "check_manifest",
]

DEFAULT_SEED = 20070415
DEFAULT_SECONDS = 20

# TPC-R-like instance: scale_factor 1 at downscale 1000.  The dataset is
# a fixed instance (TPCRConfig's own seed); --seed drives every stream.
CUSTOMERS, ORDERS, LINEITEMS = 150, 1_500, 6_000
LINEITEMS_PER_ORDER = 4

FLUSH_POLICY = (
    "base rows bulk-loaded, then written as a CRC-framed snapshot file; every "
    "measured write appends to a disk-backed segmented WAL (1 MiB segments) "
    "under bench/out/, fsync per record - the only policy the code has"
)
WAL_SEGMENT_BYTES = 1 << 20
LEASE_TTL_SECONDS = 5.0
HEARTBEAT_SECONDS = 1.0
DRAIN_BATCH = 32
DRAIN_EVERY = 32  # writes between generator-driven drain() calls
PARTIAL_EVERY = 5  # every 5th read of a read stream is partial-only
REPLICA_SHARE = 0.10  # of mixed_socket's full reads
REPLICA_STALENESS_BOUND = 8
CHECK_EVERY = 20  # every 20th full answer is checked against the oracle
CYCLE_BACKLOG = 8  # wire write cycle deletes the order inserted 8 cycles ago
SETUP_REPEATS = 3
TRACE_OPS = 500
TAIL_SECONDS = 8  # the untraced end-to-end pass a traced run takes its demoted tails from


@dataclass(frozen=True)
class Shape:
    """One data shape: the T1 cell grid and the PMV sized against it."""

    name: str
    dates: int
    suppliers: int
    tuples_per_entry: int  # the paper's F
    max_entries: int  # PMV capacity in cells

    @property
    def cells(self) -> int:
        return self.dates * self.suppliers


SHAPES = {
    # 160 cells of ~37 rows; h=2x2 answers of ~150 rows (~8 KB on the
    # wire); F=64 holds a whole cell and the PMV holds every cell.
    "dense": Shape("dense", dates=20, suppliers=8, tuples_per_entry=64, max_entries=160),
    # 3 600 cells of ~1.7 rows; answers of ~7 rows; the PMV holds 5 %.
    "sparse": Shape("sparse", dates=120, suppliers=30, tuples_per_entry=8, max_entries=180),
}


@dataclass(frozen=True)
class Phase:
    """One measured phase: closed-loop callers, open-loop callers, or both.

    ``closed``/``open`` name one stream per caller (a connection for a
    socket workload, a thread for an in-process one).  ``rate`` is the
    open loop's total arrival rate in ops per second; ``max_rate`` is
    the per-caller rate the up-front streams are sized for.
    """

    name: str
    share: float  # of --seconds
    closed: tuple[str, ...] = ()
    open: tuple[str, ...] = ()
    rate: float = 0.0
    max_rate: float = 1_000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    transport: str  # "socket" | "inproc"
    alpha: float  # Zipf skew of the read streams
    phases: tuple[Phase, ...]
    sources: dict  # metric family -> phase name
    replicated: bool = False
    async_cdc: bool = False


# Stream names: "reads" = full reads with every 5th partial-only (and,
# replicated, 10 % replica reads); "full" = full reads only; "writes" =
# the transport's write stream (wire: order/lineitem insert + delete_eq
# cycle; in-process: 30/40/30 delete/update/insert on lineitem by key);
# "mixed" = writes with a drain every 32 and two reads per 10 writes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot_socket",
            why="all-hit large answers over TCP: wire, encode and thread handoff do the work, O2 almost none",
            shape="dense",
            transport="socket",
            alpha=3.0,
            phases=(
                Phase("a", 0.40, closed=("reads",), max_rate=600),
                Phase("b", 0.15, closed=("full", "full"), max_rate=400),
                Phase("c", 0.25, open=("full", "full"), rate=100.0),
                Phase("d", 0.20, closed=("writes",), max_rate=1_500),
            ),
            sources={"read": "a", "partial": "a", "qps": "b", "open": "c", "write": "d"},
        ),
        Workload(
            name="cold_inproc",
            why="working set far beyond PMV and O1 memo, no wire: replacement, O3 refill, planner and heap do the work",
            shape="sparse",
            transport="inproc",
            alpha=1.07,
            phases=(
                Phase("a", 0.40, closed=("reads",), max_rate=7_000),
                Phase("c", 0.20, open=("full",), rate=500.0),
                Phase("d", 0.40, closed=("writes",), max_rate=6_000),
            ),
            sources={"read": "a", "partial": "a", "qps": "a", "open": "c", "write": "d"},
        ),
        Workload(
            name="mixed_socket",
            why="S-lock readers beside X-lock eager maintenance, WAL fsync, dedup and semi-sync ack on one view",
            shape="dense",
            transport="socket",
            alpha=3.0,
            replicated=True,
            phases=(
                Phase("a", 0.70, closed=("reads", "writes"), max_rate=600),
                Phase("c", 0.30, closed=("writes",), open=("full",), rate=50.0, max_rate=600),
            ),
            sources={"read": "a", "partial": "a", "qps": "a", "open": "c", "write": "a"},
        ),
        Workload(
            name="write_cdc_inproc",
            why="write path with maintenance deferred: WAL, outbox and generator-driven drain instead of eager X locks",
            shape="dense",
            transport="inproc",
            alpha=3.0,
            async_cdc=True,
            phases=(
                Phase("a", 0.75, closed=("mixed",), max_rate=3_000),
                Phase("c", 0.25, open=("mixed",), rate=200.0),
            ),
            sources={"read": "a", "partial": "a", "qps": "a", "open": "c", "write": "a"},
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


# Bounds.  The issue asked for 0.10 on medians and rates and 0.15 on
# tails; the box cannot resolve that (bench/README.md, "Noise"), so the
# timing bounds are the widest the contract allows and the two metrics
# that are not timings keep tight ones.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p99_ms", "ms", "lower", 0.25),
    Metric("read_qps", "1/s", "higher", 0.25),
    Metric("partial_p50_ms", "ms", "lower", 0.25),
    Metric("partial_p95_ms", "ms", "lower", 0.25),
    Metric("open_p50_ms", "ms", "lower", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25),
    Metric("write_p95_ms", "ms", "lower", 0.25),
    Metric("write_wps", "1/s", "higher", 0.25),
    Metric("wal_bytes_per_write", "B", "lower", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)

PER_LAYER = (
    Metric("net.client.encode_us", "us", "lower"),
    Metric("net.client.decode_us", "us", "lower"),
    Metric("net.server.decode_query_us", "us", "lower"),
    Metric("net.server.encode_result_us", "us", "lower"),
    Metric("net.server.frame_us", "us", "lower"),
    Metric("net.resp_bytes", "B", "lower"),
    Metric("net.rtt_us", "us", "lower"),
    Metric("net.unattributed_us", "us", "lower"),
    Metric("net.stage_sum_ratio", "ratio", "higher"),
    Metric("net.cluster.route_us", "us", "lower"),
    Metric("net.cluster.apply_write_us", "us", "lower"),
    Metric("replication.ship_us_per_write", "us", "lower"),
    Metric("replication.replica_lag_max", "count", "lower"),
    Metric("qos.gate_us", "us", "lower"),
    Metric("qos.shed", "count", "lower"),
    Metric("qos.queued", "count", "lower"),
    Metric("core.o1_us", "us", "lower"),
    Metric("core.o1_cache_hit_ratio", "ratio", "higher"),
    Metric("core.partial_us", "us", "lower"),
    Metric("core.lock_bypasses", "count", "lower"),
    Metric("core.execute_us", "us", "lower"),
    Metric("core.o3_overhead_us", "us", "lower"),
    Metric("core.view.bcp_hit_ratio", "ratio", "higher"),
    Metric("core.view.evictions_per_query", "count", "lower"),
    Metric("core.view.entries", "count", "higher"),
    Metric("core.view.bytes", "B", "lower"),
    Metric("core.maint_eager_us", "us", "lower"),
    Metric("engine.plan_us", "us", "lower"),
    Metric("engine.full_exec_us", "us", "lower"),
    Metric("engine.pages_read_per_query", "count", "lower"),
    Metric("engine.bufferpool_hit_ratio", "ratio", "higher"),
    Metric("engine.dml_us", "us", "lower"),
    Metric("engine.wal_append_us", "us", "lower"),
    Metric("engine.wal_bytes_per_record", "B", "lower"),
    Metric("engine.lock_waits", "count", "lower"),
    Metric("engine.lock_timeouts", "count", "lower"),
    Metric("cdc.outbox_append_us", "us", "lower"),
    Metric("cdc.drain_us_per_record", "us", "lower"),
    Metric("cdc.deltas_per_record", "ratio", "lower"),
    Metric("cdc.max_staleness_lsn", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    # Tails demoted from the end-to-end set (they do not repeat within
    # any bound here); from a short untraced end-to-end pass.
    Metric("tail.open_p99_ms", "ms", "lower"),
    Metric("tail.write_p99_ms", "ms", "lower"),
)


def check_manifest(root: str) -> None:
    """Fail loudly when ``BENCHMARK.json`` names something this file
    does not (or the other way round).  A missing manifest is fine: the
    harness also runs from a bare ``src/`` + ``bench/`` tree."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)

    def rows(metrics):
        return [
            {"name": m.name, "unit": m.unit, "better": m.better}
            | ({} if m.bound is None else {"bound": m.bound})
            for m in metrics
        ]

    expected = {
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": rows(END_TO_END),
        "per_layer": rows(PER_LAYER),
        "run_seconds": DEFAULT_SECONDS,
    }
    for key, value in expected.items():
        if manifest.get(key) != value:
            raise SystemExit(f"BENCHMARK.json {key!r} disagrees with bench/spec.py")
