"""The traced pass: where an end-to-end figure goes, layer by layer.

End-to-end numbers are taken with tracing off, over real sockets and
threads.  This module is the separate pass that explains them: it
replays a seeded sample of a workload's ops in this process, on one
thread, calling each layer's public functions one after another the way
``PMVClient`` and ``NetServer`` do, and records a span around every
call.  All spans come from here — wrappers this module puts around
public methods — never from inside the library.

A span is ``(name, start, end, request id, world)``; its parent is the
smallest span of the same world that contains it in time, which on one
thread is exactly the call that caused it.  A layer's self time is its
span minus the part its children cover.  Counts are read from the
library's public ``stats()`` / ``snapshot()`` / ``io_since()`` surfaces
before and after.

Every workload's pass has the same three parts, over that workload's
data shape and streams:

1. a *reference*: the sample's full reads over real TCP to a
   ``bench.server`` child with tracing off (the p50 to attribute) and
   the ping round trip ``net.rtt_us``;
2. the *read battery* on a world configured like the workload's: odd
   requests traced, even requests untraced, so ``trace.overhead_ratio``
   compares the same unrolled sequence with and without spans;
3. the *write battery*: the workload's write stream applied to four
   variant worlds — no view, eager view, CDC view, replicated — so the
   cost of a write splits into engine, WAL, maintenance, outbox, drain,
   ship and dedup parts whichever way the workload itself maintains.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import time
from collections import defaultdict
from statistics import median

from repro.core.decompose import decompose, group_parts
from repro.net import protocol
from repro.qos.deadline import Deadline

from bench import spec
from bench.loadgen import InprocCaller, Speedometer, _Domains
from bench.streams import Streams, warmup_reads
from bench.sut import ROOT, Sut
from bench.world import bind, build_world, dir_bytes

__all__ = ["Tracer", "traced_pass"]

_clock = time.perf_counter

STAGES = (
    "net.client.encode",
    "net.server.recv_frame",
    "net.server.decode_query",
    "net.cluster.execute_query",
    "net.server.encode_result",
    "net.server.send_frame",
    "net.client.decode",
)


class Tracer:
    """In-memory span recorder.  ``on`` gates recording per request, so
    the same wrapped objects serve traced and untraced requests."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, rid, world)
        self.on = False
        self.rid = 0
        self.world = ""
        # The batteries time the calibration kernel between requests,
        # so spans, like end-to-end latencies, read at reference speed.
        self.speed = Speedometer()

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self.rid, self.world))

    def wrap(self, name: str, function):
        """``function`` with a span around each call made while on."""

        def spanned(*args, **kwargs):
            if not self.on:
                return function(*args, **kwargs)
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                self.spans.append((name, start, _clock(), self.rid, self.world))

        return spanned

    def tree(self) -> list[dict]:
        """Spans with ids, parents, self times and speed factors
        resolved; ``self`` is already at reference speed."""
        ordered = sorted(self.spans, key=lambda s: (s[4], s[1], -s[2]))
        factors = self.speed.factors([s[1] for s in ordered])
        out: list[dict] = []
        stack: list[dict] = []
        for (name, start, end, rid, world), factor in zip(ordered, factors):
            while stack and not (
                stack[-1]["world"] == world
                and stack[-1]["start"] <= start
                and end <= stack[-1]["end"]
            ):
                stack.pop()
            node = {
                "id": len(out), "name": name, "start": start, "end": end, "rid": rid,
                "world": world, "parent": stack[-1]["id"] if stack else None,
                "factor": float(factor), "took": (end - start) * factor,
                "self": (end - start) * factor,
            }
            if stack:
                stack[-1]["self"] -= node["took"]
            out.append(node)
            stack.append(node)
        return out


class _Spanned:
    """Stands in for ``target``: every attribute is the target's, except
    the named methods, which record a span around the real call."""

    def __init__(self, target, tracer: Tracer, methods: dict[str, str]) -> None:
        self._target = target
        for method, span in methods.items():
            setattr(self, method, tracer.wrap(span, getattr(target, method)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def _instrument(world, tracer: Tracer) -> None:
    """Put span wrappers on the public calls between layers."""
    database = world.database
    database.wal.append = tracer.wrap("engine.wal.append", database.wal.append)
    if database.outbox is not None:
        database.outbox.append = tracer.wrap("cdc.outbox.append", database.outbox.append)
    if world.gate is None:
        return
    world.gate.manager = _Spanned(world.manager, tracer, {"execute": "core.manager.execute"})
    world.front_end.gate = _Spanned(
        world.gate, tracer, {"execute": "qos.gate.execute", "admit_write": "qos.gate.admit_write"}
    )
    if world.primary is not None:
        world.primary.ship = tracer.wrap("replication.ship", world.primary.ship)


# -- the read battery -----------------------------------------------------------------


class _Request:
    __slots__ = ("op", "rid", "query", "frame", "request", "bound", "routed", "envelope",
                 "resp_bytes", "rows")


class ReadBattery:
    """One request, unrolled: the calls ``PMVClient.query`` and
    ``NetServer._op_query`` make, in their order, over a socketpair."""

    def __init__(self, world, tracer: Tracer) -> None:
        self.world = world
        self.tracer = tracer
        self.domains = _Domains(world.shape)
        self.client_sock, self.server_sock = socket.socketpair()
        for sock in (self.client_sock, self.server_sock):
            sock.settimeout(10.0)  # an answer larger than the buffer fails, not hangs
        self.stages = tuple(
            zip(
                STAGES,
                (self._client_encode, self._wire_in, self._decode_query, self._execute,
                 self._encode_result, self._wire_out, self._client_decode),
            )
        )

    def close(self) -> None:
        self.client_sock.close()
        self.server_sock.close()

    def run(self, op: tuple, rid: int, traced: bool) -> tuple[_Request, float]:
        """The whole request; returns it and its wall time."""
        ctx = _Request()
        ctx.op, ctx.rid = op, rid
        ctx.query = bind(self.world.template, *self.domains.values(op))
        tracer = self.tracer
        tracer.rid, tracer.on = rid, traced
        begin = _clock()
        if traced:
            for name, stage in self.stages:
                start = _clock()
                stage(ctx)
                tracer.add(name, start, _clock())
            tracer.add(f"request.{op[0]}", begin, _clock())
        else:
            for _name, stage in self.stages:
                stage(ctx)
        return ctx, _clock() - begin

    def _client_encode(self, ctx) -> None:
        message = {"op": "query", "query": protocol.encode_query(ctx.query), "id": ctx.rid}
        if ctx.op[0] == "partial":
            message["budget"] = 0.0
        elif ctx.op[0] == "replica":
            message["prefer_replica"] = True
            message["staleness_bound"] = spec.REPLICA_STALENESS_BOUND
        ctx.frame = protocol.encode_frame(message)

    def _wire_in(self, ctx) -> None:
        self.client_sock.sendall(ctx.frame)
        ctx.request = protocol.recv_frame(self.server_sock)

    def _decode_query(self, ctx) -> None:
        ctx.bound = protocol.decode_query(self.world.database.catalog, ctx.request["query"])

    def _execute(self, ctx) -> None:
        request = ctx.request
        budget = request.get("budget")
        ctx.routed = self.world.front_end.execute_query(
            ctx.bound,
            deadline=None if budget is None else Deadline.after(max(0.0, float(budget))),
            staleness_bound=request.get("staleness_bound"),
            prefer_replica=bool(request.get("prefer_replica", False)),
        )

    def _encode_result(self, ctx) -> None:
        routed = ctx.routed
        ctx.envelope = protocol.encode_result(
            routed["result"], served_by=routed["served_by"], replica_lag=routed["replica_lag"],
            epoch=routed.get("epoch"), applied_lsn=routed.get("applied_lsn"),
        )

    def _wire_out(self, ctx) -> None:
        ctx.envelope["id"] = ctx.rid
        frame = protocol.encode_frame(ctx.envelope)
        ctx.resp_bytes = len(frame)
        self.server_sock.sendall(frame)

    def _client_decode(self, ctx) -> None:
        response = protocol.recv_frame(self.client_sock)
        ctx.rows = [tuple(row) for row in response.get("rows", ())]

    def side_calls(self, ctx: _Request, traced: bool) -> None:
        """The calls a request is made of, on their own: preview (O1+O2),
        the planner, plain blocking execution, and O1 as this request
        paid for it (a memo fetch on a hit, a fresh decomposition on a
        miss).  Made for every request, traced or not, so both halves of
        the sample leave the same state behind."""
        world, tracer = self.world, self.tracer
        executor, query = world.executor, ctx.bound
        hit = ctx.routed["result"].metrics.o1_cache_hit
        discretization = world.view.discretization

        def o1():
            if hit:
                executor.o1_cache.decompose_grouped(query, discretization)
            else:
                group_parts(decompose(query, discretization))

        for name, call in (
            ("core.preview", lambda: executor.preview(query)),
            ("engine.plan", lambda: world.database.plan(query)),
            ("engine.full_exec", lambda: executor.execute_without_pmv(query)),
            ("core.o1", o1),
        ):
            start = _clock()
            call()
            if traced:
                tracer.add(name, start, _clock())


# -- the pass -------------------------------------------------------------------------


def traced_pass(workload: spec.Workload, seed: int, ops: int, out_dir: str, tails: dict) -> dict:
    """Run the three parts for ``workload``; returns the per-layer
    metrics (one value for every name in ``spec.PER_LAYER``), op and
    failure counts, and the path of the span file it wrote.  ``tails``
    are the demoted end-to-end tails of an untraced run, passed through
    as the ``tail.*`` metrics."""
    shape = spec.SHAPES[workload.shape]
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}-trace-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    streams = Streams(workload, seed, 0.0)
    read_seed, write_seed = streams.sample_seeds()
    reads = streams.reads(2 * ops, read_seed, partial_every=spec.PARTIAL_EVERY)
    if workload.transport == "socket":
        writes = streams.wire_writes(ops, write_seed, (0, 1))
    else:
        writes = streams.keyed_writes(ops, write_seed, (0, 1))
    tracer = Tracer()
    values: dict[str, float] = {f"tail.{name}": value for name, value in tails.items()}
    variants = {}
    # The reference child loads its data while this process builds its worlds.
    reference = Sut(workload, os.path.join(scratch, "reference"), seed, transport="socket")
    try:
        # The world the read battery runs on is loaded like any other;
        # the three beside it take their rows from its snapshot file.
        main = "repl" if workload.replicated else "cdc" if workload.async_cdc else "eager"
        options = {
            "twin": {"view": False}, "eager": {}, "cdc": {"async_cdc": True},
            "repl": {"replicated": True},
        }
        variants[main] = build_world(shape, os.path.join(scratch, main), **options[main])
        for name in options:
            if name != main:
                variants[name] = build_world(
                    shape, os.path.join(scratch, name), base=variants[main], **options[name]
                )
        variants["repl"].start_heartbeat()
        for world in variants.values():
            if world.gate is not None:
                caller = InprocCaller(world)
                for op in warmup_reads(shape, workload, seed, world.replica is not None):
                    caller.do(op)
            _instrument(world, tracer)
        reference_p50, rtt = _reference(reference.ready(), reads)
        tracer.world = main
        failed = _read_battery(variants[main], tracer, reads, values)
        for name in options:
            tracer.world = name
            _write_battery(name, variants[name], tracer, writes, len(reads), values)
    finally:
        reference.abort()
        for world in variants.values():
            world.close()
        shutil.rmtree(scratch, ignore_errors=True)
    spans = tracer.tree()
    _span_metrics(spans, values, reference_p50, rtt)
    trace_file = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name, "seed": seed, "clock": "perf_counter seconds",
                "columns": ["id", "name", "start", "end", "parent", "rid", "world", "factor"],
                "spans": [
                    [s["id"], s["name"], s["start"], s["end"], s["parent"], s["rid"], s["world"],
                     s["factor"]]
                    for s in spans
                ],
            },
            handle,
        )
    units = {m.name: m.unit for m in spec.PER_LAYER}
    return {
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
        "ops": len(reads) + len(variants) * len(writes),
        "failed": failed,
        "correct": failed == 0,
        "trace_file": os.path.relpath(trace_file, ROOT),
        "reference_read_p50_ms": reference_p50 * 1e3,
        "notes": _expectations(workload, values, reference_p50),
    }


def _reference(sut: Sut, reads: list) -> tuple[float, float]:
    """Tracing off, real TCP, one connection closed loop: the p50 of the
    sample's full reads, and the ping round trip (socket + the server's
    per-connection thread wake); both at reference speed."""
    caller = sut.caller()
    speed = Speedometer()
    reads_timed, pings = [], []
    for op in reads:
        if op[0] == "read":
            entry = caller.do(op)
            reads_timed.append((entry.start, entry.end - entry.start))
            speed.sample()
    for _ in range(300):
        start = _clock()
        caller.client.ping()
        pings.append((start, _clock() - start))
        speed.sample()
    caller.close()
    sut.close()

    def at_reference_speed(timed):
        return median(took * f for (_at, took), f in zip(timed, speed.factors([at for at, _ in timed])))

    return at_reference_speed(reads_timed), at_reference_speed(pings)


def _read_battery(world, tracer: Tracer, reads: list, values: dict) -> int:
    """Run the read sample; returns how many requests delivered rows at
    the client end that differ from the executor's own result."""
    battery = ReadBattery(world, tracer)
    view, database, gate = world.view, world.database, world.gate
    view_before = view.metrics.snapshot()
    qos_before = gate.metrics.snapshot()
    locks_before = database.lock_manager.stats()
    io_before = database.io_snapshot()
    pool = database.buffer_pool.stats
    pool_before = (pool.hits, pool.misses)
    walls = {True: [], False: []}
    parts = hits = memo_hits = memo_seen = resp_bytes = mismatched = 0
    try:
        for rid, op in enumerate(reads):
            traced = rid % 2 == 1
            ctx, wall = battery.run(op, rid, traced)
            if op[0] == "read":
                walls[traced].append(wall)
            result = ctx.routed["result"]
            if [tuple(row.values) for row in result.user_rows()] != ctx.rows:
                mismatched += 1
            metrics = result.metrics
            parts += metrics.condition_parts
            hits += metrics.bcp_hits
            if metrics.o1_cache_hit is not None:
                memo_seen += 1
                memo_hits += bool(metrics.o1_cache_hit)
            resp_bytes += ctx.resp_bytes
            battery.side_calls(ctx, traced)
            tracer.speed.sample()
    finally:
        tracer.on = False
        battery.close()
    n = len(reads)
    view_after = view.metrics.snapshot()
    locks_after = database.lock_manager.stats()
    pool_hits, pool_misses = pool.hits - pool_before[0], pool.misses - pool_before[1]
    values["core.view.bcp_hit_ratio"] = hits / max(1, parts)
    values["core.o1_cache_hit_ratio"] = memo_hits / max(1, memo_seen)
    values["core.view.evictions_per_query"] = (
        view_after["entries_evicted"] - view_before["entries_evicted"]
    ) / n
    values["core.lock_bypasses"] = view_after["pmv_bypassed_lock"] - view_before["pmv_bypassed_lock"]
    values["core.view.entries"] = view.entry_count
    values["core.view.bytes"] = view.current_bytes
    values["qos.shed"] = gate.metrics.snapshot()["qos_shed"] - qos_before["qos_shed"]
    values["qos.queued"] = gate.admission.stats()["queued"]
    # Each request reaches the heap twice (its own O3 and the plain
    # execution side call), so physical reads are charged per execution.
    values["engine.pages_read_per_query"] = database.io_since(io_before).reads / (2 * n)
    values["engine.bufferpool_hit_ratio"] = (
        pool_hits / (pool_hits + pool_misses) if pool_hits + pool_misses else 1.0
    )
    values["engine.lock_waits"] = locks_after["waits"] - locks_before["waits"]
    values["engine.lock_timeouts"] = locks_after["timeouts"] - locks_before["timeouts"]
    values["net.resp_bytes"] = resp_bytes / n
    # Odd and even requests alternate, so both halves saw the same speeds.
    values["trace.overhead_ratio"] = median(walls[True]) / median(walls[False])
    return mismatched


def _write_battery(
    name: str, world, tracer: Tracer, writes: list, first_rid: int, values: dict
) -> None:
    """Apply the write sample to one variant world, a span per write.
    Write ``i`` has request id ``first_rid + i`` in every world, past
    the read sample's ids."""
    caller = InprocCaller(world)
    database = world.database
    wal_before = dir_bytes(world.wal_dir)
    lsn_before = database.wal.last_lsn
    tracer.on = True
    try:
        if name == "repl":
            lag_max = 0
            for rid, op in enumerate(writes, start=first_rid):
                tracer.rid = rid

                def apply(database, key, op=op):
                    start, end = caller.write(op, idem=key)
                    tracer.add("dml.repl", start, end)
                    return database.wal.last_lsn

                start = _clock()
                world.front_end.apply_write(f"trace:{rid}", apply)
                tracer.add("net.cluster.apply_write", start, _clock())
                tracer.speed.sample()
                lag_max = max(lag_max, *world.primary.lag_report().values())
            values["replication.replica_lag_max"] = lag_max
            return
        staleness_max = 0
        for rid, op in enumerate(writes, start=first_rid):
            tracer.rid = rid
            start, end = caller.write(op)
            tracer.add(f"dml.{name}", start, end)
            tracer.speed.sample()
            if name == "cdc" and (rid - first_rid + 1) % spec.DRAIN_EVERY == 0:
                # A stamped read just before the drain sees the backlog at its deepest.
                tracer.on = False
                stamped = caller.do(("partial", 0, 1, 0, 1))
                tracer.on = True
                staleness_max = max(staleness_max, stamped.high - stamped.low)
                start = _clock()
                world.async_maintainer.drain()
                tracer.add("cdc.drain", start, _clock())
    finally:
        tracer.on = False
    if name == "cdc":
        stats = world.async_maintainer.stats()
        values["cdc.max_staleness_lsn"] = staleness_max
        values["cdc.deltas_per_record"] = stats["deltas_applied"] / max(1, stats["records_drained"])
        values["cdc.records_drained"] = stats["records_drained"]
    if name == "twin":
        records = database.wal.last_lsn - lsn_before
        values["engine.wal_bytes_per_record"] = (
            dir_bytes(world.wal_dir) - wal_before
        ) / max(1, records)


def _us(seconds) -> float:
    seconds = list(seconds)
    return median(seconds) * 1e6 if seconds else 0.0


def _span_metrics(spans: list[dict], values: dict, reference_p50: float, rtt: float) -> None:
    """Fold the span tree into the per-layer timing metrics.  Read-side
    medians are over requests that asked for a full answer on the
    primary path — the population the reference p50 is taken over."""
    full = {s["rid"] for s in spans if s["name"] == "request.read"}
    duration = defaultdict(dict)  # name -> rid -> seconds, over the full reads
    own = defaultdict(dict)
    for s in spans:
        if s["rid"] in full:
            duration[s["name"]][s["rid"]] = s["took"]
            own[s["name"]][s["rid"]] = s["self"]
    stage = {name: _us(duration[name].values()) for name in STAGES}
    values["net.client.encode_us"] = stage["net.client.encode"]
    values["net.client.decode_us"] = stage["net.client.decode"]
    values["net.server.decode_query_us"] = stage["net.server.decode_query"]
    values["net.server.encode_result_us"] = stage["net.server.encode_result"]
    values["net.server.frame_us"] = _us(
        duration["net.server.recv_frame"][rid] + duration["net.server.send_frame"][rid]
        for rid in duration["net.server.send_frame"]
    )
    values["net.rtt_us"] = rtt * 1e6
    stage_sum = sum(stage.values())
    values["net.stage_sum_ratio"] = stage_sum / (reference_p50 * 1e6)
    values["net.unattributed_us"] = reference_p50 * 1e6 - stage_sum - rtt * 1e6
    values["net.cluster.route_us"] = _us(own["net.cluster.execute_query"].values())
    values["qos.gate_us"] = _us(own["qos.gate.execute"].values())
    values["core.execute_us"] = _us(duration["core.manager.execute"].values())
    values["core.partial_us"] = _us(duration["core.preview"].values())
    values["core.o1_us"] = _us(duration["core.o1"].values())
    values["engine.plan_us"] = _us(duration["engine.plan"].values())
    values["engine.full_exec_us"] = _us(duration["engine.full_exec"].values())
    values["core.o3_overhead_us"] = _us(
        seconds - duration["core.preview"][rid] - duration["engine.full_exec"][rid]
        for rid, seconds in duration["core.manager.execute"].items()
    )
    # -- writes: one span per write per variant world, same rid = same op
    dml = defaultdict(dict)  # world -> rid -> span
    for s in spans:
        if s["name"].startswith("dml."):
            dml[s["world"]][s["rid"]] = s
    values["engine.dml_us"] = _us(s["self"] for s in dml["twin"].values())
    values["engine.wal_append_us"] = _us(
        s["took"] for s in spans if s["name"] == "engine.wal.append" and s["world"] == "twin"
    )
    # Self times on both sides: the WAL append (an fsync, the same in
    # both worlds and noisy) is a child span and drops out.
    values["core.maint_eager_us"] = _us(
        s["self"] - dml["twin"][rid]["self"] for rid, s in dml["eager"].items()
    )
    values["cdc.outbox_append_us"] = _us(
        s["took"] for s in spans if s["name"] == "cdc.outbox.append" and s["world"] == "cdc"
    )
    drains = sum(s["took"] for s in spans if s["name"] == "cdc.drain")
    values["cdc.drain_us_per_record"] = drains * 1e6 / max(1, values.pop("cdc.records_drained"))
    applied = [s for s in spans if s["name"] == "net.cluster.apply_write"]
    values["net.cluster.apply_write_us"] = _us(s["self"] for s in applied)
    ships = sum(s["took"] for s in spans if s["name"] == "replication.ship")
    values["replication.ship_us_per_write"] = ships * 1e6 / max(1, len(applied))


def _expectations(workload: spec.Workload, values: dict, reference_p50: float) -> list[str]:
    """Each workload should really stress the layer it was chosen for,
    and the budget should add up; say so when not (a note, not a failure)."""
    notes = []
    if workload.name == "hot_socket" and values["core.view.bcp_hit_ratio"] < 0.99:
        notes.append("hot_socket: bcp hit ratio below 0.99")
    if workload.name == "cold_inproc":
        if values["core.view.evictions_per_query"] <= 0:
            notes.append("cold_inproc: no evictions")
        if values["core.o1_cache_hit_ratio"] >= 0.1:
            notes.append("cold_inproc: O1 memo hit ratio not below 0.1")
    if workload.transport == "socket" and (
        abs(values["net.unattributed_us"]) > 0.25 * reference_p50 * 1e6
    ):
        notes.append("unattributed time above 25 % of the reference read p50")
    if values["trace.overhead_ratio"] > 1.10:
        notes.append("trace overhead above 1.10")
    return notes
