"""Many-client socket-path load with an injected mid-run failover.

The drill the network tier exists to survive, end to end and over a
real TCP socket:

1. build a semi-sync cluster (primary + two warm standbys) behind a
   :class:`~repro.net.server.NetServer`;
2. run many :class:`~repro.net.client.PMVClient` threads mixing
   template queries (primary and bounded-staleness replica reads) with
   idempotency-keyed DML, while the server randomly *drops connections
   after applying a write but before responding* — forcing the clients
   through the retry + dedup path;
3. mid-run, stop the primary's heartbeats, advance the (fake) failure
   detector clock, and fail over; clients ride through the blip on
   retryable errors;
4. verify from the **client-side op ledgers**: every acknowledged
   insert that was not later acknowledged-deleted is present in the
   surviving timeline exactly once (zero acked-write loss), no
   client-owned row appears twice (no duplicate DML application), and
   every acknowledged delete stayed deleted.

Socket-path latency is the perf harness's to measure (``hot_socket`` /
``mixed_socket`` ``read_p99_ms``), not this drill's.

Run as a module::

    python -m repro.bench.netload --clients 8 --ops 40 --report NETLOAD_report.json
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.check import (
    HEARTBEAT_INTERVAL,
    LEASE_TTL,
    Cluster,
    WriteLedger,
    attach_view,
    build_rs,
    found_ids,
    random_binding,
    rs_template,
)
from repro.engine import Database, WriteAheadLog
from repro.errors import OverloadError, RetryExhaustedError
from repro.net import ClusterFrontEnd, NetServer, PMVClient
from repro.net.client import RetryPolicy

__all__ = ["NetloadConfig", "NetloadReport", "run_netload", "main"]

# Client-owned rows live far above the seeded id range so ledger replay
# can own them exclusively.
CLIENT_ID_BASE = 100_000
CLIENT_ID_STRIDE = 10_000


@dataclass(frozen=True)
class NetloadConfig:
    clients: int = 8
    ops_per_client: int = 40
    seed: int = 0
    drop_every: int = 7  # drop the response of every Nth applied write
    query_budget: float = 2.0
    staleness_bound: int = 4
    retry_attempts: int = 10
    retry_base_delay: float = 0.01


@dataclass
class NetloadReport:
    clients: int = 0
    ops: int = 0
    queries: int = 0
    replica_served: int = 0
    writes_acked: int = 0
    duplicates_acked: int = 0
    client_retries: int = 0
    dropped_responses: int = 0
    sheds: int = 0
    retry_exhausted: int = 0
    failovers: int = 0
    lost_acked_writes: list = field(default_factory=list)
    duplicate_rows: list = field(default_factory=list)
    resurrected_deletes: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            not self.lost_acked_writes
            and not self.duplicate_rows
            and not self.resurrected_deletes
            and self.failovers >= 1
        )


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class _Cluster(Cluster):
    """Primary + two standbys + coordinator on a fake clock, all behind
    one :class:`ClusterFrontEnd`."""

    def __init__(self, config: NetloadConfig):
        database = build_rs(Database(wal=WriteAheadLog()), 48, 24)
        self.template = rs_template("tq")
        super().__init__(database, attach_view(database, self.template))
        self.front_end = ClusterFrontEnd(
            self.gate,
            coordinator=self.coordinator,
            staleness_bound=config.staleness_bound,
        )

    def inject_failover(self) -> None:
        """Silence the primary past the heartbeat budget and the lease
        it holds, and tick."""
        self.clock[0] += LEASE_TTL + HEARTBEAT_INTERVAL
        promoted = self.coordinator.tick()
        if promoted is None:
            raise RuntimeError("failover injection did not promote a standby")


# ---------------------------------------------------------------------------
# Client workload
# ---------------------------------------------------------------------------


class _ClientLedger:
    """One client's view of the world: what the server acknowledged."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.acked_inserts: dict[int, int] = {}  # row id -> acked count
        self.acked_deletes: set[int] = set()
        self.queries = 0
        self.replica_served = 0
        self.duplicates = 0
        self.sheds = 0
        self.retry_exhausted = 0
        self.retries = 0


def _run_client(
    cluster: _Cluster,
    config: NetloadConfig,
    host: str,
    port: int,
    ledger: _ClientLedger,
    progress: list[int],
    progress_mutex: threading.Lock,
) -> None:
    rng = random.Random(config.seed * 1009 + ledger.index)
    client = PMVClient(
        host,
        port,
        f"client-{ledger.index}",
        retry=RetryPolicy(
            attempts=config.retry_attempts, base_delay=config.retry_base_delay
        ),
    )
    base = CLIENT_ID_BASE + ledger.index * CLIENT_ID_STRIDE
    next_id = base
    inserted: list[int] = []
    try:
        for _ in range(config.ops_per_client):
            roll = rng.random()
            try:
                if roll < 0.45:  # template query
                    query = random_binding(cluster.template, rng)
                    prefer_replica = rng.random() < 0.4
                    answer = client.query(
                        query,
                        budget=config.query_budget,
                        staleness_bound=config.staleness_bound,
                        prefer_replica=prefer_replica,
                    )
                    ledger.queries += 1
                    # replica_lag is the routed-read marker: the primary
                    # path never sets it (a promoted standby keeps its
                    # replica-N *name*, so the name proves nothing).
                    if answer.replica_lag is not None:
                        ledger.replica_served += 1
                        if answer.served_by is None or answer.replica_lag < 0:
                            raise RuntimeError(
                                "replica answer arrived without a staleness stamp"
                            )
                elif roll < 0.85 or not inserted:  # keyed insert
                    row_id = next_id
                    next_id += 1
                    ack = client.insert(
                        "r",
                        [row_id, rng.randrange(6), rng.randrange(4), f"net{row_id}"],
                    )
                    ledger.acked_inserts[row_id] = (
                        ledger.acked_inserts.get(row_id, 0) + 1
                    )
                    inserted.append(row_id)
                    if ack.duplicate:
                        ledger.duplicates += 1
                else:  # keyed delete of one of our own rows
                    row_id = inserted.pop(rng.randrange(len(inserted)))
                    ack = client.delete_eq("r", "id", row_id)
                    ledger.acked_deletes.add(row_id)
                    if ack.duplicate:
                        ledger.duplicates += 1
            except OverloadError:
                ledger.sheds += 1
            except RetryExhaustedError:
                ledger.retry_exhausted += 1
            with progress_mutex:
                progress[0] += 1
    finally:
        ledger.retries = client.retries
        client.close()


# ---------------------------------------------------------------------------
# Verification: ledger replay against the surviving timeline
# ---------------------------------------------------------------------------


def _verify(cluster: _Cluster, ledgers: list[_ClientLedger], report: NetloadReport) -> None:
    found = found_ids(cluster.coordinator.primary.database, CLIENT_ID_BASE)
    ledger = WriteLedger(
        acked_inserts={i for one in ledgers for i in one.acked_inserts},
        acked_deletes={i for one in ledgers for i in one.acked_deletes},
    )
    verdict = ledger.check(found)

    def owned(row_id: int) -> dict:
        return {"client": (row_id - CLIENT_ID_BASE) // CLIENT_ID_STRIDE, "id": row_id}

    report.duplicate_rows = [{"id": i, "count": found[i]} for i in verdict["duplicate"]]
    report.resurrected_deletes = [owned(i) for i in verdict["resurrected"]]
    report.lost_acked_writes = [owned(i) for i in verdict["lost"]]


# ---------------------------------------------------------------------------
# The drill
# ---------------------------------------------------------------------------


def run_netload(
    config: NetloadConfig | None = None, verbose: bool = False
) -> NetloadReport:
    config = config or NetloadConfig()
    started = time.perf_counter()
    cluster = _Cluster(config)

    # Deterministic drop injection: every Nth applied DML loses its
    # response, forcing the client through retry + server-side dedup.
    drop_state = {"writes": 0, "dropped": 0}
    drop_mutex = threading.Lock()

    def drop_before_respond(op: str, request: dict) -> bool:
        if op not in ("insert", "delete_eq"):
            return False
        with drop_mutex:
            drop_state["writes"] += 1
            if drop_state["writes"] % config.drop_every == 0:
                drop_state["dropped"] += 1
                return True
        return False

    server = NetServer(cluster.front_end, drop_before_respond=drop_before_respond)
    host, port = server.start()
    if verbose:
        print(f"[netload] serving at {host}:{port}")

    ledgers = [_ClientLedger(index) for index in range(config.clients)]
    progress = [0]
    progress_mutex = threading.Lock()
    threads = [
        threading.Thread(
            target=_run_client,
            args=(cluster, config, host, port, ledger, progress, progress_mutex),
            name=f"netload-client-{ledger.index}",
            daemon=True,
        )
        for ledger in ledgers
    ]
    total_ops = config.clients * config.ops_per_client
    for thread in threads:
        thread.start()

    # Let the fleet get halfway, then kill the primary mid-traffic.
    halfway = total_ops // 2
    while True:
        with progress_mutex:
            done = progress[0]
        if done >= halfway:
            break
        if not any(thread.is_alive() for thread in threads):
            break
        time.sleep(0.005)
    cluster.inject_failover()
    if verbose:
        print(
            f"[netload] failover injected at op {done}/{total_ops}; "
            f"epoch now {cluster.coordinator.primary.epoch}"
        )

    for thread in threads:
        thread.join(timeout=120.0)
    wedged = [thread.name for thread in threads if thread.is_alive()]
    server.stop()
    if wedged:
        raise RuntimeError(f"client threads wedged: {wedged}")

    report = NetloadReport(
        clients=config.clients,
        ops=total_ops,
        failovers=cluster.coordinator.failovers,
        dropped_responses=drop_state["dropped"],
    )
    for ledger in ledgers:
        report.queries += ledger.queries
        report.replica_served += ledger.replica_served
        report.writes_acked += len(ledger.acked_inserts) + len(ledger.acked_deletes)
        report.duplicates_acked += ledger.duplicates
        report.client_retries += ledger.retries
        report.sheds += ledger.sheds
        report.retry_exhausted += ledger.retry_exhausted
    _verify(cluster, ledgers, report)
    report.elapsed_seconds = time.perf_counter() - started

    if verbose:
        print(
            f"[netload] {report.queries} queries "
            f"({report.replica_served} replica-served), "
            f"{report.writes_acked} acked writes, "
            f"{report.dropped_responses} dropped responses, "
            f"{report.duplicates_acked} dedup-acked retries, "
            f"{report.client_retries} client retries, "
            f"{report.sheds} sheds, {report.retry_exhausted} gave up"
        )
        verdict = "ALL INVARIANTS HELD" if report.ok else "INVARIANT VIOLATIONS"
        print(
            f"[netload] {verdict}: lost={len(report.lost_acked_writes)} "
            f"dup={len(report.duplicate_rows)} "
            f"resurrected={len(report.resurrected_deletes)} "
            f"in {report.elapsed_seconds:.1f}s"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.netload",
        description="Socket-path load drill with an injected failover.",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ops", type=int, default=40, help="ops per client")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--drop-every", type=int, default=7,
        help="drop the response of every Nth applied write",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the JSON report here",
    )
    args = parser.parse_args(argv)
    config = NetloadConfig(
        clients=args.clients,
        ops_per_client=args.ops,
        seed=args.seed,
        drop_every=args.drop_every,
    )
    report = run_netload(config, verbose=True)
    if args.report is not None:
        payload = asdict(report)
        payload["ok"] = report.ok
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[netload] report written to {args.report}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
