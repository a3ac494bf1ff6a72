"""Many-client socket-path load with an injected mid-run failover.

The drill the network tier exists to survive, end to end and over a
real TCP socket:

1. build a semi-sync cluster (primary + two warm standbys) behind a
   :class:`~repro.net.server.NetServer`;
2. run 8 :class:`~repro.net.client.PMVClient` threads × 40 ops mixing
   template queries (primary and bounded-staleness replica reads) with
   idempotency-keyed DML, while the server *drops the connection after
   applying every 7th write's first attempt but before responding* —
   forcing the clients through the retry + dedup path;
3. halfway through, stop the primary's heartbeats, advance the (fake)
   failure detector clock, and fail over; clients ride through the blip
   on retryable errors;
4. verify from the **client-side op ledgers**: every acknowledged
   insert that was not later acknowledged-deleted is present in the
   surviving timeline exactly once (zero acked-write loss), no
   client-owned row appears twice (no duplicate DML application), and
   every acknowledged delete stayed deleted.

Socket-path latency is the perf harness's to measure (``hot_socket`` /
``mixed_socket`` ``read_p99_ms``), not this drill's.
"""

from __future__ import annotations

import random
import threading

from repro.check import (
    HEARTBEAT_INTERVAL,
    LEASE_TTL,
    Cluster,
    Drill,
    Outcome,
    Workers,
    WriteLedger,
    attach_view,
    build_rs,
    found_ids,
    handle,
    random_binding,
    rs_template,
)
from repro.engine import Database, WriteAheadLog
from repro.errors import OverloadError, RetryExhaustedError
from repro.net import ClusterFrontEnd, NetServer, PMVClient
from repro.net.client import RetryPolicy

__all__ = ["DRILL", "run"]

CLIENTS = 8
OPS_PER_CLIENT = 40
DROP_EVERY = 7
QUERY_BUDGET = 2.0
STALENESS_BOUND = 4
RETRY = RetryPolicy(attempts=10, base_delay=0.01)
# Client-owned rows live far above the seeded id range so ledger replay
# can own them exclusively.
CLIENT_ID_BASE = 100_000
CLIENT_ID_STRIDE = 10_000


class _ClientLedger:
    """One client's view of the world: what the server acknowledged."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.acked_inserts: set[int] = set()
        self.acked_deletes: set[int] = set()
        self.queries = 0
        self.replica_served = 0
        self.duplicates = 0
        self.sheds = 0
        self.retry_exhausted = 0
        self.retries = 0


def _run_client(template, seed: int, address, ledger: _ClientLedger, progress) -> None:
    rng = random.Random(seed * 1009 + ledger.index)
    client = PMVClient(*address, f"client-{ledger.index}", retry=RETRY)
    next_id = CLIENT_ID_BASE + ledger.index * CLIENT_ID_STRIDE
    inserted: list[int] = []
    try:
        for _ in range(OPS_PER_CLIENT):
            roll = rng.random()
            try:
                if roll < 0.45:  # template query
                    query = random_binding(template, rng)
                    answer = client.query(
                        query,
                        budget=QUERY_BUDGET,
                        staleness_bound=STALENESS_BOUND,
                        prefer_replica=rng.random() < 0.4,
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
                    ledger.acked_inserts.add(row_id)
                    inserted.append(row_id)
                    ledger.duplicates += ack.duplicate
                else:  # keyed delete of one of our own rows
                    row_id = inserted.pop(rng.randrange(len(inserted)))
                    ack = client.delete_eq("r", "id", row_id)
                    ledger.acked_deletes.add(row_id)
                    ledger.duplicates += ack.duplicate
            except OverloadError:
                ledger.sheds += 1
            except RetryExhaustedError:
                ledger.retry_exhausted += 1
            progress.release()
    finally:
        ledger.retries = client.retries
        client.close()


def run(seed: int, schedule: str = "none") -> Outcome:
    database = build_rs(Database(wal=WriteAheadLog()), 48, 24)
    template = rs_template("tq")
    cluster = Cluster(database, attach_view(database, template))
    front_end = ClusterFrontEnd(
        cluster.gate, coordinator=cluster.coordinator, staleness_bound=STALENESS_BOUND
    )

    # Deterministic drop injection: every Nth write's first attempt (keyed
    # by its client-owned row id) loses its response, forcing the client
    # through retry + server-side dedup.  Retries are never dropped, so
    # thread interleaving cannot move the count.
    attempted: set[tuple[str, int]] = set()
    writes = {"dropped": 0}
    drop_mutex = threading.Lock()

    def drop_before_respond(op: str, request: dict) -> bool:
        if op not in ("insert", "delete_eq"):
            return False
        key = (op, request["values"][0] if op == "insert" else request["value"])
        with drop_mutex:
            if key in attempted:
                return False
            attempted.add(key)
            if len(attempted) % DROP_EVERY == 0:
                writes["dropped"] += 1
                return True
        return False

    server = NetServer(front_end, drop_before_respond=drop_before_respond)
    address = server.start()
    ledgers = [_ClientLedger(index) for index in range(CLIENTS)]
    progress = threading.Semaphore(0)  # released once per finished op

    def fail_over_halfway(threads) -> None:
        """Let the fleet get halfway, then silence the primary past the
        heartbeat budget and the lease it holds, and tick."""
        done = 0
        while done < CLIENTS * OPS_PER_CLIENT // 2:
            if progress.acquire(timeout=0.005):
                done += 1
            elif not any(thread.is_alive() for thread in threads):
                break
        cluster.clock[0] += LEASE_TTL + HEARTBEAT_INTERVAL
        cluster.coordinator.tick()

    workers = Workers()
    try:
        workers.run(
            [(f"client-{ledger.index}", _run_client,
              (template, seed, address, ledger, progress)) for ledger in ledgers],
            while_running=fail_over_halfway,
        )
    finally:
        server.stop()

    outcome = Outcome(handle("netload", seed, schedule), workers.errors)
    found = found_ids(cluster.coordinator.primary.database, CLIENT_ID_BASE)
    verdict = WriteLedger(
        acked_inserts={i for one in ledgers for i in one.acked_inserts},
        acked_deletes={i for one in ledgers for i in one.acked_deletes},
    ).check(found)
    outcome.violations.extend(f"{kind}: r.id {ids}" for kind, ids in verdict.items() if ids)
    if cluster.coordinator.failovers < 1:
        outcome.violations.append("the injected failover did not promote a standby")
    duplicates = sum(one.duplicates for one in ledgers)
    if duplicates != writes["dropped"]:
        outcome.violations.append(
            f"{writes['dropped']} responses dropped, {duplicates} acked as duplicates"
        )
    outcome.counts = {
        "ops": CLIENTS * OPS_PER_CLIENT,
        "queries": sum(one.queries for one in ledgers),
        "replica_served": sum(one.replica_served for one in ledgers),
        "writes_acked": sum(len(one.acked_inserts) + len(one.acked_deletes) for one in ledgers),
        "duplicates_acked": duplicates,
        "client_retries": sum(one.retries for one in ledgers),
        "dropped_responses": writes["dropped"],
        "sheds": sum(one.sheds for one in ledgers),
        "retry_exhausted": sum(one.retry_exhausted for one in ledgers),
        "failovers": cluster.coordinator.failovers,
        **{kind: len(ids) for kind, ids in verdict.items()},
    }
    return outcome


DRILL = Drill("netload", points=lambda seed: ["none"], run=run)
