"""Failover drill: kill the primary mid-workload, promote, verify.

The drill runs a seeded primary+2-replica topology (a third replica is
bootstrapped mid-run from a checksummed checkpoint snapshot) through a
mixed write/query workload with WAL shipping pumped every few ops, then
crashes the primary at a scheduled fault point — the torture drill's
crash windows (``wal.append`` crash-before / torn / crash-after,
``maintenance.prepare``, ``maintenance.apply``), each at the middle
arrival of its site — and drives the
:class:`~repro.replication.FailoverCoordinator` through detection, epoch
fencing, promotion, and serving-gate rewiring.

After every crash the drill asserts:

- **zero acked-write loss** — a write is acknowledged only once some
  replica applied it (semi-sync); replaying the driver's own copy of
  the acked op log into a fresh database must reproduce the promoted
  node's contents exactly (op-log replay agreement);
- **warm PMVs survive** — the promoted node's PMV hit rate over a
  probe window must be at least :data:`HIT_FACTOR` × the pre-crash hit
  rate on the primary (the standby cache was maintained, not cold);
- **honest staleness** — every answer a lagging replica served during
  the run was flagged ``complete=False, degraded_reason="replica_lag"``
  and is re-verified as a multiset subset of the true answer at that
  replica's applied watermark, while an answer served caught-up must
  equal it (acked op-log replay through :mod:`repro.check.oracle`);
- **fencing** — the deposed primary refuses writes
  (:class:`~repro.errors.WALFencedError`) and its ships are rejected
  by the promoted epoch;
- the new primary keeps serving: post-failover writes replicate to the
  surviving replicas and contents converge.

The fault-free run (schedule ``none``) checks convergence and that the
workload reaches every crash site; a seed whose workload does not
sweeps only that run.
"""

from __future__ import annotations

import os
import random
import tempfile

from repro.check import (
    HEARTBEAT_INTERVAL,
    LEASE_TTL,
    RELATIONS,
    Answer,
    Cluster,
    Drill,
    InvariantViolation,
    Outcome,
    Replay,
    attach_view,
    bind,
    build_rs,
    check_answers,
    contents_of,
    handle,
    multiset,
    rs_template,
    strategy_for_seed,
    true_answer,
)
from repro.engine.snapshot import snapshot_to_json, take_snapshot
from repro.errors import ReplicaLagError, ReproError, WALFencedError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from repro.faults.inject import build_faulty_database
from repro.faults.plan import FaultMode
from repro.replication import ReplicaNode, ShippedRecord

__all__ = ["DRILL", "crash_sites_for", "run_drill"]

OPS = 120
PAGE_SIZE = 256
POOL_PAGES = 8
PUMP_EVERY = 3
"""Ops between shipping pumps — the window in which replicas lag."""
STALENESS_BOUND = 2 * PUMP_EVERY
PROBE_WINDOW = 30
"""Queries in the pre-crash / post-promotion hit-rate probe windows."""
HIT_FACTOR = 0.5
"""Required post/pre PMV hit-rate ratio on the promoted node."""

_CRASH_SITES = (
    ("wal.append", FaultMode.CRASH_BEFORE),
    ("wal.append", FaultMode.TORN),
    ("wal.append", FaultMode.CRASH_AFTER),
    ("maintenance.prepare", FaultMode.CRASH_BEFORE),
    ("maintenance.apply", FaultMode.CRASH_BEFORE),
)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class _Cluster(Cluster):
    """One drill's topology plus the driver-side ledgers."""

    def __init__(self, seed: int, injector: FaultInjector, wal_path: str):
        database = build_faulty_database(
            injector,
            wal_path,
            buffer_pool_pages=POOL_PAGES,
            page_size=PAGE_SIZE,
        )
        build_rs(database, 24, 12)
        self.template = rs_template("tq")
        manager = attach_view(
            database,
            self.template,
            strategy_for_seed(seed),
            upper_bound_bytes=4096,
        )
        super().__init__(database, manager)
        # Driver-side ledgers: the acked op log (our own copies of every
        # acknowledged WAL record) and the replica answers to re-verify.
        self.op_log: list = []
        self._synced_lsn = 0
        self.replica_answers: list[Answer] = []  # stamped with the watermark
        self.pre_hits: list[int] = []
        self.refused_reads = 0

    def pump(self) -> None:
        """Ship outstanding records and extend the acked op log."""
        self.primary.ship()
        acked = self.primary.acked_lsn
        for record in self.primary.database.wal.records(after_lsn=self._synced_lsn):
            if record.lsn > acked:
                break
            self.op_log.append(record)
            self._synced_lsn = record.lsn

    def bind_query(self, rng: random.Random):
        f = rng.randrange(2) if rng.random() < 0.75 else 2 + rng.randrange(2)
        return bind(self.template, f, rng.randrange(3))

    def serve_replica(self, rng: random.Random, query) -> None:
        """Mirror a read to one standby (warms its PMV) and ledger it."""
        replica = self.replicas[rng.randrange(len(self.replicas))]
        replica.note_watermark(self.primary.database.wal.last_lsn)
        lag = replica.lag
        try:
            result = replica.serve(query, staleness_bound=STALENESS_BOUND)
        except ReplicaLagError:
            # Beyond the bound the read is refused, not served stale —
            # the router would retry on the primary.
            self.refused_reads += 1
            return
        if lag > 0:
            if result.complete or result.degraded_reason != "replica_lag":
                raise InvariantViolation(
                    f"{replica.name} served {lag} records behind without "
                    f"flagging the answer (complete={result.complete}, "
                    f"reason={result.degraded_reason!r})"
                )
        self.replica_answers.append(
            Answer(
                f"{replica.name}@{replica.applied_lsn}",
                query,
                multiset(result.all_rows()),
                result.complete,
                replica.applied_lsn,
            )
        )

    def replay(self) -> Replay:
        """A fresh replay of the acked op log."""
        return Replay(
            self.op_log,
            buffer_pool_pages=POOL_PAGES,
            page_size=PAGE_SIZE,
        )


# ---------------------------------------------------------------------------
# The drill
# ---------------------------------------------------------------------------


def _run_workload(cluster: _Cluster, rng: random.Random) -> None:
    """The seeded op mix; raises SimulatedCrash when the plan fires."""
    database = cluster.primary.database
    next_r_id = 1000
    for op in range(OPS):
        cluster.clock[0] += HEARTBEAT_INTERVAL * 0.2
        cluster.primary.heartbeat(cluster.coordinator)
        roll = rng.random()
        if roll < 0.30:  # insert
            if rng.random() < 0.7:
                database.insert(
                    "r", (next_r_id, rng.randrange(6), rng.randrange(4), f"a{next_r_id}")
                )
                next_r_id += 1
            else:
                database.insert(
                    "s", (rng.randrange(6), rng.randrange(3), f"e{rng.randrange(99)}")
                )
        elif roll < 0.42:  # delete
            relation = "r" if rng.random() < 0.6 else "s"
            rows = list(database.catalog.relation(relation).scan())
            if rows:
                row_id, _ = rows[rng.randrange(len(rows))]
                database.delete(relation, row_id)
        elif roll < 0.55:  # update
            relation = "r" if rng.random() < 0.6 else "s"
            rows = list(database.catalog.relation(relation).scan())
            if rows:
                row_id, row = rows[rng.randrange(len(rows))]
                if relation == "r":
                    database.update(relation, row_id, f=rng.randrange(4))
                else:
                    database.update(relation, row_id, e=f"relab-{rng.randrange(99)}")
        elif roll < 0.92:  # gate query on the primary + mirrored standby read
            query = cluster.bind_query(rng)
            result = cluster.gate.execute(query)
            if multiset(result.all_rows()) != true_answer(database, query):
                raise InvariantViolation("primary gate answer diverged from truth")
            cluster.pre_hits.append(1 if result.partial_rows else 0)
            cluster.serve_replica(rng, cluster.bind_query(rng))
        else:  # checkpoint; halfway through, bootstrap a standby from it
            database.wal.checkpoint()
            snapshot_text = snapshot_to_json(take_snapshot(database))
            if op >= OPS // 2 and len(cluster.replicas) < 3:
                late = ReplicaNode.from_snapshot(
                    snapshot_text,
                    name="replica-3",
                    buffer_pool_pages=POOL_PAGES,
                    page_size=PAGE_SIZE,
                )
                cluster.primary.attach_replica(late)
                cluster.replicas.append(late)
                cluster.coordinator.replicas.append(late)
                cluster.pump()
                late.mirror_views(cluster.primary.manager)
        if (op + 1) % PUMP_EVERY == 0:
            cluster.pump()


def _hit_rate(hits: list[int]) -> float:
    window = hits[-PROBE_WINDOW:]
    return sum(window) / len(window) if window else 0.0


def _verify_replica_answers(cluster: _Cluster) -> dict[str, int]:
    """Re-check every ledgered standby answer against the acked op log
    replayed to its watermark; the ones served lagging were already
    required to carry ``complete=False``."""
    for violation in check_answers(cluster.replica_answers, cluster.replay()):
        raise InvariantViolation(f"standby {violation}")
    pre = cluster.pre_hits[-PROBE_WINDOW:]
    return {
        "acked_records": len(cluster.op_log),
        "pre_hits": sum(pre),
        "pre_queries": len(pre),
        "replica_answers": len(cluster.replica_answers),
        "lagged_answers": sum(not a.complete for a in cluster.replica_answers),
    }


def run_drill(seed: int, spec: FaultSpec | None) -> Outcome:
    """One topology, one scheduled primary crash, full verification."""
    schedule = spec.describe() if spec is not None else "none"
    outcome = Outcome(handle("failover", seed, schedule), [])
    with tempfile.TemporaryDirectory(prefix="failover-") as workdir:
        injector = FaultInjector(FaultPlan.none())
        try:
            cluster = _Cluster(seed, injector, os.path.join(workdir, "wal"))
            injector.plan = FaultPlan([spec]) if spec is not None else FaultPlan.none()
            injector.counts.clear()
            rng = random.Random(seed * 6271 + 11)
            try:
                _run_workload(cluster, rng)
            except SimulatedCrash:
                outcome.counts = _after_crash(cluster, rng)
                return outcome
            # The plan never fired (or no fault was scheduled): the
            # workload must have reached every crash site, and final
            # convergence checks still must hold.
            reached = {site for site, _ in _CRASH_SITES if injector.counts.get(site)}
            if len(reached) < 3:
                raise InvariantViolation(f"workload reached only {len(reached)} crash sites")
            cluster.pump()
            cluster.pump()
            primary_contents = contents_of(cluster.primary.database, RELATIONS)
            for replica in cluster.replicas:
                if contents_of(replica.database, RELATIONS) != primary_contents:
                    raise InvariantViolation(
                        f"{replica.name} did not converge to the primary"
                    )
            outcome.counts = {"completed": 1, **_verify_replica_answers(cluster)}
        except ReproError as exc:
            outcome.violations.append(f"{type(exc).__name__}: {exc}")
        finally:
            injector.crashed = True  # silence hooks during teardown
    return outcome


def _after_crash(cluster: _Cluster, rng: random.Random) -> dict[str, int]:
    """Primary died: detect, fail over, and run the acceptance battery."""
    # Heartbeats stop; advance past the miss budget and the lease, and tick.
    cluster.clock[0] += LEASE_TTL + HEARTBEAT_INTERVAL
    if not cluster.coordinator.primary_suspected():
        raise InvariantViolation("coordinator did not suspect a silent primary")
    old_primary = cluster.primary
    new_primary = cluster.coordinator.tick()
    if new_primary is None:
        raise InvariantViolation("tick() did not fail over")
    # 1. Zero acked-write loss / op-log replay agreement: the acked
    # ledger replayed into a fresh database IS the promoted state.
    replayed = cluster.replay().advance()
    if contents_of(replayed, RELATIONS) != contents_of(new_primary.database, RELATIONS):
        raise InvariantViolation(
            f"acked op-log replay ({len(cluster.op_log)} records) "
            f"disagrees with the promoted node {new_primary.name} "
            f"(applied LSN {new_primary.database.wal.last_lsn})"
        )
    # 2. Fencing: the deposed primary must refuse writes, and its
    # zombie ships must be rejected by the promoted epoch.
    try:
        old_primary.database.insert("r", (999999, 0, 0, "zombie"))
        raise InvariantViolation("deposed primary accepted a write")
    except WALFencedError:
        pass
    stale_rejects = 0
    zombie_record = None
    for record in old_primary.database.wal.records(
        after_lsn=old_primary.database.wal.last_lsn - 1
    ):
        zombie_record = record
    if zombie_record is not None and old_primary.links:
        link = old_primary.links[0]
        before = link.stale_epoch_rejects
        link.send(
            ShippedRecord(
                epoch=old_primary.epoch,
                watermark=old_primary.database.wal.last_lsn,
                frame=zombie_record.frame,
            ).to_wire()
        )
        stale_rejects = link.stale_epoch_rejects - before
        if stale_rejects <= 0:
            raise InvariantViolation(
                "promoted epoch accepted a record shipped by the deposed primary"
            )
    # 3. Warm-standby PMVs: probe the rebound gate; the promoted
    # fleet must hit at a rate >= HIT_FACTOR x the pre-crash rate —
    # and serve correct answers while doing it.
    if cluster.gate.manager is not new_primary.manager:
        raise InvariantViolation("serving gate was not rewired to the survivor")
    for managed in new_primary.manager.managed():
        if managed.view.upper_bound_bytes != managed.view.configured_upper_bound_bytes:
            raise InvariantViolation(
                f"promoted view {managed.view.name} serves with a "
                f"non-configured UB {managed.view.upper_bound_bytes}"
            )
    post_hits = []
    for _ in range(PROBE_WINDOW):
        query = cluster.bind_query(rng)
        result = cluster.gate.execute(query)
        if multiset(result.all_rows()) != true_answer(new_primary.database, query):
            raise InvariantViolation("promoted gate answer diverged from truth")
        post_hits.append(1 if result.partial_rows else 0)
    pre_rate = _hit_rate(cluster.pre_hits)
    post_rate = _hit_rate(post_hits)
    if post_rate < HIT_FACTOR * pre_rate:
        raise InvariantViolation(
            f"promoted PMV went cold: hit rate {post_rate:.2f} < "
            f"{HIT_FACTOR} x pre-crash {pre_rate:.2f}"
        )
    # 4. Every standby answer served during lag was honest.
    counts = _verify_replica_answers(cluster)
    # 5. The new era serves writes and replicates them.
    for i in range(6):
        new_primary.database.insert("r", (5000 + i, i % 6, i % 4, f"era2-{i}"))
    new_primary.ship()
    new_primary.ship()
    promoted_contents = contents_of(new_primary.database, RELATIONS)
    for link in new_primary.links:
        if contents_of(link.replica.database, RELATIONS) != promoted_contents:
            raise InvariantViolation(
                f"{link.replica.name} did not converge to the new primary"
            )
    return {
        "failed_over": 1,
        **counts,
        "post_hits": sum(post_hits),
        "stale_epoch_rejects": stale_rejects,
    }


def crash_sites_for(seed: int) -> list[FaultSpec]:
    """Crash specs for ``seed``: enumerate the workload's fault-site
    arrivals fault-free, then schedule a crash at the middle arrival of
    every crash site the run reaches — deep enough that PMVs are warm
    and replicas have applied history, early enough that ops remain."""
    with tempfile.TemporaryDirectory(prefix="failover-enum-") as workdir:
        injector = FaultInjector(FaultPlan.none())
        cluster = _Cluster(seed, injector, os.path.join(workdir, "wal"))
        injector.counts.clear()
        _run_workload(cluster, random.Random(seed * 6271 + 11))
    return [
        FaultSpec(site, max(1, injector.counts[site] // 2), mode)
        for site, mode in _CRASH_SITES
        if injector.counts.get(site, 0)
    ]


def _points(seed: int) -> list[str]:
    specs = crash_sites_for(seed)
    if len({spec.site for spec in specs}) < 3:
        return ["none"]  # the fault-free run names the unreached site
    return [spec.describe() for spec in specs]


DRILL = Drill(
    "failover",
    points=_points,
    run=lambda seed, schedule: run_drill(
        seed, None if schedule == "none" else FaultSpec.parse(schedule)
    ),
    seeds=(0, 1),
)
