"""The partition nemesis drill: seeded chaos + client-history checking.

The torture drill's discipline applied to network partitions: a seeded
:class:`~repro.faults.partition.PartitionPlan` (the schedule,
``PartitionPlan.describe()``) cuts and heals the cluster's three link
pairs (coordinator↔primary heartbeats, primary↔replica WAL shipping,
client↔server TCP) while a single-threaded driver pushes real
:class:`~repro.net.client.PMVClient` traffic over real sockets against a
lease-gated cluster on a fake shared clock.  Because that traffic runs
on one thread, every post-response truth probe (the serving node's WAL
position, its ISOLATED state) is exact — there is no racing writer.

Per seed, the **history checker** verifies from the client-observed
ledger:

- **zero acked-write loss** — every acknowledged insert not later
  acknowledged-deleted is in the surviving timeline;
- **at-most-once** — no client-owned row was applied twice, despite
  retries through drops, refusals, and isolation windows;
- **one writer per era** — no two nodes ever acknowledged writes
  stamped with the same epoch;
- **no zombie reads** — no read was served by a node in ISOLATED mode,
  and a stale router still bound to the deposed primary is *refused*;
- **honest stamps** — every ``replica_lag`` stamp is at least the true
  lag at response time (the serving node's watermark against its era
  primary's end-of-log);
- **reads are true at their stamp** — every read's rows are judged
  against the database state at its stamped ``applied_lsn`` (the era's
  WAL replayed by :mod:`repro.check.oracle`): equal to the true answer
  when the read claims ``complete``, a multiset subset of it otherwise;
- **monotonic sessions** — within one epoch, a session's stamped
  ``applied_lsn`` never goes backwards (the ``min_lsn`` token at work).

Seeds 9 and 10 are the regression seeds for the isolated front end that
kept routing reads to standbys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.check import (
    Answer,
    Cluster,
    Drill,
    Outcome,
    Replay,
    WriteLedger,
    attach_view,
    bind,
    build_rs,
    check_answers,
    found_ids,
    handle,
    multiset,
    random_binding,
    rs_template,
)
from repro.engine import Database, WriteAheadLog
from repro.errors import (
    NetError,
    OverloadError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults.partition import Nemesis, PartitionPlan
from repro.net import ClusterFrontEnd, NetServer, PMVClient
from repro.net.client import RetryPolicy
from repro.qos.gate import ServingGate
from repro.replication import ControlLink, PrimaryNode

__all__ = ["DRILL", "run"]

STEPS = 80
CLIENTS = 3
QUIESCE = 12
"""Fully healed steps closing every generated schedule, and the drain
steps the workload takes after the last one."""
STEP_SECONDS = 0.5
STALENESS_BOUND = 256
RETRY = RetryPolicy(attempts=3, base_delay=0.002)
# Client-owned rows live far above the seeded id range so the checker
# can own them exclusively (same convention as the netload drill).
CLIENT_ID_BASE = 100_000
CLIENT_ID_STRIDE = 10_000


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class _Cluster(Cluster):
    """A lease-gated semi-sync cluster on a fake shared clock, with
    every partition seam exposed for the nemesis."""

    def __init__(self):
        database = build_rs(Database(wal=WriteAheadLog()), 48, 24)
        self.template = rs_template("tq")
        manager = attach_view(database, self.template)
        super().__init__(database, manager)
        self.control = ControlLink(self.coordinator, self.primary)
        # The fence is best-effort: only when the coordinator→primary
        # direction of the control link is up can it reach the old WAL.
        self.coordinator.primary_reachable = lambda: self.control.down
        self.front_end = ClusterFrontEnd(
            self.gate,
            coordinator=self.coordinator,
            staleness_bound=STALENESS_BOUND,
        )
        # The stale router: a second gate bound to the *original*
        # primary that never learns about failovers — the zombie-read
        # window made probeable.  Its reads must be refused once the
        # original primary is deposed.
        self.stale_gate = ServingGate(manager)
        self.primary.bind_gate(self.stale_gate)
        # era registry: epoch -> the node that served it (its WAL is
        # that era's ground truth for the history checker)
        self.eras: dict[int, PrimaryNode] = {self.primary.epoch: self.primary}
        self.coordinator.add_failover_listener(self._on_promote)
        self.ship_cut = False
        self.client_cut = False
        self.server: NetServer | None = None

    def _on_promote(self, new_primary: PrimaryNode) -> None:
        self.eras[new_primary.epoch] = new_primary
        # The control plane re-establishes its channel to the new
        # leaseholder; the old primary's lease is never renewed again.
        self.control.rebind(new_primary)
        self._sync_ship_links()

    # -- nemesis seams ---------------------------------------------------------

    def cut_ship(self, direction: str = "both") -> None:
        self.ship_cut = True
        self._sync_ship_links()

    def heal_ship(self, direction: str = "both") -> None:
        self.ship_cut = False
        self._sync_ship_links()

    def _sync_ship_links(self) -> None:
        """Apply the ship-cut flag to the *current* primary's links
        (promotion creates fresh links, which must inherit the cut)."""
        for link in self.coordinator.primary.links:
            if self.ship_cut and not link.partitioned:
                link.partitioned = True
                link.partitions += 1
            elif not self.ship_cut and link.partitioned:
                link.heal()

    def cut_clients(self, direction: str = "both") -> None:
        self.client_cut = True
        if self.server is not None:
            self.server.drop_connections()

    def heal_clients(self, direction: str = "both") -> None:
        self.client_cut = False


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass
class _ReadRecord:
    client: int
    answer: Answer | None  # None when the read carried no LSN stamp
    epoch: int | None
    applied_lsn: int | None
    replica_lag: int | None
    truth_last: int
    isolated: str | None  # the era's primary, when it was ISOLATED


class _Ledger:
    """Everything the clients observed, for the history checker."""

    def __init__(self) -> None:
        self.acked_inserts: dict[int, int] = {}
        self.acked_deletes: set[int] = set()
        # Deletes whose outcome is *in doubt*: issued, but the client
        # exhausted retries without an ack (e.g. applied on the primary
        # while the ship link was cut, so the semi-sync ack never came).
        # The row may or may not be gone — the durability check cannot
        # call its absence a loss, nor its presence a resurrection.
        self.indoubt_deletes: set[int] = set()
        self.write_acks: list[tuple[int | None, str | None, int]] = []
        self.reads: list[_ReadRecord] = []
        self.session_high: dict[int, tuple[int, int]] = {}  # client -> (epoch, lsn)


def _drive(
    cluster: _Cluster,
    nemesis: Nemesis,
    clients: list[PMVClient],
    seed: int,
    ledger: _Ledger,
    outcome: Outcome,
) -> None:
    rng = random.Random(f"nemesis:{seed}")
    inserted: dict[int, list[int]] = {c: [] for c in range(CLIENTS)}
    next_id = [
        CLIENT_ID_BASE + index * CLIENT_ID_STRIDE for index in range(CLIENTS)
    ]
    for step in range(STEPS):
        nemesis.advance_to(step)
        cluster._sync_ship_links()
        cluster.clock[0] += STEP_SECONDS
        cluster.control.pump()
        cluster.coordinator.tick()
        try:
            cluster.coordinator.primary.ship()
        except ReproError:
            pass
        for index, client in enumerate(clients):
            roll = rng.random()
            try:
                if roll < 0.45:
                    _one_read(cluster, client, index, rng, ledger, outcome)
                elif roll < 0.85 or not inserted[index]:
                    row_id = next_id[index]
                    next_id[index] += 1
                    ack = client.insert(
                        "r",
                        [row_id, rng.randrange(6), rng.randrange(4), f"nz{row_id}"],
                    )
                    ledger.acked_inserts[row_id] = (
                        ledger.acked_inserts.get(row_id, 0) + 1
                    )
                    inserted[index].append(row_id)
                    ledger.write_acks.append((ack.epoch, ack.served_by, ack.lsn))
                    outcome.counts["writes_acked"] += 1
                    if ack.duplicate:
                        outcome.counts["duplicates_acked"] += 1
                else:
                    row_id = inserted[index].pop(rng.randrange(len(inserted[index])))
                    ledger.indoubt_deletes.add(row_id)
                    ack = client.delete_eq("r", "id", row_id)
                    ledger.indoubt_deletes.discard(row_id)
                    ledger.acked_deletes.add(row_id)
                    ledger.write_acks.append((ack.epoch, ack.served_by, ack.lsn))
                    outcome.counts["writes_acked"] += 1
                    if ack.duplicate:
                        outcome.counts["duplicates_acked"] += 1
            except OverloadError:
                outcome.counts["sheds"] += 1
            except (RetryExhaustedError, NetError, OSError):
                # Unavailability under partition is the *correct*
                # behaviour — the checker only polices what was acked.
                outcome.counts["unavailable"] += 1
            outcome.counts["ops"] += 1
        _probe_zombie(cluster, outcome)
    # Quiesce: the generated schedule's tail is already fully healed;
    # force-heal (covers replayed custom schedules too) and drain.
    nemesis.heal_all()
    cluster.heal_ship()
    cluster.heal_clients()
    for _ in range(QUIESCE):
        cluster.clock[0] += STEP_SECONDS
        cluster.control.pump()
        cluster.coordinator.tick()
        try:
            cluster.coordinator.primary.ship()
        except ReproError:
            pass


def _one_read(
    cluster: _Cluster,
    client: PMVClient,
    index: int,
    rng: random.Random,
    ledger: _Ledger,
    outcome: Outcome,
) -> None:
    query = random_binding(cluster.template, rng)
    answer = client.query(
        query,
        budget=2.0,
        staleness_bound=STALENESS_BOUND,
        prefer_replica=rng.random() < 0.5,
    )
    outcome.counts["reads"] += 1
    if answer.replica_lag is not None:
        outcome.counts["replica_served"] += 1
    era_node = cluster.eras.get(answer.epoch) if answer.epoch is not None else None
    truth_last = (
        era_node.database.wal.last_lsn if era_node is not None else 0
    )
    isolated = era_node is not None and era_node.is_isolated()
    stamped = answer.epoch is not None and answer.applied_lsn is not None
    ledger.reads.append(
        _ReadRecord(
            client=index,
            answer=Answer(
                f"read {len(ledger.reads)} (client {index}, epoch {answer.epoch}, "
                f"served by {answer.served_by})",
                query,
                multiset(answer.rows),
                answer.complete,
                answer.applied_lsn,
            )
            if stamped
            else None,
            epoch=answer.epoch,
            applied_lsn=answer.applied_lsn,
            replica_lag=answer.replica_lag,
            truth_last=truth_last,
            isolated=era_node.name if isolated else None,
        )
    )
    # Monotonic session: within one epoch, the stamped watermark never
    # regresses (the min_lsn token reroutes lagging replicas).
    if answer.epoch is not None and answer.applied_lsn is not None:
        high = ledger.session_high.get(index)
        if high is not None and high[0] == answer.epoch and answer.applied_lsn < high[1]:
            outcome.violations.append(
                f"monotonic-read: client {index} saw LSN {answer.applied_lsn} "
                f"after {high[1]} in epoch {answer.epoch}"
            )
        if high is None or high[0] != answer.epoch or answer.applied_lsn > high[1]:
            ledger.session_high[index] = (answer.epoch, answer.applied_lsn)


def _probe_zombie(cluster: _Cluster, outcome: Outcome) -> None:
    """Read through the stale router still bound to the original
    primary.  Once deposed, the original must refuse; a serve after
    deposition is the zombie-read window."""
    original = cluster.eras[min(cluster.eras)]
    if cluster.coordinator.primary is original:
        return
    try:
        cluster.stale_gate.execute(bind(cluster.template, 0, 0))
    except ReproError:
        outcome.counts["zombie_probe_refusals"] += 1
        return
    outcome.counts["zombie_probe_serves"] += 1
    outcome.violations.append(
        f"zombie-read: deposed {original.name} (epoch {original.epoch}, mode "
        f"{original.mode}) served a read while epoch "
        f"{cluster.coordinator.primary.epoch} is live"
    )


# ---------------------------------------------------------------------------
# The history checker
# ---------------------------------------------------------------------------


def _check_history(cluster: _Cluster, ledger: _Ledger, outcome: Outcome) -> None:
    # -- acked durability and at-most-once against the survivor ------------
    found = found_ids(cluster.coordinator.primary.database, CLIENT_ID_BASE)
    verdict = WriteLedger(
        ledger.acked_inserts, ledger.acked_deletes, ledger.indoubt_deletes
    ).check(found)
    for row_id in verdict["duplicate"]:
        outcome.violations.append(
            f"duplicate-application: row {row_id} present {found[row_id]} times"
        )
    for row_id in verdict["resurrected"]:
        outcome.violations.append(
            f"resurrected-delete: row {row_id} acked deleted but present"
        )
    for row_id in verdict["lost"]:
        outcome.violations.append(
            f"acked-write-loss: row {row_id} acked but missing from "
            f"the surviving timeline"
        )
    # -- one writer per era -----------------------------------------------
    writers: dict[int, set[str]] = {}
    for epoch, served_by, _lsn in ledger.write_acks:
        if epoch is not None and served_by is not None:
            writers.setdefault(epoch, set()).add(served_by)
    for epoch, nodes in sorted(writers.items()):
        if len(nodes) > 1:
            outcome.violations.append(
                f"split-brain: epoch {epoch} has writes acked by {sorted(nodes)}"
            )
    # -- per-read checks: isolation, lag honesty, truth subset -------------
    for record in ledger.reads:
        if record.isolated is not None:
            outcome.violations.append(
                f"isolated-serve: read for client {record.client} served in epoch "
                f"{record.epoch} while its primary {record.isolated} was ISOLATED"
            )
        if record.replica_lag is not None and record.applied_lsn is not None:
            true_lag = max(0, record.truth_last - record.applied_lsn)
            if record.replica_lag < true_lag:
                outcome.violations.append(
                    f"lag-understated: stamp {record.replica_lag} < true lag "
                    f"{true_lag} (client {record.client}, LSN {record.applied_lsn})"
                )
    # -- every stamped read, judged against its era's WAL --------------------
    by_epoch: dict[int, list[Answer]] = {}
    for record in ledger.reads:
        if record.answer is not None:
            by_epoch.setdefault(record.epoch, []).append(record.answer)
    for epoch, answers in sorted(by_epoch.items()):
        node = cluster.eras.get(epoch)
        if node is None:
            outcome.violations.append(f"unknown-era: reads stamped epoch {epoch}")
            continue
        for violation in check_answers(answers, Replay(node.database.wal.records())):
            outcome.violations.append(f"untrue-read: {violation}")


# ---------------------------------------------------------------------------
# One seed under one schedule
# ---------------------------------------------------------------------------

_COUNTS = (
    "ops", "reads", "replica_served", "writes_acked", "duplicates_acked",
    "unavailable", "sheds", "zombie_probe_refusals", "zombie_probe_serves",
)


def run(seed: int, schedule: str) -> Outcome:
    """Drive ``seed``'s workload under the partition plan ``schedule``
    and check the observed history."""
    outcome = Outcome(handle("nemesis", seed, schedule), [], dict.fromkeys(_COUNTS, 0))
    cluster = _Cluster()
    nemesis = Nemesis(PartitionPlan.parse(schedule))
    nemesis.register("coord-primary", cluster.control.cut, cluster.control.heal)
    nemesis.register("primary-replica", cluster.cut_ship, cluster.heal_ship)
    nemesis.register("client-server", cluster.cut_clients, cluster.heal_clients)

    server = NetServer(cluster.front_end, refuse_connections=lambda: cluster.client_cut)
    cluster.server = server
    host, port = server.start()
    clients = [
        PMVClient(host, port, f"nz{seed}-{index}", retry=RETRY) for index in range(CLIENTS)
    ]
    ledger = _Ledger()
    try:
        _drive(cluster, nemesis, clients, seed, ledger, outcome)
    finally:
        outcome.counts["client_retries"] = sum(client.retries for client in clients)
        for client in clients:
            client.close()
        server.stop()

    _check_history(cluster, ledger, outcome)
    if not outcome.counts["writes_acked"] or not outcome.counts["reads"]:
        outcome.violations.append("vacuous: no acknowledged write or no read")
    coord = cluster.coordinator
    metrics = cluster.front_end.metrics.snapshot()
    outcome.counts.update(
        failovers=coord.failovers,
        epochs=len(coord.epoch_history),
        promotions_refused_lease=coord.promotions_refused_lease,
        promotions_refused_watermark=coord.promotions_refused_watermark,
        fences_skipped=coord.fences_skipped,
        isolated_refusals=sum(node.isolated_refusals for node in cluster.eras.values()),
        monotonic_fallbacks=metrics["net_monotonic_fallbacks"],
        connections_refused=metrics["net_connections_refused"],
    )
    return outcome


DRILL = Drill(
    "nemesis",
    points=lambda seed: [PartitionPlan.generate(seed, STEPS, quiesce=QUIESCE).describe()],
    run=run,
    seeds=tuple(range(12)),
)
