"""The partition nemesis drill: seeded chaos + client-history checking.

The torture harness's discipline applied to network partitions: a
seeded :class:`~repro.faults.partition.PartitionPlan` cuts and heals
the cluster's three link pairs (coordinator↔primary heartbeats,
primary↔replica WAL shipping, client↔server TCP) while a
single-threaded driver pushes real :class:`~repro.net.client.PMVClient`
traffic over real sockets against a lease-gated cluster on a fake
shared clock.  Because the driver is single-threaded, every
post-response truth probe (the serving node's WAL position, its
ISOLATED state) is exact — there is no racing writer.

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
  ``applied_lsn`` never goes backwards (the v2 ``min_lsn`` token at
  work).

Failures print replay handles — ``SEED=<n> SCHEDULE=<events>`` — and
``--schedule`` replays a schedule verbatim.

Run as a module::

    python -m repro.bench.nemesis --seeds 0 1 2 3 --report NEMESIS_report.json
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import asdict, dataclass, field

from repro.check import (
    Answer,
    Cluster,
    Replay,
    WriteLedger,
    attach_view,
    bind,
    build_rs,
    check_answers,
    found_ids,
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

__all__ = ["NemesisConfig", "NemesisReport", "run_nemesis", "run_sweep", "main"]

# Client-owned rows live far above the seeded id range so the checker
# can own them exclusively (same convention as repro.bench.netload).
CLIENT_ID_BASE = 100_000
CLIENT_ID_STRIDE = 10_000


@dataclass(frozen=True)
class NemesisConfig:
    seed: int = 0
    steps: int = 80
    clients: int = 3
    step_seconds: float = 0.5
    staleness_bound: int = 256
    retry_attempts: int = 3
    retry_base_delay: float = 0.002
    quiesce: int = 12
    schedule: str | None = None
    """A SCHEDULE replay handle; overrides seeded generation."""


@dataclass
class NemesisReport:
    seed: int = 0
    schedule: str = ""
    steps: int = 0
    ops: int = 0
    reads: int = 0
    replica_served: int = 0
    writes_acked: int = 0
    duplicates_acked: int = 0
    unavailable: int = 0
    sheds: int = 0
    client_retries: int = 0
    failovers: int = 0
    epochs: list = field(default_factory=list)
    promotions_refused_lease: int = 0
    promotions_refused_watermark: int = 0
    fences_skipped: int = 0
    isolated_refusals: int = 0
    zombie_probe_refusals: int = 0
    zombie_probe_serves: int = 0
    monotonic_fallbacks: int = 0
    connections_refused: int = 0
    violations: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and self.writes_acked > 0 and self.reads > 0


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class _Cluster(Cluster):
    """A lease-gated semi-sync cluster on a fake shared clock, with
    every partition seam exposed for the nemesis."""

    def __init__(self, config: NemesisConfig):
        self.config = config
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
            staleness_bound=config.staleness_bound,
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
    config: NemesisConfig,
    ledger: _Ledger,
    report: NemesisReport,
) -> None:
    rng = random.Random(f"nemesis:{config.seed}")
    inserted: dict[int, list[int]] = {c: [] for c in range(config.clients)}
    next_id = [
        CLIENT_ID_BASE + index * CLIENT_ID_STRIDE for index in range(config.clients)
    ]
    for step in range(config.steps):
        nemesis.advance_to(step)
        cluster._sync_ship_links()
        cluster.clock[0] += config.step_seconds
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
                    _one_read(cluster, client, index, rng, config, ledger, report)
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
                    report.writes_acked += 1
                    if ack.duplicate:
                        report.duplicates_acked += 1
                else:
                    row_id = inserted[index].pop(rng.randrange(len(inserted[index])))
                    ledger.indoubt_deletes.add(row_id)
                    ack = client.delete_eq("r", "id", row_id)
                    ledger.indoubt_deletes.discard(row_id)
                    ledger.acked_deletes.add(row_id)
                    ledger.write_acks.append((ack.epoch, ack.served_by, ack.lsn))
                    report.writes_acked += 1
                    if ack.duplicate:
                        report.duplicates_acked += 1
            except OverloadError:
                report.sheds += 1
            except (RetryExhaustedError, NetError, OSError):
                # Unavailability under partition is the *correct*
                # behaviour — the checker only polices what was acked.
                report.unavailable += 1
            report.ops += 1
        _probe_zombie(cluster, report)
    # Quiesce: the generated schedule's tail is already fully healed;
    # force-heal (covers replayed custom schedules too) and drain.
    nemesis.heal_all()
    cluster.heal_ship()
    cluster.heal_clients()
    for _ in range(config.quiesce):
        cluster.clock[0] += config.step_seconds
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
    config: NemesisConfig,
    ledger: _Ledger,
    report: NemesisReport,
) -> None:
    query = random_binding(cluster.template, rng)
    answer = client.query(
        query,
        budget=2.0,
        staleness_bound=config.staleness_bound,
        prefer_replica=rng.random() < 0.5,
    )
    report.reads += 1
    if answer.replica_lag is not None:
        report.replica_served += 1
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
            report.violations.append(
                f"monotonic-read: client {index} saw LSN {answer.applied_lsn} "
                f"after {high[1]} in epoch {answer.epoch}"
            )
        if high is None or high[0] != answer.epoch or answer.applied_lsn > high[1]:
            ledger.session_high[index] = (answer.epoch, answer.applied_lsn)


def _probe_zombie(cluster: _Cluster, report: NemesisReport) -> None:
    """Read through the stale router still bound to the original
    primary.  Once deposed, the original must refuse; a serve after
    deposition is the zombie-read window."""
    original = cluster.eras[min(cluster.eras)]
    if cluster.coordinator.primary is original:
        return
    try:
        cluster.stale_gate.execute(bind(cluster.template, 0, 0))
    except ReproError:
        report.zombie_probe_refusals += 1
        return
    report.zombie_probe_serves += 1
    report.violations.append(
        f"zombie-read: deposed {original.name} (epoch {original.epoch}, mode "
        f"{original.mode}) served a read while epoch "
        f"{cluster.coordinator.primary.epoch} is live"
    )


# ---------------------------------------------------------------------------
# The history checker
# ---------------------------------------------------------------------------


def _check_history(
    cluster: _Cluster, ledger: _Ledger, report: NemesisReport
) -> None:
    # -- acked durability and at-most-once against the survivor ------------
    found = found_ids(cluster.coordinator.primary.database, CLIENT_ID_BASE)
    verdict = WriteLedger(
        ledger.acked_inserts, ledger.acked_deletes, ledger.indoubt_deletes
    ).check(found)
    for row_id in verdict["duplicate"]:
        report.violations.append(
            f"duplicate-application: row {row_id} present {found[row_id]} times"
        )
    for row_id in verdict["resurrected"]:
        report.violations.append(
            f"resurrected-delete: row {row_id} acked deleted but present"
        )
    for row_id in verdict["lost"]:
        report.violations.append(
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
            report.violations.append(
                f"split-brain: epoch {epoch} has writes acked by {sorted(nodes)}"
            )
    # -- per-read checks: isolation, lag honesty, truth subset -------------
    for record in ledger.reads:
        if record.isolated is not None:
            report.violations.append(
                f"isolated-serve: read for client {record.client} served in epoch "
                f"{record.epoch} while its primary {record.isolated} was ISOLATED"
            )
        if record.replica_lag is not None and record.applied_lsn is not None:
            true_lag = max(0, record.truth_last - record.applied_lsn)
            if record.replica_lag < true_lag:
                report.violations.append(
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
            report.violations.append(f"unknown-era: reads stamped epoch {epoch}")
            continue
        for violation in check_answers(answers, Replay(node.database.wal.records())):
            report.violations.append(f"untrue-read: {violation}")


# ---------------------------------------------------------------------------
# One seed, and the sweep
# ---------------------------------------------------------------------------


def run_nemesis(config: NemesisConfig | None = None, verbose: bool = False) -> NemesisReport:
    config = config or NemesisConfig()
    started = time.perf_counter()
    if config.schedule is not None:
        plan = PartitionPlan.parse(config.schedule)
    else:
        plan = PartitionPlan.generate(
            config.seed, config.steps, quiesce=config.quiesce
        )
    report = NemesisReport(
        seed=config.seed, schedule=plan.describe(), steps=config.steps
    )
    cluster = _Cluster(config)
    nemesis = Nemesis(plan)
    nemesis.register("coord-primary", cluster.control.cut, cluster.control.heal)
    nemesis.register("primary-replica", cluster.cut_ship, cluster.heal_ship)
    nemesis.register("client-server", cluster.cut_clients, cluster.heal_clients)

    server = NetServer(
        cluster.front_end, refuse_connections=lambda: cluster.client_cut
    )
    cluster.server = server
    host, port = server.start()
    if verbose:
        print(f"[nemesis] SEED={config.seed} SCHEDULE={plan.describe()}")
        print(f"[nemesis] serving at {host}:{port}")

    clients = [
        PMVClient(
            host,
            port,
            f"nz{config.seed}-{index}",
            retry=RetryPolicy(
                attempts=config.retry_attempts,
                base_delay=config.retry_base_delay,
            ),
        )
        for index in range(config.clients)
    ]
    ledger = _Ledger()
    try:
        _drive(cluster, nemesis, clients, config, ledger, report)
    finally:
        for client in clients:
            report.client_retries += client.retries
            client.close()
        server.stop()

    _check_history(cluster, ledger, report)
    coord = cluster.coordinator
    report.failovers = coord.failovers
    report.epochs = list(coord.epoch_history)
    report.promotions_refused_lease = coord.promotions_refused_lease
    report.promotions_refused_watermark = coord.promotions_refused_watermark
    report.fences_skipped = coord.fences_skipped
    report.isolated_refusals = sum(
        node.isolated_refusals for node in cluster.eras.values()
    )
    snapshot = cluster.front_end.metrics.snapshot()
    report.monotonic_fallbacks = snapshot["net_monotonic_fallbacks"]
    report.connections_refused = snapshot["net_connections_refused"]
    report.elapsed_seconds = time.perf_counter() - started
    if verbose:
        verdict = "ALL INVARIANTS HELD" if report.ok else "INVARIANT VIOLATIONS"
        print(
            f"[nemesis] seed {config.seed}: {report.ops} ops "
            f"({report.reads} reads, {report.writes_acked} acked writes, "
            f"{report.unavailable} unavailable), epochs {report.epochs}, "
            f"{report.promotions_refused_lease} lease-refused promotions, "
            f"{report.isolated_refusals} isolated refusals, "
            f"{report.zombie_probe_refusals} zombie probes refused"
        )
        print(f"[nemesis] {verdict} in {report.elapsed_seconds:.1f}s")
        for violation in report.violations[:10]:
            print(f"[nemesis]   VIOLATION: {violation}")
        if not report.ok:
            print(
                f"[nemesis] replay: python -m repro.bench.nemesis "
                f"--seeds {config.seed} --steps {config.steps}"
            )
    return report


def run_sweep(
    seeds: list[int],
    steps: int = 80,
    verbose: bool = False,
) -> list[NemesisReport]:
    return [
        run_nemesis(NemesisConfig(seed=seed, steps=steps), verbose=verbose)
        for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.nemesis",
        description="Seeded partition nemesis with client-history checking.",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument(
        "--schedule", default=None,
        help="replay a SCHEDULE handle verbatim (single seed only)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the JSON report here (e.g. NEMESIS_report.json)",
    )
    args = parser.parse_args(argv)
    if args.schedule is not None:
        reports = [
            run_nemesis(
                NemesisConfig(
                    seed=args.seeds[0], steps=args.steps, schedule=args.schedule
                ),
                verbose=True,
            )
        ]
    else:
        reports = run_sweep(args.seeds, steps=args.steps, verbose=True)
    ok = all(report.ok for report in reports)
    ran = [report.seed for report in reports]
    print(
        f"[nemesis] sweep over seeds {ran}: "
        f"{'ALL GREEN' if ok else 'FAILURES'}"
    )
    if args.report is not None:
        payload = {
            "ok": ok,
            "seeds": [
                dict(asdict(report), ok=report.ok) for report in reports
            ],
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[nemesis] report written to {args.report}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
