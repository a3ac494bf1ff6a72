"""Run-forever endurance drill: bounded resources under ENOSPC abuse.

Where :mod:`repro.bench.torture` asks "does one injected fault ever
lose an acked write?", this drill asks the run-forever question: does a
long, write-heavy, CDC-maintained workload keep its footprint *bounded*
— WAL bytes on disk, outbox records in memory — and does a full disk
degrade the instance instead of corrupting it?

One seeded run drives ~600 mixed operations against a **segmented** WAL
(small segments so rotation and checkpoint-driven reclaim happen many
times) with a spill-to-disk change outbox (small resident window so the
feed actually spills) and a batch-draining async maintainer.  Two
sustained ENOSPC windows are scheduled mid-run via the fault plan — one
on the WAL reserve probe (``wal.enospc``), one on the data-volume probe
(``disk.full``) — each a dozen consecutive arrivals, modelling a disk
that stays full for a while and then clears.

The drill asserts, while running:

- every refusal inside a window is a typed
  :class:`~repro.errors.DiskFullError` with **zero durable effect**
  (the WAL LSN does not move);
- queries keep serving through both windows (read-only degradation);
- the instance auto-recovers after each window (first successful probe
  clears ``disk_full``), at least twice.

And at the end, after draining to convergence and a final checkpoint:

- segments were rotated *and* reclaimed; the live WAL directory is
  back down to a few segments (bounded log);
- the outbox spilled (``spilled_total > 0``) and its resident window
  stayed bounded (``peak_resident`` near the spill threshold);
- the PMV answer equals full execution for every probed binding;
- restarting from a mid-run snapshot + log suffix (which may read
  reclaimed segments back from the archive) reproduces exactly the
  acked state: the unique-id ledger shows zero lost and zero
  duplicated acked writes.

Run the CI smoke::

    python -m repro.bench.endurance --ops 600 --report ENDURANCE_report.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

from repro.check import (
    RELATIONS,
    WriteLedger,
    attach_view,
    bind,
    build_rs,
    found_ids,
    multiset,
    random_binding,
    rs_template,
)
from repro.engine import Database, WriteAheadLog
from repro.engine.snapshot import (
    checkpoint as wal_checkpoint,
    recover_from_snapshot,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.errors import DiskFullError
from repro.faults import FaultInjector, FaultMode, FaultPlan, FaultSpec, contents_of

__all__ = ["EnduranceReport", "run_endurance", "main"]

DEFAULT_OPS = 600
SEGMENT_BYTES = 4096
SPILL_THRESHOLD = 32
DRAIN_BATCH = 8
DRAIN_EVERY = 50
CHECKPOINT_EVERY = 75
WINDOW_LEN = 12


@dataclass
class EnduranceReport:
    """Everything the CI artifact needs to explain a red run."""

    ops: int = 0
    seed: int = 0
    acked_writes: int = 0
    refusals: int = 0
    refusal_sites: dict = field(default_factory=dict)
    recoveries: int = 0
    queries_served_during_refusal: int = 0
    segments_rotated: int = 0
    segments_reclaimed: int = 0
    live_segments_final: int = 0
    live_wal_bytes_final: int = 0
    live_wal_bytes_peak: int = 0
    archive_bytes_final: int = 0
    archive_reads: int = 0
    spilled_total: int = 0
    peak_resident: int = 0
    spill_enospc: int = 0
    drain_batches: int = 0
    checkpoints: int = 0
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _enospc_windows() -> FaultPlan:
    """Two sustained disk-full windows: ERROR-mode specs never disarm
    the injector, so consecutive occurrences model a disk that stays
    full across many statements before space is freed."""
    specs = []
    for occ in range(80, 80 + WINDOW_LEN):
        specs.append(FaultSpec("wal.enospc", occ, FaultMode.ERROR))
    for occ in range(180, 180 + WINDOW_LEN):
        specs.append(FaultSpec("disk.full", occ, FaultMode.ERROR))
    return FaultPlan(specs)


def _setup(workdir: str, injector: FaultInjector):
    wal_dir = os.path.join(workdir, "wal")
    wal = WriteAheadLog(
        path=wal_dir,
        segment_bytes=SEGMENT_BYTES,
        archive_max_bytes=512 * 1024,
    )
    wal.fault_check = injector.check
    database = Database(wal=wal)
    database.disk.fault_check = injector.check
    build_rs(database, 0, 0, selection_indexes=False)
    template = rs_template("eq")
    manager = attach_view(
        database, template, tuples_per_entry=4, max_entries=12, aux_index=False
    )
    from repro.cdc import ChangeOutbox

    outbox = ChangeOutbox(
        fault_check=injector.check,
        spill_threshold=SPILL_THRESHOLD,
        spill_path=os.path.join(workdir, "outbox.spill"),
    )
    maintainer = manager.enable_async_maintenance(
        outbox=outbox, drain_batch=DRAIN_BATCH
    )
    return database, manager, template, maintainer, outbox, wal_dir


def run_endurance(
    ops: int = DEFAULT_OPS, seed: int = 0, verbose: bool = False
) -> EnduranceReport:
    started = time.monotonic()
    report = EnduranceReport(ops=ops, seed=seed)
    workdir = tempfile.mkdtemp(prefix="pmv-endurance-")
    injector = FaultInjector(_enospc_windows())
    try:
        database, manager, template, maintainer, outbox, wal_dir = _setup(
            workdir, injector
        )
        rng = random.Random(seed * 6367 + 11)
        inserted_ids: set[int] = set()
        deleted_ids: set[int] = set()
        next_id = 1
        snapshots: list[str] = []
        refusal_sites: dict[str, int] = {}

        def probe_query():
            return random_binding(template, rng)

        def sample_wal() -> None:
            stats = database.wal.resource_stats()
            report.live_wal_bytes_peak = max(
                report.live_wal_bytes_peak, stats["live_bytes"]
            )

        for op_no in range(ops):
            if op_no and op_no % DRAIN_EVERY == 0:
                maintainer.drain(max_records=3 * DRAIN_BATCH)
            if op_no and op_no % CHECKPOINT_EVERY == 0:
                snapshots.append(snapshot_to_json(wal_checkpoint(database)))
                report.checkpoints += 1
                sample_wal()
            roll = rng.random()
            lsn_before = database.wal.last_lsn
            try:
                if roll < 0.50:  # insert (the ledger relation is r)
                    if rng.random() < 0.75:
                        database.insert(
                            "r",
                            (next_id, rng.randrange(6), rng.randrange(4), f"a{next_id}"),
                        )
                        inserted_ids.add(next_id)
                        next_id += 1
                    else:
                        database.insert(
                            "s",
                            (rng.randrange(6), rng.randrange(3), f"e{rng.randrange(99)}"),
                        )
                    report.acked_writes += 1
                elif roll < 0.62:  # delete
                    rows = list(database.catalog.relation("r").scan())
                    if rows:
                        row_id, row = rows[rng.randrange(len(rows))]
                        database.delete("r", row_id)
                        deleted_ids.add(row["id"])
                        report.acked_writes += 1
                elif roll < 0.72:  # update (never touches the id ledger column)
                    rows = list(database.catalog.relation("r").scan())
                    if rows:
                        row_id, _row = rows[rng.randrange(len(rows))]
                        database.update("r", row_id, a=f"renamed-{rng.randrange(999)}")
                        report.acked_writes += 1
                else:  # query through the PMV
                    manager.execute(probe_query())
            except DiskFullError as exc:
                report.refusals += 1
                refusal_sites[exc.site] = refusal_sites.get(exc.site, 0) + 1
                if database.wal.last_lsn != lsn_before:
                    report.failures.append(
                        f"op {op_no}: disk-full refusal advanced the WAL "
                        f"({lsn_before} -> {database.wal.last_lsn})"
                    )
                if not database.disk_full:
                    report.failures.append(
                        f"op {op_no}: refusal did not mark the instance disk_full"
                    )
                # Read-only degradation: the same instant the write was
                # refused, a query must still serve.
                try:
                    manager.execute(probe_query())
                    report.queries_served_during_refusal += 1
                except Exception as exc2:  # noqa: BLE001 - recorded, not raised
                    report.failures.append(
                        f"op {op_no}: query failed during disk-full window: {exc2!r}"
                    )
            except Exception as exc:  # noqa: BLE001 - any other error is a failure
                report.failures.append(f"op {op_no}: unexpected {exc!r}")
                break

        # Steady state: drain everything, then one final checkpoint to
        # drive reclaim down to the minimum live log.
        maintainer.drain_to_convergence()
        snapshots.append(snapshot_to_json(wal_checkpoint(database)))
        report.checkpoints += 1
        sample_wal()

        report.refusal_sites = refusal_sites
        report.recoveries = database.disk_full_recoveries
        stats = database.wal.resource_stats()
        report.segments_rotated = stats["segments_rotated"]
        report.segments_reclaimed = stats["segments_reclaimed"]
        report.live_segments_final = stats["live_segments"]
        report.live_wal_bytes_final = stats["live_bytes"]
        report.archive_bytes_final = stats["archived_bytes"]
        box = outbox.stats()
        report.spilled_total = box["spilled_total"]
        report.peak_resident = box["peak_resident"]
        report.spill_enospc = box["spill_enospc"]
        report.drain_batches = maintainer.drain_batches

        # -- resource bounds ------------------------------------------------
        if report.refusals == 0 or len(refusal_sites) < 2:
            report.failures.append(
                f"expected refusals from both ENOSPC sites, got {refusal_sites}"
            )
        if report.recoveries < 2:
            report.failures.append(
                f"expected >= 2 disk-full auto-recoveries, got {report.recoveries}"
            )
        if report.segments_rotated == 0 or report.segments_reclaimed == 0:
            report.failures.append(
                "WAL never rotated or never reclaimed "
                f"(rotated={report.segments_rotated}, "
                f"reclaimed={report.segments_reclaimed})"
            )
        if report.live_segments_final > 3:
            report.failures.append(
                "live WAL not bounded after final checkpoint: "
                f"{report.live_segments_final} segments, "
                f"{report.live_wal_bytes_final} bytes"
            )
        if report.spilled_total == 0:
            report.failures.append("outbox never spilled — threshold never reached")
        if report.peak_resident > SPILL_THRESHOLD + WINDOW_LEN + DRAIN_BATCH:
            report.failures.append(
                f"outbox resident window unbounded: peak {report.peak_resident}"
            )

        # -- convergence: PMV answers equal full execution ------------------
        for f_val in range(4):
            for g_val in range(3):
                query = bind(template, f_val, g_val)
                got = multiset(manager.execute(query).all_rows())
                want = multiset(database.run(query))
                if got != want:
                    report.failures.append(
                        f"post-convergence divergence at f={f_val} g={g_val}: "
                        f"{sum(got.values())} vs {sum(want.values())} tuples"
                    )

        # -- restart: snapshot + log suffix, ledger exactly-once ------------
        # Restart from the *previous* snapshot when there is one: its
        # log suffix spans segments the final checkpoint reclaimed, so
        # replay transparently reads them back from the archive.
        database.wal.close()
        restart_from = snapshots[-2] if len(snapshots) > 1 else snapshots[-1]
        log = WriteAheadLog.load(wal_dir)
        report.archive_reads = log.archive_reads
        recovered = recover_from_snapshot(snapshot_from_json(restart_from), log)
        report.archive_reads = log.archive_reads
        if contents_of(recovered, RELATIONS) != contents_of(database, RELATIONS):
            report.failures.append(
                "restart from snapshot + log suffix diverged from the "
                "live pre-shutdown state"
            )
        found = found_ids(recovered)
        verdict = WriteLedger(inserted_ids, deleted_ids).check(found)
        if verdict["duplicate"]:
            report.failures.append("ledger: duplicate acked writes after restart")
        lost = verdict["lost"][:5]
        phantom = sorted(set(found) - inserted_ids)[:5] + verdict["resurrected"][:5]
        if lost or phantom:
            report.failures.append(
                f"ledger: acked-write loss/phantom after restart "
                f"(lost={lost}, phantom={phantom})"
            )
        outbox.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.elapsed_seconds = time.monotonic() - started
    if verbose:
        flag = "ok" if report.ok else "FAILED"
        print(
            f"endurance [{flag}] ops={report.ops} acked={report.acked_writes} "
            f"refusals={report.refusals} recoveries={report.recoveries} "
            f"rotated={report.segments_rotated} reclaimed={report.segments_reclaimed} "
            f"live_bytes={report.live_wal_bytes_final} "
            f"spilled={report.spilled_total} peak_resident={report.peak_resident} "
            f"({report.elapsed_seconds:.1f}s)"
        )
        for failure in report.failures:
            print(f"  FAIL: {failure}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", type=str, default=None,
                        help="write the JSON report here (CI artifact)")
    args = parser.parse_args(argv)
    report = run_endurance(ops=args.ops, seed=args.seed, verbose=True)
    if args.report:
        payload = asdict(report)
        payload["ok"] = report.ok
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
