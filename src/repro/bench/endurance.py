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
- the PMV answer equals the true answer for every probed binding;
- restarting from a mid-run snapshot + log suffix (which may read
  reclaimed segments back from the archive) reproduces exactly the
  acked state: the unique-id ledger shows zero lost and zero
  duplicated acked writes.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from repro.check import (
    RELATIONS,
    Drill,
    Outcome,
    WriteLedger,
    attach_view,
    bind,
    build_rs,
    contents_of,
    found_ids,
    handle,
    multiset,
    random_binding,
    rs_template,
    true_answer,
)
from repro.engine import Database, WriteAheadLog
from repro.engine.snapshot import (
    checkpoint as wal_checkpoint,
    recover_from_snapshot,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.errors import DiskFullError
from repro.faults import FaultInjector, FaultMode, FaultPlan, FaultSpec

__all__ = ["DRILL", "run"]

OPS = 600
SEGMENT_BYTES = 4096
SPILL_THRESHOLD = 32
DRAIN_BATCH = 8
DRAIN_EVERY = 50
CHECKPOINT_EVERY = 75
WINDOW_LEN = 12


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


def run(seed: int, schedule: str = "none") -> Outcome:
    """The soak; the ENOSPC windows are fixed, so the schedule is ``none``."""
    outcome = Outcome(handle("endurance", seed, schedule), [])
    failures = outcome.violations
    counts = outcome.counts = {
        "ops": OPS,
        "acked_writes": 0,
        "refusals": 0,
        "queries_served_during_refusal": 0,
        "checkpoints": 0,
        "live_bytes_peak": 0,
    }
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
        refusal_sites: set[str] = set()

        def checkpoint() -> None:
            snapshots.append(snapshot_to_json(wal_checkpoint(database)))
            counts["checkpoints"] += 1
            live = database.wal.resource_stats()["live_bytes"]
            counts["live_bytes_peak"] = max(counts["live_bytes_peak"], live)

        for op_no in range(OPS):
            if op_no and op_no % DRAIN_EVERY == 0:
                maintainer.drain(max_records=3 * DRAIN_BATCH)
            if op_no and op_no % CHECKPOINT_EVERY == 0:
                checkpoint()
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
                    counts["acked_writes"] += 1
                elif roll < 0.62:  # delete
                    rows = list(database.catalog.relation("r").scan())
                    if rows:
                        row_id, row = rows[rng.randrange(len(rows))]
                        database.delete("r", row_id)
                        deleted_ids.add(row["id"])
                        counts["acked_writes"] += 1
                elif roll < 0.72:  # update (never touches the id ledger column)
                    rows = list(database.catalog.relation("r").scan())
                    if rows:
                        row_id, _row = rows[rng.randrange(len(rows))]
                        database.update("r", row_id, a=f"renamed-{rng.randrange(999)}")
                        counts["acked_writes"] += 1
                else:  # query through the PMV
                    manager.execute(random_binding(template, rng))
            except DiskFullError as exc:
                counts["refusals"] += 1
                refusal_sites.add(exc.site)
                if database.wal.last_lsn != lsn_before:
                    failures.append(
                        f"op {op_no}: disk-full refusal advanced the WAL "
                        f"({lsn_before} -> {database.wal.last_lsn})"
                    )
                if not database.disk_full:
                    failures.append(
                        f"op {op_no}: refusal did not mark the instance disk_full"
                    )
                # Read-only degradation: the same instant the write was
                # refused, a query must still serve.
                try:
                    manager.execute(random_binding(template, rng))
                    counts["queries_served_during_refusal"] += 1
                except Exception as exc2:  # noqa: BLE001 - recorded, not raised
                    failures.append(
                        f"op {op_no}: query failed during disk-full window: {exc2!r}"
                    )
            except Exception as exc:  # noqa: BLE001 - any other error is a failure
                failures.append(f"op {op_no}: unexpected {exc!r}")
                break

        # Steady state: drain everything, then one final checkpoint to
        # drive reclaim down to the minimum live log.
        maintainer.drain_to_convergence()
        checkpoint()
        stats = database.wal.resource_stats()
        box = outbox.stats()
        counts.update(
            recoveries=database.disk_full_recoveries,
            rotated=stats["segments_rotated"],
            reclaimed=stats["segments_reclaimed"],
            live_segments=stats["live_segments"],
            live_bytes=stats["live_bytes"],
            archived_bytes=stats["archived_bytes"],
            spilled=box["spilled_total"],
            peak_resident=box["peak_resident"],
            spill_enospc=box["spill_enospc"],
            drain_batches=maintainer.drain_batches,
        )

        # -- resource bounds ------------------------------------------------
        if counts["refusals"] == 0 or len(refusal_sites) < 2:
            failures.append(
                f"expected refusals from both ENOSPC sites, got {sorted(refusal_sites)}"
            )
        if counts["recoveries"] < 2:
            failures.append(
                f"expected >= 2 disk-full auto-recoveries, got {counts['recoveries']}"
            )
        if counts["rotated"] == 0 or counts["reclaimed"] == 0:
            failures.append(
                "WAL never rotated or never reclaimed "
                f"(rotated={counts['rotated']}, reclaimed={counts['reclaimed']})"
            )
        if counts["live_segments"] > 3:
            failures.append(
                "live WAL not bounded after final checkpoint: "
                f"{counts['live_segments']} segments, {counts['live_bytes']} bytes"
            )
        if counts["spilled"] == 0:
            failures.append("outbox never spilled — threshold never reached")
        if counts["peak_resident"] > SPILL_THRESHOLD + WINDOW_LEN + DRAIN_BATCH:
            failures.append(
                f"outbox resident window unbounded: peak {counts['peak_resident']}"
            )

        # -- convergence: PMV answers equal the true answers ---------------
        for f_val in range(4):
            for g_val in range(3):
                query = bind(template, f_val, g_val)
                got = multiset(manager.execute(query).all_rows())
                want = true_answer(database, query)
                if got != want:
                    failures.append(
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
        recovered = recover_from_snapshot(snapshot_from_json(restart_from), log)
        counts["archive_reads"] = log.archive_reads
        if contents_of(recovered, RELATIONS) != contents_of(database, RELATIONS):
            failures.append(
                "restart from snapshot + log suffix diverged from the "
                "live pre-shutdown state"
            )
        found = found_ids(recovered)
        verdict = WriteLedger(inserted_ids, deleted_ids).check(found)
        if verdict["duplicate"]:
            failures.append("ledger: duplicate acked writes after restart")
        lost = verdict["lost"][:5]
        phantom = sorted(set(found) - inserted_ids)[:5] + verdict["resurrected"][:5]
        if lost or phantom:
            failures.append(
                f"ledger: acked-write loss/phantom after restart "
                f"(lost={lost}, phantom={phantom})"
            )
        outbox.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


DRILL = Drill("endurance", points=lambda seed: ["none"], run=run)
