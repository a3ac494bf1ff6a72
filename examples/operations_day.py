"""A day in operations: durability, trace-driven tuning, and previews.

Walks the operational side of running PMVs in production:

1. the engine runs with a **write-ahead log**; a simulated crash loses
   all in-memory state and `recover()` replays the log — the PMVs
   restart empty (they are caches) and refill on first touch;
2. a **query trace** recorded during the morning identifies the hot
   cells and feeds the workload analysis that sizes the PMV;
3. analysts use **previews** (O1+O2 only) to decide whether a broad
   query is worth running — the paper's Benefit 2, measured here as
   I/O the RDBMS never had to do;
4. a **PMVManager** keeps one PMV per template and reports fleet-wide
   memory, showing "the RDBMS can afford storing many PMVs".

Run:  python examples/operations_day.py
"""

from repro.core import PMVManager
from repro.engine import Database, WriteAheadLog, recover
from repro.workload import (
    QueryTraceRecorder,
    TPCRConfig,
    ZipfianQueryStream,
    load_tpcr,
    make_t1,
    make_t2,
)


def main() -> None:
    # --- 1. a durable engine -------------------------------------------------
    wal = WriteAheadLog()  # pass a directory path for on-disk durability
    db = Database(buffer_pool_pages=64, wal=wal)
    config = TPCRConfig(
        scale_factor=1.0, downscale=2000, seed=9,
        distinct_order_dates=40, suppliers=12, nations=4,
    )
    dataset = load_tpcr(db, config)
    print(f"engine up with WAL: {len(wal)} log records after load "
          f"({dataset.row_counts['lineitem']} lineitems)")

    manager = PMVManager(db)
    t1, t2 = make_t1(), make_t2()
    manager.create_view(t1, tuples_per_entry=3, max_entries=300, policy="2q")
    manager.create_view(t2, tuples_per_entry=3, max_entries=300, policy="2q")

    # --- 2. the morning's trace ------------------------------------------------
    recorder = QueryTraceRecorder(t1)
    stream = ZipfianQueryStream(
        t1, [config.order_dates(), list(range(1, config.suppliers + 1))],
        alpha=1.2, seed=4,
    )
    run_t1 = recorder.wrap(lambda q: manager.execute(q))
    for query in stream.queries(150):
        run_t1(query)
    hot = recorder.trace.hot_cells(top=3)
    print("\nmorning trace analysis — hottest (date, supplier) cells:")
    for cell, count in hot:
        print(f"  {cell}: requested {count}x")
    print(f"  T1 hit probability so far: "
          f"{manager.view('T1').metrics.hit_probability:.0%}")

    # --- 3. preview before committing to a broad query --------------------------
    executor = manager.executor("T1")
    broad = stream.next_query()
    executor.execute(broad)  # make its cells warm for the demo
    io_before = db.io_snapshot()
    glimpse = executor.preview(broad)
    io_spent = db.io_since(io_before).total
    print(f"\npreview of a broad query: {len(glimpse.partial_rows)} rows "
          f"instantly, {io_spent} page I/Os spent (full run skipped)")

    # --- 4. fleet accounting ------------------------------------------------------
    print("\nPMV fleet:")
    for row in manager.summary():
        print(f"  {row['template']}: {row['entries']} cells, "
              f"{row['tuples']} tuples, {row['bytes']}B, "
              f"hit {row['hit_probability']:.0%} over {row['queries']} queries")
    print(f"  total fleet memory: {manager.total_bytes}B")

    # --- 5. the crash --------------------------------------------------------------
    answer_before = sorted(
        tuple(r.values) for r in manager.execute(recorder.trace.queries[0]).all_rows()
    )
    del db, manager  # power cable meets foot
    recovered = recover(wal)
    print(f"\ncrash! recovered {recovered.catalog.relation('lineitem').row_count} "
          f"lineitems from {len(wal)} log records")

    fresh_manager = PMVManager(recovered)
    # Templates are identity-keyed: reuse the same t1 object so the
    # morning's recorded queries bind to the recreated view.
    fresh_manager.create_view(t1, tuples_per_entry=3, max_entries=300, policy="2q")
    cold = fresh_manager.execute(recorder.trace.queries[0])
    assert cold.partial_rows == []  # caches restart empty — and that's correct
    answer_after = sorted(tuple(r.values) for r in cold.all_rows())
    assert answer_after == answer_before
    print("post-recovery answers identical; PMVs restarted empty and will "
          "refill from the afternoon's queries")


if __name__ == "__main__":
    main()
