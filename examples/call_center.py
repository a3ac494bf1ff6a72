"""The paper's motivating scenario: a retailer's customer-service call
center (Section 1).

When a customer calls in, the operator queries two relations:

- ``related(item, related_item)`` — items related to what the customer
  recently purchased;
- ``sale(item, discount, store, description)`` — items currently on
  sale, one logical partition per store.

The operator needs *some* on-sale suggestions before the customer hangs
up, not the complete list, and the suggestions must be current (an item
whose sale just ended must never be offered) — exactly transactionally
consistent, immediate partial results.

The discount predicate is an interval condition ("at least p % off",
with p depending on customer loyalty), so this example also exercises
the interval-form slots with dividing values.

Run:  python examples/call_center.py
"""

import numpy as np

from repro import (
    Column,
    Database,
    Discretization,
    EqualityDisjunction,
    Interval,
    IntervalDisjunction,
    JoinEquality,
    PartialMaterializedView,
    PMVExecutor,
    PMVMaintainer,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
)
from repro.core import BasicIntervals
from repro.engine import FLOAT, INTEGER, TEXT, PLUS_INFINITY


def build_store(seed: int = 20260705) -> Database:
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_relation(
        "related", [Column("item", INTEGER), Column("related_item", INTEGER)]
    )
    db.create_relation(
        "sale",
        [
            Column("item", INTEGER),
            Column("discount", FLOAT),
            Column("store", INTEGER),
            Column("description", TEXT),
        ],
    )
    db.create_index("related_item_idx", "related", ["item"])
    db.create_index("related_target_idx", "related", ["related_item"])
    db.create_index("sale_item_idx", "sale", ["item"])
    db.create_index("sale_discount_idx", "sale", ["discount"], ordered=True)
    # 2,000 catalogue items, each related to a handful of others.
    for item in range(2000):
        for _ in range(rng.integers(2, 5)):
            db.insert("related", (item, int(rng.integers(0, 2000))))
    # A quarter of the catalogue is on sale somewhere.
    for item in rng.choice(2000, size=500, replace=False):
        db.insert(
            "sale",
            (
                int(item),
                float(np.round(rng.uniform(5, 60), 1)),
                int(rng.integers(0, 4)),
                f"promo for item {item}",
            ),
        )
    return db


def main() -> None:
    db = build_store()

    # Template: items related to one of the customer's purchases that
    # are on sale with a discount of at least p%.
    template = QueryTemplate(
        name="offers",
        relations=("related", "sale"),
        select_list=("related.item", "sale.item", "sale.discount", "sale.description"),
        joins=(JoinEquality("related", "related_item", "sale", "item"),),
        slots=(
            SelectionSlot("related", "related.item", SlotForm.EQUALITY),
            SelectionSlot("sale", "sale.discount", SlotForm.INTERVAL),
        ),
    )
    db.register_template(template)

    # Loyalty tiers define the natural dividing values for the
    # discount axis: [0,10), [10,25), [25,40), [40,+inf).
    discount_grid = BasicIntervals([10.0, 25.0, 40.0], low=0.0)
    pmv = PartialMaterializedView(
        template,
        Discretization(template, {"sale.discount": discount_grid}),
        tuples_per_entry=5,
        max_entries=5_000,
        policy="2q",
        aux_index_columns=("sale.item",),
    )
    executor = PMVExecutor(db, pmv)
    PMVMaintainer(db, pmv).attach()

    def offers_query(purchased_items, min_discount):
        return template.bind(
            [
                EqualityDisjunction("related.item", purchased_items),
                IntervalDisjunction(
                    "sale.discount",
                    [Interval(min_discount, PLUS_INFINITY, low_inclusive=True)],
                ),
            ]
        )

    # A stream of calls; popular items repeat, so their cells get hot.
    rng = np.random.default_rng(7)
    popular = [3, 17, 42, 99, 123]
    print("warming the PMV with 60 calls...")
    for _ in range(60):
        purchased = sorted(set(int(rng.choice(popular)) for _ in range(2)))
        executor.execute(offers_query(purchased, 10.0))

    # The call that matters: a loyal customer (p=25%) who bought
    # popular items — the operator sees offers within the O2 latency.
    call = offers_query([3, 42], 25.0)
    result = executor.execute(call)
    print(
        f"\ncustomer call: {len(result.partial_rows)} offer(s) available immediately "
        f"({result.metrics.partial_latency_seconds * 1e6:.0f} µs), "
        f"{len(result.remaining_rows)} more after full execution "
        f"({result.metrics.execution_seconds * 1e6:.0f} µs)"
    )
    for row in result.partial_rows[:5]:
        print(
            f"  offer now: item {row['sale.item']} at {row['sale.discount']}% off "
            f"(related to purchased item {row['related.item']})"
        )

    # A sale ends mid-shift: deferred maintenance purges the cached
    # offers for that item, so the next call never sees it.
    ended = result.all_rows()[0]["sale.item"]
    db.delete_eq("sale", "item", ended)
    followup = executor.execute(call)
    assert all(row["sale.item"] != ended for row in followup.all_rows())
    print(f"\nsale on item {ended} ended -> no stale offer served "
          f"({len(followup.all_rows())} offers remain)")
    print(
        f"\nPMV: {pmv.entry_count} hot cells cached, hit probability "
        f"{pmv.metrics.hit_probability:.0%} across {pmv.metrics.queries} calls"
    )


if __name__ == "__main__":
    main()
