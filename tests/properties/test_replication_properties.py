"""Property-based test: a lossy replication link still converges.

Any schedule of drop / duplicate / reorder / partition faults on the
ship path, against any interleaving of inserts, deletes, and updates,
must leave the replica *identical* to the primary once the link is
healed and the pump has drained — same contents, same physical row
addresses, same local log.  Retransmission is watermark-based, so the
convergence loop is exactly the production one: heal, pump, repeat.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultMode, FaultPlan, FaultSpec
from repro.replication import PrimaryNode, ReplicaNode, SHIP_SITE

link_faults = st.lists(
    st.tuples(
        st.integers(1, 60),
        st.sampled_from(
            [
                FaultMode.DROP,
                FaultMode.DUPLICATE,
                FaultMode.REORDER,
                FaultMode.PARTITION,
            ]
        ),
    ),
    min_size=0,
    max_size=12,
    unique_by=lambda pair: pair[0],
)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 40),
            st.text(alphabet="abc", min_size=0, max_size=8),
        ),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just("")),
        st.tuples(
            st.just("update"),
            st.integers(0, 30),
            st.text(alphabet="xy", min_size=0, max_size=8),
        ),
    ),
    min_size=1,
    max_size=30,
)


def table_state(db):
    relation = db.catalog.relation("t")
    return {rid: row.values for rid, row in relation.scan()}


@given(link_faults, ops, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_lossy_link_converges_after_heal_and_pump(faults, trace, pump_every):
    wal = WriteAheadLog()
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("k", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_k", "t", ["k"])
    primary = PrimaryNode(db)
    replica = ReplicaNode()
    injector = FaultInjector(
        FaultPlan([FaultSpec(SHIP_SITE, occ, mode) for occ, mode in faults])
    )
    link = primary.attach_replica(replica, injector=injector)

    live: list = []
    for step, (op, arg, text) in enumerate(trace):
        if op == "insert":
            live.append(db.insert("t", (arg, text)))
        elif op == "delete" and live:
            db.delete("t", live.pop(arg % len(live)))
        elif op == "update" and live:
            target = live[arg % len(live)]
            _, _, new_id = db.update("t", target, v=text)
            live[live.index(target)] = new_id
        if step % pump_every == 0:
            link.heal()
            primary.ship()

    # Drain: each heal+pump consumes scheduled fault occurrences, so a
    # finite plan always runs dry and a clean pump delivers the rest.
    max_occurrence = max((occ for occ, _ in faults), default=0)
    for _ in range(max_occurrence + 2):
        if replica.applied_lsn == wal.last_lsn and not link.partitioned:
            break
        link.heal()
        primary.ship()

    assert replica.applied_lsn == wal.last_lsn
    assert replica.lag == 0
    assert not replica.pending
    assert table_state(replica.database) == table_state(db)
    # The replica's local log is a verbatim copy, record for record.
    assert [r.frame for r in replica.database.wal.records()] == [
        r.frame for r in wal.records()
    ]
