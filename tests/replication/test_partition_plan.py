"""The partition nemesis plan: determinism, replay handles, quiesce."""

import pytest

from repro.faults.partition import (
    Nemesis,
    PARTITION_LINKS,
    PartitionEvent,
    PartitionPlan,
)


class TestPartitionEvent:
    def test_describe_parse_roundtrip(self):
        event = PartitionEvent(12, "cut", "coord-primary", "up")
        assert PartitionEvent.parse(event.describe()) == event

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionEvent(-1, "cut", "coord-primary")
        with pytest.raises(ValueError):
            PartitionEvent(0, "sever", "coord-primary")
        with pytest.raises(ValueError):
            PartitionEvent(0, "cut", "nonsense-link")
        with pytest.raises(ValueError):
            PartitionEvent(0, "cut", "coord-primary", "sideways")


class TestPartitionPlan:
    def test_same_seed_same_plan(self):
        a = PartitionPlan.generate(7, 80)
        b = PartitionPlan.generate(7, 80)
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        assert PartitionPlan.generate(0, 80).describe() != (
            PartitionPlan.generate(1, 80).describe()
        )

    def test_describe_parse_roundtrip(self):
        plan = PartitionPlan.generate(3, 80)
        replayed = PartitionPlan.parse(plan.describe())
        assert replayed.describe() == plan.describe()
        assert list(replayed) == list(plan)

    def test_empty_plan_roundtrip(self):
        assert PartitionPlan.parse(PartitionPlan().describe()).describe() == (
            "<no events>"
        )

    def test_quiesce_tail_is_event_free(self):
        for seed in range(5):
            plan = PartitionPlan.generate(seed, 60, quiesce=15)
            assert all(event.step <= 45 for event in plan)
            # Every cut is healed by the horizon: pair the transitions.
            open_cuts = set()
            for event in plan:
                if event.action == "cut":
                    open_cuts.add(event.link)
                else:
                    open_cuts.discard(event.link)
            assert not open_cuts

    def test_steps_must_exceed_quiesce(self):
        with pytest.raises(ValueError):
            PartitionPlan.generate(0, 10, quiesce=10)

    def test_asymmetric_cuts_only_on_control_link(self):
        for seed in range(8):
            for event in PartitionPlan.generate(seed, 120):
                if event.link != "coord-primary":
                    assert event.direction == "both"


class TestNemesis:
    def test_fires_in_step_order_and_once(self):
        plan = PartitionPlan(
            [
                PartitionEvent(2, "cut", "coord-primary", "up"),
                PartitionEvent(5, "heal", "coord-primary"),
                PartitionEvent(3, "cut", "primary-replica"),
            ]
        )
        calls = []
        nemesis = Nemesis(plan)
        nemesis.register(
            "coord-primary",
            lambda d: calls.append(("cut", "cp", d)),
            lambda d: calls.append(("heal", "cp", d)),
        )
        nemesis.register(
            "primary-replica",
            lambda d: calls.append(("cut", "pr", d)),
            lambda d: calls.append(("heal", "pr", d)),
        )
        assert [e.step for e in nemesis.advance_to(3)] == [2, 3]
        assert calls == [("cut", "cp", "up"), ("cut", "pr", "both")]
        nemesis.advance_to(3)  # idempotent: nothing re-fires
        assert len(calls) == 2
        nemesis.advance_to(99)
        assert calls[-1] == ("heal", "cp", "both")
        assert len(nemesis.fired) == 3

    def test_unregistered_link_is_noop(self):
        plan = PartitionPlan([PartitionEvent(0, "cut", "client-server")])
        nemesis = Nemesis(plan)
        nemesis.advance_to(0)  # no registration, no crash
        assert nemesis.fired == []

    def test_unknown_link_registration_rejected(self):
        nemesis = Nemesis(PartitionPlan())
        with pytest.raises(ValueError):
            nemesis.register("carrier-pigeon", lambda d: None, lambda d: None)

    def test_heal_all(self):
        healed = []
        nemesis = Nemesis(PartitionPlan())
        for link in PARTITION_LINKS:
            nemesis.register(
                link, lambda d: None, lambda d, link=link: healed.append(link)
            )
        nemesis.heal_all()
        assert sorted(healed) == sorted(PARTITION_LINKS)
