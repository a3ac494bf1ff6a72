"""The partition nemesis drill, integration-sized.

Two runs of the same surgical schedule — an asymmetric
coordinator→primary cut that hides the primary from the coordinator
while clients can still reach everything:

- **lease-gated** (the fix): the deposed primary self-isolates before
  promotion is allowed, so the stale-router zombie probe is *refused*
  and the history checker passes;
- **a zombie built by hand**: the same cluster with the lease check
  unbound from the stale router's gate, so the deposed primary keeps
  serving through it — and the checker *catches* the zombie-read
  window, the regression this drill exists to keep caught.
"""

from __future__ import annotations

import pytest

from repro.bench import nemesis
from repro.check import parse_handle
from repro.faults.partition import PartitionPlan

# Cut only the primary->coordinator direction: the coordinator suspects
# (silence) and eventually promotes; clients meanwhile reach the old
# primary just fine — the exact shape of the zombie-read window.
ZOMBIE_SCHEDULE = "4:cut:coord-primary:up,26:heal:coord-primary:both"


@pytest.fixture(scope="module")
def lease_run():
    return nemesis.run(0, ZOMBIE_SCHEDULE)


class _ZombieCluster(nemesis._Cluster):
    """The drill's cluster, except that the stale router's gate was
    never bound to the original primary's lease: once deposed, that
    primary is a zombie that still answers."""

    def __init__(self):
        super().__init__()
        self.stale_gate.serving_check = None


@pytest.fixture(scope="module")
def legacy_run():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nemesis, "_Cluster", _ZombieCluster)
        return nemesis.run(0, ZOMBIE_SCHEDULE)


class TestLeaseGatedRun:
    def test_all_invariants_hold(self, lease_run):
        assert lease_run.violations == []
        assert lease_run.ok

    def test_failover_happened_after_lease_refusals(self, lease_run):
        assert lease_run.counts["failovers"] >= 1
        # Suspicion fires before the lease expires: the coordinator
        # provably waited the old primary out instead of racing it.
        assert lease_run.counts["promotions_refused_lease"] >= 1

    def test_zombie_probes_refused(self, lease_run):
        assert lease_run.counts["zombie_probe_refusals"] >= 1
        assert lease_run.counts["zombie_probe_serves"] == 0

    def test_isolated_node_refused_real_traffic(self, lease_run):
        assert lease_run.counts["isolated_refusals"] >= 1

    def test_replay_handle_reproduces_schedule(self, lease_run):
        schedule = parse_handle(lease_run.handle)[2]
        assert schedule == PartitionPlan.parse(ZOMBIE_SCHEDULE).describe()


class TestLegacyZombieRegression:
    def test_checker_catches_the_zombie_window(self, legacy_run):
        """With no lease check on its gate the deposed-but-reachable
        primary keeps serving — and the history checker must say so."""
        assert legacy_run.counts["failovers"] >= 1
        assert legacy_run.counts["zombie_probe_serves"] >= 1
        assert any("zombie-read" in v for v in legacy_run.violations)
        assert not legacy_run.ok

    def test_acked_writes_still_survive_without_leases(self, legacy_run):
        """The zombie lies about serving, but semi-sync still protects
        durability: no acked-write-loss flavour violations."""
        assert not any(
            "acked-write-loss" in v or "duplicate-application" in v
            for v in legacy_run.violations
        )


class TestSeededSweepDeterminism:
    def test_generated_schedule_is_stable(self):
        (schedule,) = nemesis.DRILL.points(5)
        assert nemesis.DRILL.points(5) == [schedule]
        first, second = nemesis.run(5, schedule), nemesis.run(5, schedule)
        assert first.handle == second.handle == f"nemesis/5/{schedule}"
        assert first.counts["epochs"] == second.counts["epochs"]
