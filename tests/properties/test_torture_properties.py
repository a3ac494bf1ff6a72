"""Property-based torture: random (workload seed, fault point) pairs.

Hypothesis draws a workload seed and a single :class:`FaultSpec`
(site, occurrence, mode) and runs one full torture point — workload,
simulated crash, recovery, invariant battery.  Any failure shrinks
toward the minimal failing schedule (smallest seed, earliest
occurrence, first site/mode in sort order), and the assertion message
carries the exact ``python -m repro.check --replay`` handle.

Also pins down the harness's own contracts: spec/plan serialization
round-trips, invalid schedules are rejected, and a point replays
deterministically (same seed + same spec -> same outcome), which is
what makes every reported divergence reproducible.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.torture import run_point
from repro.faults import FaultMode, FaultPlan, FaultSpec, SITES, modes_for_site

_SITES = sorted(SITES)


@st.composite
def fault_specs(draw, max_occurrence=40):
    site = draw(st.sampled_from(_SITES))
    occurrence = draw(st.integers(1, max_occurrence))
    mode = draw(st.sampled_from(list(modes_for_site(site))))
    return FaultSpec(site, occurrence, mode)


@given(seed=st.integers(0, 7), spec=fault_specs())
@settings(max_examples=25, deadline=None)
def test_any_single_fault_point_recovers(seed, spec):
    """The tentpole property: crash (or fail) anywhere, recover to a
    state the invariant checker accepts.  An occurrence beyond what the
    workload reaches degenerates to a fault-free run, whose final-state
    checks must hold too."""
    result = run_point(seed, spec)
    assert result.ok, (
        f"divergence — replay with: python -m repro.check --replay {result.handle} "
        f"({result.violations})"
    )


@given(seed=st.integers(0, 3), spec=fault_specs(max_occurrence=12))
@settings(max_examples=8, deadline=None)
def test_points_replay_deterministically(seed, spec):
    """Same seed + same spec -> bit-identical outcome.  Without this,
    the printed replay handle would be worthless."""
    assert run_point(seed, spec) == run_point(seed, spec)


@given(spec=fault_specs())
def test_spec_describe_parse_roundtrip(spec):
    assert FaultSpec.parse(spec.describe()) == spec


@given(specs=st.lists(fault_specs(), max_size=4))
def test_plan_json_roundtrip(specs):
    seen = set()
    unique = []
    for spec in specs:
        if (spec.site, spec.occurrence) not in seen:
            seen.add((spec.site, spec.occurrence))
            unique.append(spec)
    plan = FaultPlan(unique)
    assert FaultPlan.from_json(plan.to_json()).describe() == plan.describe()


@given(site=st.sampled_from(_SITES), occurrence=st.integers(-3, 0))
def test_nonpositive_occurrences_rejected(site, occurrence):
    try:
        FaultSpec(site, occurrence, modes_for_site(site)[0])
    except ValueError:
        return
    raise AssertionError("occurrence must be 1-based")


def test_wal_append_error_mode_rejected():
    try:
        FaultSpec("wal.append", 1, FaultMode.ERROR)
    except ValueError:
        return
    raise AssertionError("force-at-append failure must be modeled as a crash")
