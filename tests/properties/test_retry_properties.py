"""Property-based retry backoff: the delay is exactly the seeded draw
scaled by the ceiling, never goes negative, and replays exactly.

The invariants the thundering-herd fix rests on:

- for every (policy, attempt, rng draw): ``0 <= delay <= ceiling``
  where ``ceiling = min(MAX_DELAY, base * BACKOFF_FACTOR**attempt)`` —
  jitter may only *shrink* a wait, never extend the worst case;
- the same seed draws the same schedule — a replayed nemesis seed
  retries at the same instants.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.net.client import BACKOFF_FACTOR, MAX_DELAY, RetryPolicy

policies = st.builds(
    RetryPolicy,
    attempts=st.integers(min_value=1, max_value=10),
    base_delay=st.floats(min_value=1e-4, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(policy=policies, attempt=st.integers(min_value=0, max_value=30), seed=st.integers())
def test_jitter_bounded_by_deterministic_ceiling(policy, attempt, seed):
    ceiling = min(MAX_DELAY, policy.base_delay * BACKOFF_FACTOR ** attempt)
    delay = policy.delay(attempt, random.Random(seed))
    assert 0.0 <= delay <= ceiling


@settings(max_examples=100, deadline=None)
@given(policy=policies, attempt=st.integers(min_value=0, max_value=30), seed=st.integers())
def test_delay_is_exactly_the_seeded_draw_of_the_ceiling(policy, attempt, seed):
    ceiling = min(MAX_DELAY, policy.base_delay * BACKOFF_FACTOR ** attempt)
    assert policy.delay(attempt, random.Random(seed)) == (
        random.Random(seed).random() * ceiling
    )


@settings(max_examples=100, deadline=None)
@given(policy=policies, seed=st.integers())
def test_same_seed_replays_identical_schedule(policy, seed):
    first = [policy.delay(i, random.Random(seed)) for i in range(8)]
    second = [policy.delay(i, random.Random(seed)) for i in range(8)]
    assert first == second
