"""The regular family's pairing attempt draws exactly ``rng.shuffle``'s stream.

:func:`repro.graphs.generators._pairing_attempt` plays the shuffle of
the configuration model's stub list without building the list, checks
stub pairs from the end as they become final, and at the first
collision only draws the rest of the shuffle.  The reference here is
the attempt written the direct way: build the ordered stub list,
``rng.shuffle`` it, check pairs from the front.  Every test compares the
RNG state afterwards, so a draw made or skipped in error fails it even
when the graph happens to agree.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import reference
from repro.graphs.generators import _pairing_attempt, random_regular_graph
from repro.graphs.ports import PortModel
from repro.runtime.plan import ExecutionPlan


def shuffled_stubs(n: int, degree: int, rng: random.Random) -> list[int]:
    stubs = [v for v in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    return stubs


def reference_attempt(n: int, degree: int, rng: random.Random) -> list[int] | None:
    """One attempt the direct way: the sorted arc keys, or ``None`` on a collision."""
    stubs = shuffled_stubs(n, degree, rng)
    seen: set[int] = set()
    keys = []
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v or u * n + v in seen:
            return None
        seen.update((u * n + v, v * n + u))
        keys += (u * n + v, v * n + u)
    return sorted(keys)


def first_collision_from_the_end(stubs: list[int], n: int) -> int | None:
    """The index ``p`` of the first colliding pair ``(2p, 2p + 1)``, checked from the end."""
    seen: set[int] = set()
    for p in range(len(stubs) // 2 - 1, -1, -1):
        u, v = stubs[2 * p], stubs[2 * p + 1]
        if u == v or u * n + v in seen:
            return p
        seen.update((u * n + v, v * n + u))
    return None


def attempts_until_simple(n: int, degree: int, seed: int, cap: int = 200) -> int | None:
    rng = random.Random(seed)
    for attempt in range(1, cap + 1):
        if reference_attempt(n, degree, rng) is not None:
            return attempt
    return None


CASES = {
    # Where the attempt's check from the end stops.
    "fails-at-first-pair-checked": lambda p, pairs: p == pairs - 1,
    "fails-in-the-middle": lambda p, pairs: p is not None and 0 < p < pairs - 1,
    "fails-at-stubs-0-and-1": lambda p, pairs: p == 0,
    "simple": lambda p, pairs: p is None,
}


def seed_for(n: int, degree: int, case: str) -> int:
    """The first seed whose shuffled stub list falls under ``case``."""
    pairs = n * degree // 2
    for seed in range(20_000):
        stubs = shuffled_stubs(n, degree, random.Random(seed))
        if CASES[case](first_collision_from_the_end(stubs, n), pairs):
            return seed
    raise AssertionError(f"no seed below 20000 gives {case} at n={n}, d={degree}")


class TestOneAttempt:
    # Stub counts n·d just below, at and just above 64 and 256.
    @pytest.mark.parametrize(
        "n,degree",
        [(31, 2), (16, 4), (22, 3), (127, 2), (64, 4), (86, 3)],
        ids=["62", "64", "66", "254", "256", "258"],
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_state_and_arcs_equal_the_shuffled_list(self, n, degree, case):
        seed = seed_for(n, degree, case)
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        want = reference_attempt(n, degree, old_rng)
        keys = array("q")
        simple = _pairing_attempt(n, degree, new_rng, keys.append)
        assert new_rng.getstate() == old_rng.getstate()
        assert simple is (case == "simple")
        assert (sorted(keys) if simple else None) == want

    def test_stub_count_two(self):
        for seed in range(8):
            old_rng, new_rng = random.Random(seed), random.Random(seed)
            keys = array("q")
            assert _pairing_attempt(2, 1, new_rng, keys.append)
            assert sorted(keys) == reference_attempt(2, 1, old_rng) == [1, 2]
            assert new_rng.getstate() == old_rng.getstate()


def assert_same_instance(n: int, degree: int, seed: int) -> None:
    """Graph, plan buffers and RNG state equal the frozen reference's."""
    old_rng, new_rng = random.Random(seed), random.Random(seed)
    old = reference.random_regular_graph(n, degree, old_rng)
    new = random_regular_graph(n, degree, new_rng)
    assert new_rng.getstate() == old_rng.getstate()
    assert new.name == old.name
    assert [new.neighbors(v) for v in new.vertices] == [
        old.neighbors(v) for v in old.vertices
    ]
    buffers = reference.reference_plan_buffers(old, None, PortModel.KT1)
    plan = ExecutionPlan.compile(new)
    assert bytes(plan.neighbor_offsets) == bytes(buffers["offsets"])
    assert bytes(plan.neighbor_indices) == bytes(buffers["indices"])
    assert bytes(plan.degrees) == bytes(buffers["degrees"])
    assert bytes(array("q", plan.ids)) == bytes(buffers["ids"])


class TestWholeBuild:
    # At these degrees an attempt succeeds with probability about
    # exp(-(d² - 1) / 4): all 200 fail, and the fallback's swaps run.
    @pytest.mark.parametrize("n,degree,seed", [(120, 36, 0), (200, 53, 1)])
    def test_dense_every_attempt_fails(self, n, degree, seed):
        assert_same_instance(n, degree, seed)

    @pytest.mark.parametrize("n,degree,seed", [(40, 5, 21), (24, 6, 24)])
    def test_sparse_a_late_attempt_succeeds(self, n, degree, seed):
        assert 150 <= attempts_until_simple(n, degree, seed) <= 200
        assert_same_instance(n, degree, seed)


@st.composite
def regular_points(draw):
    n = draw(st.integers(2, 20))
    degree = draw(st.integers(1, n - 1))
    if n * degree % 2:
        degree -= 1 if degree > 1 else -1
    return n, degree, draw(st.integers(0, 2**32 - 1))


# The example count comes from the active profile: Hypothesis's default
# in tier-1, ten times that under HYPOTHESIS_PROFILE=deep.
@settings(derandomize=True, deadline=None)
@given(regular_points())
def test_every_small_instance_equals_the_reference(point):
    assert_same_instance(*point)
