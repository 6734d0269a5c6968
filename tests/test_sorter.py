import math
import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeinsertion import (
    PosSequence,
    Schedule,
    SortOutcome,
    Strategy,
    combined_prefix_size,
    combined_sort,
    exact_F,
    exact_G,
    merge_insertion,
    one_two_insertion,
)
from mergeinsertion import sorter
from mergeinsertion.sorter import _prefer_pair, batch_bound
from oracles import one_two_mean_oracle, prefer_pair_table


def test_batch_bounds():
    schedule = Schedule()
    assert [schedule.t(k) for k in range(1, 6)] == [1, 3, 5, 11, 21]


def test_stretched_bounds_strictly_increase():
    for factor in ("1", "1.02", "1.03", "1.04", "1.05", "1.5"):
        schedule = Schedule(Fraction(factor))
        values = [schedule.t(k) for k in range(1, 22)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == 1


def test_factor_domain():
    with pytest.raises(ValueError):
        Schedule(Fraction(99, 100))
    with pytest.raises(ValueError):
        Schedule(Fraction(2))


def test_batches_cover_each_element_once():
    for factor in (Fraction(1), Fraction("1.03")):
        schedule = Schedule(factor)
        for m in range(1, 200):
            seen = []
            for _k, lo, hi in schedule.batches(m):
                seen.extend(range(lo, hi + 1))
            assert sorted(seen) == list(range(2, m + 1))


def test_tiny_inputs():
    assert merge_insertion([]).comparisons == 0
    assert merge_insertion([5]).comparisons == 0
    for perm in ([1, 2], [2, 1]):
        outcome = merge_insertion(perm)
        assert outcome.items == [1, 2]
        assert outcome.comparisons == 1


def test_empty_input_costs_nothing():
    empty = SortOutcome([], 0)
    assert merge_insertion([]) == empty
    assert one_two_insertion([], []) == empty
    assert combined_sort([]) == empty
    with pytest.raises(ValueError):
        combined_prefix_size(0)


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        merge_insertion([1, 2, 1])
    with pytest.raises(ValueError):
        one_two_insertion([1, 2], [2])
    with pytest.raises(ValueError):
        combined_sort([3, 3])


@pytest.mark.parametrize("strategy", ["left", None, 0])
def test_strategy_must_be_a_strategy(strategy):
    # a name is not a rule: it must fail on both the native path and the
    # comparator walk, which would otherwise read it as different rules
    for less in (operator.lt, walk_less):
        with pytest.raises(ValueError, match="Strategy"):
            merge_insertion([2, 1], strategy, less=less)
        with pytest.raises(ValueError, match="Strategy"):
            one_two_insertion([1], [0], strategy, less=less)
        with pytest.raises(ValueError, match="Strategy"):
            combined_sort([], strategy, less=less)


@pytest.mark.parametrize("schedule", [1.03, Fraction(103, 100), "1.03", None], ids=repr)
def test_schedule_must_be_a_schedule(schedule):
    # a bare factor fails by name at every size, not as an AttributeError
    # deep in the batch loop (n >= 2) or not at all (n < 2)
    for keys in ([], [1], [2, 1], list(range(10))):
        with pytest.raises(ValueError, match="Schedule"):
            merge_insertion(keys, Strategy.LEFT, schedule)
        with pytest.raises(ValueError, match="Schedule"):
            combined_sort(keys, Strategy.LEFT, schedule)


def test_unhashable_keys_must_be_distinct_objects():
    a, b = [1], [2]
    with pytest.raises(ValueError):
        merge_insertion([a, b, a])
    with pytest.raises(ValueError):
        one_two_insertion([a], [b, a])
    outcome = merge_insertion([[2], [1], [3]], less=lambda x, y: x[0] < y[0])
    assert outcome.items == [[1], [2], [3]]


def test_n5_distribution():
    counts = [merge_insertion(list(p)).comparisons for p in permutations(range(5))]
    assert Fraction(sum(counts), len(counts)) == Fraction(832, 120)
    assert max(counts) == 7  # ceil(log2(120))


def test_exhaustive_mean_matches_exact_analysis():
    for n in (3, 4, 6):
        counts = [merge_insertion(list(p)).comparisons for p in permutations(range(n))]
        assert Fraction(sum(counts), len(counts)) == exact_F(n)


def test_comparison_count_deterministic():
    perm = [7, 2, 9, 4, 1, 8, 3, 6, 5, 0]
    first = merge_insertion(perm, Strategy.CENTER_RIGHT)
    second = merge_insertion(perm, Strategy.CENTER_RIGHT)
    assert first.comparisons == second.comparisons
    assert first.items == second.items


def test_recurrence_decomposition():
    # mean top-level insertion cost equals the exact insertion-phase
    # average, and the total satisfies the halving recurrence
    for n in range(2, 9):
        total = Fraction(0)
        top_insert = Fraction(0)
        runs = 0
        for perm in permutations(range(n)):
            outcome = merge_insertion(list(perm), collect_insertions=True)
            total += outcome.comparisons
            top_insert += sum(rec[3] for rec in outcome.insertions if rec[0] == 0)
            runs += 1
        assert top_insert / runs == exact_G((n + 1) // 2)
        assert total / runs == n // 2 + exact_F(n // 2) + exact_G((n + 1) // 2)


def test_adversarial_inputs_all_factors():
    n = 2000
    organ_pipe = list(range(0, n, 2)) + list(range(n - 1, 0, -2))
    inputs = [list(range(n)), list(range(n - 1, -1, -1)), organ_pipe]
    for factor in ("1", "1.02", "1.03", "1.04", "1.05"):
        schedule = Schedule(Fraction(factor))
        for data in inputs:
            outcome = merge_insertion(data, Strategy.LEFT, schedule)
            assert outcome.items == sorted(data)


def test_batch_bound_instrumented():
    # with the unstretched schedule every insertion of batch k searches at
    # most 2^k - 1 elements and costs at most k comparisons
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 400)
        perm = list(range(n))
        rng.shuffle(perm)
        outcome = merge_insertion(perm, collect_insertions=True)
        assert outcome.items == sorted(perm)
        for _depth, k, searched, used in outcome.insertions:
            assert searched <= (1 << k) - 1
            assert used <= k


def test_custom_less_callback_is_counted():
    calls = []

    def noisy_less(a, b):
        calls.append((a, b))
        return a < b

    outcome = merge_insertion([3, 1, 4, 0, 2], less=noisy_less)
    assert outcome.items == [0, 1, 2, 3, 4]
    assert len(calls) == outcome.comparisons


@settings(max_examples=120, deadline=None)
@given(
    st.permutations(list(range(48))),
    st.sampled_from(list(Strategy)),
    st.sampled_from(["1", "1.03"]),
)
def test_sortedness_property(perm, strategy, factor):
    schedule = Schedule(Fraction(factor))
    outcome = merge_insertion(perm, strategy, schedule)
    assert outcome.items == sorted(perm)
    assert combined_sort(perm, strategy, schedule).items == sorted(perm)
    assert all_outcomes(perm, strategy, schedule, operator.lt) == all_outcomes(perm, strategy, schedule, walk_less)


def walk_less(a, b):
    return a < b


def all_outcomes(perm, strategy, schedule, less):
    """What each sorter returns for ``perm``; the (1,2)-insertion gets its first half sorted."""
    half = len(perm) // 2
    return (
        merge_insertion(perm, strategy, schedule, less=less, collect_insertions=True),
        combined_sort(perm, strategy, schedule, less=less),
        one_two_insertion(sorted(perm[:half]), perm[half:], strategy, less=less),
    )


SCHEDULES = [Schedule(Fraction(f)) for f in ("1", "3/2", "1.03")]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: str(s.factor))
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_native_order_equals_comparator_walk_small(strategy, schedule):
    # the default less (C bisection plus gap depths) and a wrapped one
    # (the pivot walk) give the same items, counts and insertion records
    rng = random.Random(64)
    for n in range(65):
        perm = list(range(n))
        rng.shuffle(perm)
        native = all_outcomes(perm, strategy, schedule, operator.lt)
        assert native == all_outcomes(perm, strategy, schedule, walk_less), n
        assert all(outcome.items == sorted(perm) for outcome in native)


@pytest.mark.parametrize("n", [1000, 5461, 21845])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_native_order_equals_comparator_walk_large(strategy, n):
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    for schedule in SCHEDULES:
        native = all_outcomes(perm, strategy, schedule, operator.lt)
        assert native == all_outcomes(perm, strategy, schedule, walk_less), schedule
        assert native[0].items == list(range(n))


def distinct_keys(kind, n, rng):
    """``n`` distinct keys of one kind in draw order: not a permutation of range(n)."""
    draw = {
        "int63": lambda: rng.getrandbits(63),
        "negative-float": lambda: -rng.random() * 1e6,
        "str": lambda: format(rng.getrandbits(40), "x"),
    }[kind]
    keys: dict = {}
    while len(keys) < n:
        keys[draw()] = None
    return list(keys)


# around 2t(k): truncated last batches, with and without an odd leftover
BATCH_EDGE_SIZES = [2 * batch_bound(k) + d for k in range(5, 10) for d in range(3)]


@pytest.mark.parametrize("kind", ["int63", "negative-float", "str"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_native_order_equals_comparator_walk_on_general_keys(strategy, kind):
    rng = random.Random(f"{kind}/{strategy.value}")
    for n in BATCH_EDGE_SIZES:
        keys = distinct_keys(kind, n, rng)
        for schedule in SCHEDULES:
            native = all_outcomes(keys, strategy, schedule, operator.lt)
            assert native == all_outcomes(keys, strategy, schedule, walk_less), (n, schedule)
            assert native[0].items == sorted(keys)


def test_no_sort_builds_a_fenwick(monkeypatch):
    # partner positions come from one walk down the chain, for every less
    def no_fenwick(n):
        raise AssertionError("a sort built a Fenwick tree")

    monkeypatch.setattr(sorter, "_Fenwick", no_fenwick)
    for n in (1364, 1365):
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        for less in (operator.lt, walk_less):
            assert merge_insertion(perm, less=less).items == sorted(perm)
            assert merge_insertion(perm, less=less, collect_insertions=True).items == sorted(perm)
            assert combined_sort(perm, less=less).items == sorted(perm)


def zigzag(n):
    """0, n-1, 1, n-2, ...: small and large keys alternate."""
    return [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]


WALK_INPUTS = {
    "sorted": lambda n: list(range(n)),
    "reversed": lambda n: list(range(n - 1, -1, -1)),
    "zigzag": zigzag,
    "random": lambda n: random.Random(n).sample(range(n), n),
}


@pytest.mark.parametrize("less", [operator.lt, walk_less], ids=["default", "custom"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_partner_walk_reads_under_two_per_insertion(monkeypatch, strategy, less):
    # each batch walks down from a_hi once, reading each position at most
    # once, so the partner reads number at most members + hi - lo
    reads = 0
    real_getitem = PosSequence.__getitem__

    def counted_getitem(seq, pos):
        nonlocal reads
        reads += 1
        return real_getitem(seq, pos)

    monkeypatch.setattr(PosSequence, "__getitem__", counted_getitem)
    for kind, make in WALK_INPUTS.items():
        for n in (2, 3, 7, 100, 1365, 1366, 5000):
            keys = make(n)
            for factor in ("1", "103/100", "19/10"):
                reads = 0
                outcome = merge_insertion(keys, strategy, Schedule(Fraction(factor)), less=less, collect_insertions=True)
                assert outcome.items == sorted(keys)
                assert reads <= 2 * len(outcome.insertions), (kind, n, factor)


def test_one_two_empty_rest():
    prefix = PosSequence.from_items([1, 2, 3])
    outcome = one_two_insertion(prefix, [])
    assert outcome.items == [1, 2, 3]
    assert outcome.comparisons == 0


def test_one_two_multi_block_prefix():
    # a PosSequence prefix of several blocks reads like the same items in a list
    prefix = PosSequence.from_items(range(0, 3000, 2))
    assert len(prefix) == 1500 and len(prefix._blocks) > 1
    rest = [2999, 1, 1501, 777, -1, 2001]
    outcome = one_two_insertion(prefix, rest)
    assert outcome.items == sorted(list(range(0, 3000, 2)) + rest)
    assert outcome == one_two_insertion(list(range(0, 3000, 2)), rest)


def test_one_two_single_element():
    outcome = one_two_insertion([1, 3], [2])
    assert outcome.items == [1, 2, 3]
    assert outcome.comparisons <= 2


def test_one_two_sorts_and_mean_matches_oracle():
    # prefix of 4, two fresh elements, every arrangement
    total = Fraction(0)
    runs = 0
    for rest in permutations(range(6), 2):
        prefix = sorted(set(range(6)) - set(rest))
        outcome = one_two_insertion(prefix, list(rest))
        assert outcome.items == list(range(6))
        total += outcome.comparisons
        runs += 1
    assert total / runs == one_two_mean_oracle(4, 2, Strategy.LEFT)


def test_prefer_pair_matches_rational_reference():
    reference = prefer_pair_table(5000)
    assert [_prefer_pair(m) for m in range(5001)] == reference
    assert reference[:3] == [True, True, False]


def test_combined_prefix_sizes():
    assert [combined_prefix_size(n) for n in (1, 2, 4, 5, 9, 10, 11, 21)] == [
        1,
        2,
        2,
        5,
        5,
        10,
        10,
        21,
    ]
    assert combined_prefix_size(10922) == 10922
    with pytest.raises(ValueError):
        combined_prefix_size(0)


def test_combined_equals_plain_at_favourable_sizes():
    # n = 10 is a switch point: the combined algorithm is the batched sort
    rng = random.Random(11)
    for _ in range(200):
        perm = list(range(10))
        rng.shuffle(perm)
        assert combined_sort(perm).comparisons == merge_insertion(perm).comparisons


def test_combined_n12():
    rng = random.Random(13)
    for _ in range(300):
        perm = list(range(12))
        rng.shuffle(perm)
        outcome = combined_sort(perm)
        assert outcome.items == sorted(perm)
    assert combined_sort([1]).comparisons == 0
