import enum
import math
import operator
import os
import random
import threading
from fractions import Fraction
from itertools import permutations

import numpy as np
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
from mergeinsertion.sorter import _RANK_MIN, _earlier_below, _prefer_pair, batch_bound
from mergeinsertion.strategies import Tally
from oracles import earlier_below, one_two_cost_by_values, one_two_mean_oracle, prefer_pair_table


def test_batch_bounds():
    schedule = Schedule()
    assert [schedule.t(k) for k in range(1, 6)] == [1, 3, 5, 11, 21]


def test_stretched_bounds_strictly_increase():
    for factor in ("1", "1.02", "1.03", "1.04", "1.05", "1.5"):
        schedule = Schedule(Fraction(factor))
        values = [schedule.t(k) for k in range(1, 22)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == 1


def test_bounds_are_the_floor_of_the_stretched_bound():
    for factor in ("1", "1.03", "3/2", "19/10", "1999/1000"):
        schedule = Schedule(Fraction(factor))
        for k in range(61):
            assert schedule.t(k) == math.floor(schedule.factor * batch_bound(k)), (factor, k)


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


@pytest.mark.parametrize("n", [5, _RANK_MIN])
def test_one_two_rejects_unsorted_prefix(n):
    # checked on native <, no counted comparison, under the default less only
    assert one_two_insertion([5, 1, 3], [2, 4], less=walk_less).items == [5, 1, 2, 3, 4]
    prefix = list(range(0, 2 * n, 2))
    prefix[1], prefix[2] = prefix[2], prefix[1]
    rest = list(range(1, 2 * n, 2))
    with pytest.raises(ValueError, match="sorted_prefix must be in ascending order"):
        one_two_insertion(prefix, rest)
    with pytest.raises(ValueError, match="sorted_prefix must be in ascending order"):
        one_two_insertion(PosSequence.from_items(prefix), rest)


def test_rank_path_rejects_equal_keys():
    # from _RANK_MIN keys on the default less checks adjacent keys of the
    # native order, so keys that compare equal fail hashable or not
    with pytest.raises(ValueError) as chain_error:
        merge_insertion([1, 2, 1])
    message = f"^{chain_error.value}$"
    a = [3]
    for keys in (
        list(range(_RANK_MIN)) + [7],
        [[i] for i in range(_RANK_MIN)] + [[7]],
        [[i] for i in range(3)] + [a] * 2 + [[i] for i in range(4, _RANK_MIN)],
    ):
        with pytest.raises(ValueError, match=message):
            merge_insertion(keys)
        with pytest.raises(ValueError, match=message):
            combined_sort(keys)
        with pytest.raises(ValueError, match=message):
            one_two_insertion([], keys)
        with pytest.raises(ValueError, match=message):
            one_two_insertion(sorted(keys[:2]), keys[2:])
    distinct = [[i] for i in range(_RANK_MIN)]
    assert merge_insertion(distinct) == merge_insertion(distinct, less=walk_less)


@pytest.mark.parametrize("big", [False, True], ids=["chain", "ranks"])
def test_native_order_checks_keys_at_every_size(big):
    # under the default less the sorted keys must ascend strictly by native <:
    # NaN and equal unhashable keys fail below _RANK_MIN as they do from it on
    pad = [[-i] for i in range(_RANK_MIN, 0, -1)] if big else []
    nan = float("nan")
    floats = [float(-i) for i in range(_RANK_MIN, 0, -1)] if big else []
    for sort in (
        lambda: merge_insertion(floats + [3.0, nan, 1.0, 2.0]),
        lambda: combined_sort(floats + [3.0, nan, 1.0, 2.0]),
        lambda: merge_insertion(pad + [[1], [1], [0]]),
        lambda: combined_sort(pad + [[1], [1], [0]]),
        lambda: one_two_insertion(pad + [[0], [1]], [[1]]),
        lambda: one_two_insertion([], pad + [[0], [1], [1]]),
    ):
        with pytest.raises(ValueError, match="^keys must be pairwise distinct$"):
            sort()
    assert merge_insertion([[2], [0], [1]]).items == [[0], [1], [2]]
    assert merge_insertion([nan]).items[0] is nan


SHARED_LIST = [7]
BIG = 10 ** 30
# distinct keys of one kind, and the keys that repeat a value among them
REPEATS = {
    "one-small-int": (lambda i: i + 10, [7, 7]),
    "one-list-twice": (lambda i: [i + 10], [SHARED_LIST, SHARED_LIST]),
    "equal-big-ints": (lambda i: i + 10, [BIG, int(str(BIG))]),
    "int-and-float": (lambda i: i + 10, [1, 1.0]),
    "one-nan": (float, [math.nan]),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(REPEATS)),
    st.one_of(st.integers(1, 40), st.integers(_RANK_MIN - 4, _RANK_MIN + 4)),
    st.sampled_from(["merge_insertion", "combined_sort", "one_two_insertion"]),
    st.randoms(use_true_random=False),
)
def test_repeated_values_are_rejected_after_the_sort(case, n, sorter_name, rng):
    # the sort runs first and its output fails the neighbour check; no
    # repeated value may trip the engine on the way
    key, repeat = REPEATS[case]
    keys = [key(i) for i in range(n)] + repeat
    rng.shuffle(keys)
    sort = {
        "merge_insertion": merge_insertion,
        "combined_sort": combined_sort,
        "one_two_insertion": lambda keys: one_two_insertion([], keys),
    }[sorter_name]
    with pytest.raises(ValueError, match="^keys must be pairwise distinct$"):
        sort(keys)


def test_float_factor_reads_as_its_decimal():
    assert Schedule(1.2) == Schedule(Fraction("1.2")) == Schedule("1.2")
    assert [Schedule(1.2).t(k) for k in range(2, 12)] == [3, 6, 13, 25, 51, 102, 205, 409, 819, 1638]
    assert Schedule(np.float64(1.03)).factor == Fraction(103, 100)
    with pytest.raises(ValueError):
        Schedule(float("inf"))


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
        "tuple": lambda: (rng.getrandbits(3), format(rng.getrandbits(30), "x")),
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


# on both sides of the size where the default less starts counting from ranks
RANK_EDGE_SIZES = [_RANK_MIN - 1, _RANK_MIN, _RANK_MIN + 1, 2 * _RANK_MIN - 1, 2 * _RANK_MIN + 1, 4 * _RANK_MIN + 1]
RANK_EDGE_SIZES += [2 * batch_bound(k) + d for k in range(5, 12) for d in range(3) if batch_bound(k) > _RANK_MIN]
RANK_SCHEDULES = [Schedule(Fraction(f)) for f in ("1", "1.03", "3/2", "19/10")]


@pytest.mark.parametrize("kind", ["int63", "negative-float", "str", "tuple"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_rank_levels_equal_comparator_walk(strategy, kind):
    rng = random.Random(f"ranks/{kind}/{strategy.value}")
    for n in RANK_EDGE_SIZES:
        keys = distinct_keys(kind, n, rng)
        for schedule in RANK_SCHEDULES:
            native = merge_insertion(keys, strategy, schedule, collect_insertions=True)
            assert native == merge_insertion(keys, strategy, schedule, less=walk_less, collect_insertions=True)
            assert native.items == sorted(keys)
            assert all(x is y for x, y in zip(native.items, sorted(keys)))
            # np.int64 would print differently and change every records digest
            assert type(native.comparisons) is int
            assert all(type(field) is int for record in native.insertions for field in record), (n, schedule)


# 2^17 + 1 keys are the first whose top level holds more than 2^16 b's:
# its 2^16 inserted b's are the widest dominance count on uint32 merge
# keys, and two keys more take it to int64 keys
@pytest.mark.slow
@pytest.mark.parametrize("n", [(1 << 17) + 1, (1 << 17) + 3])
def test_rank_levels_equal_comparator_walk_at_the_merge_key_boundary(n):
    keys = random.Random(n).sample(range(1 << 62), n)
    native = merge_insertion(keys, collect_insertions=True)
    assert native == merge_insertion(keys, less=walk_less, collect_insertions=True)
    assert native.items == sorted(keys)


def thread_starts(monkeypatch):
    """Names of the threads started from here on; each one still starts."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def sort_with_cpus(monkeypatch, cpus, sort, keys, *args, **kwargs):
    monkeypatch.setattr(sorter, "_usable_cpus", lambda: cpus)
    return sort(keys, *args, **kwargs)


def assert_same_sort(one, other):
    assert one == other
    assert all(x is y for x, y in zip(one.items, other.items))


# the worker counts level 0 from _OVERLAP_MIN head keys on; combined_sort's
# head of 21845 keys is moved across the threshold by moving the threshold
@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("factor", ["1", "1.03"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("sort", [merge_insertion, combined_sort], ids=lambda f: f.__name__)
def test_level_count_worker_changes_nothing(monkeypatch, sort, strategy, factor, d):
    if sort is merge_insertion:
        n, head, kwargs = sorter._OVERLAP_MIN + d, sorter._OVERLAP_MIN + d, {"collect_insertions": True}
    else:
        n, head, kwargs = 30000, combined_prefix_size(30000), {}
        monkeypatch.setattr(sorter, "_OVERLAP_MIN", head - d)
    keys = random.Random(f"overlap/{d}").sample(range(1 << 62), n)
    schedule = Schedule(Fraction(factor))
    serial = sort_with_cpus(monkeypatch, 1, sort, keys, strategy, schedule, **kwargs)
    started = thread_starts(monkeypatch)
    overlapped = sort_with_cpus(monkeypatch, 2, sort, keys, strategy, schedule, **kwargs)
    assert len(started) == (head >= sorter._OVERLAP_MIN) == (d >= 0)
    assert_same_sort(overlapped, serial)
    assert overlapped.items == sorted(keys)


@pytest.mark.slow
def test_level_count_worker_changes_nothing_at_the_merge_key_boundary(monkeypatch):
    keys = random.Random(17).sample(range(1 << 62), (1 << 17) + 1)
    serial = sort_with_cpus(monkeypatch, 1, merge_insertion, keys, collect_insertions=True)
    started = thread_starts(monkeypatch)
    assert_same_sort(sort_with_cpus(monkeypatch, 2, merge_insertion, keys, collect_insertions=True), serial)
    assert len(started) == 1


def test_level_count_worker_raises_in_the_caller(monkeypatch):
    class Boom(Exception):
        pass

    real_earlier_below = sorter._earlier_below

    def failing(ranks):
        if threading.current_thread() is not threading.main_thread():
            raise Boom(len(ranks))
        return real_earlier_below(ranks)

    monkeypatch.setattr(sorter, "_earlier_below", failing)
    keys = random.Random(3).sample(range(1 << 40), sorter._OVERLAP_MIN)
    threads = threading.active_count()
    with pytest.raises(Boom) as raised:
        sort_with_cpus(monkeypatch, 2, merge_insertion, keys)
    assert raised.value.args == ((len(keys) + 1) // 2 - 1,)  # level 0 inserts every b but b_1
    assert threading.active_count() == threads


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    keys = random.Random(4).sample(range(1 << 40), sorter._OVERLAP_MIN)
    started = thread_starts(monkeypatch)
    serial = sort_with_cpus(monkeypatch, 1, merge_insertion, keys, collect_insertions=True)
    assert started == []
    monkeypatch.undo()
    # the process's own affinity mask decides, e.g. under ``taskset -c 0``
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sorter._usable_cpus() == cpus
    started = thread_starts(monkeypatch)
    assert_same_sort(merge_insertion(keys, collect_insertions=True), serial)
    assert len(started) == (cpus > 1)


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sorter._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sorter._usable_cpus() == 1


def test_level_count_counts_here_when_no_thread_starts(monkeypatch):
    tried = []

    def no_thread(thread):
        tried.append(thread.name)
        raise RuntimeError("can't start new thread")

    keys = random.Random(5).sample(range(1 << 40), sorter._OVERLAP_MIN + 1)
    serial = sort_with_cpus(monkeypatch, 1, merge_insertion, keys, collect_insertions=True)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    threads = threading.active_count()
    assert_same_sort(sort_with_cpus(monkeypatch, 2, merge_insertion, keys, collect_insertions=True), serial)
    assert len(tried) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("rank_min", [2, 4, 5])
def test_rank_levels_on_every_small_size(monkeypatch, rank_min):
    # every sort of at least rank_min keys is counted from ranks, down to two keys
    monkeypatch.setattr(sorter, "_RANK_MIN", rank_min)
    rng = random.Random(rank_min)
    for n in range(65):
        perm = rng.sample(range(n), n)
        for strategy in Strategy:
            for schedule in RANK_SCHEDULES:
                native = merge_insertion(perm, strategy, schedule, collect_insertions=True)
                assert native == merge_insertion(perm, strategy, schedule, less=walk_less, collect_insertions=True)
                assert native.items == list(range(n))


def assert_one_two_equals_walk(prefix, rest, strategy):
    native = one_two_insertion(prefix, rest, strategy)
    assert native == one_two_insertion(prefix, rest, strategy, less=walk_less)
    assert native.comparisons == one_two_cost_by_values(prefix, tuple(rest), strategy)
    assert native.items == sorted(prefix + rest)


@pytest.mark.parametrize("kind", ["int63", "negative-float", "str"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_rank_one_two_equal_comparator_walk(strategy, kind):
    # combined_sort and one_two_insertion counted from ranks against the walk
    rng = random.Random(f"one-two/{kind}/{strategy.value}")
    # the experiment's sizes run on integer keys and its two factors only,
    # to keep the walk's time down; the (1,2)-phase does not see the factor
    for n in RANK_EDGE_SIZES + ([10922, 16383] if kind == "int63" else []):
        keys = distinct_keys(kind, n, rng)
        for schedule in RANK_SCHEDULES if n < 10922 else RANK_SCHEDULES[:2]:
            native = combined_sort(keys, strategy, schedule)
            assert native == combined_sort(keys, strategy, schedule, less=walk_less), (n, schedule)
            assert all(x is y for x, y in zip(native.items, sorted(keys)))
            assert type(native.comparisons) is int
        half = n // 2
        if n <= 2 * _RANK_MIN + 1:  # the value oracle is quadratic in n
            assert_one_two_equals_walk(sorted(keys[:half]), keys[half:], strategy)
        else:
            native = one_two_insertion(sorted(keys[:half]), keys[half:], strategy)
            assert native == one_two_insertion(sorted(keys[:half]), keys[half:], strategy, less=walk_less), n


@pytest.mark.parametrize("rank_min", [2, 4, 5])
def test_rank_one_two_on_every_small_size(monkeypatch, rank_min):
    # prefixes of 0 and 1 keys run the pair branch first, 2 keys never
    monkeypatch.setattr(sorter, "_RANK_MIN", rank_min)
    rng = random.Random(f"one-two/{rank_min}")
    for n in range(65):
        perm = rng.sample(range(n), n)
        for strategy in Strategy:
            for schedule in RANK_SCHEDULES:
                native = combined_sort(perm, strategy, schedule)
                assert native == combined_sort(perm, strategy, schedule, less=walk_less), (n, schedule)
                assert native.items == list(range(n))
            for p in (0, 1, 2):
                if p <= n:
                    assert_one_two_equals_walk(sorted(perm[:p]), perm[p:], strategy)


def partner_limits(ranks, schedule):
    """j + #{b inserted earlier on the level below a_j} for each insertion of
    one level of ``ranks``, in insertion order, by an O(w^2) count."""
    half = len(ranks) // 2
    pairs = sorted((max(x, y), min(x, y)) for x, y in zip(ranks[:half], ranks[half:2 * half]))
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    if len(ranks) % 2:
        a.append(math.inf)  # the odd leftover's partner is above every key
        b.append(ranks[-1])
    js = [j for _, lo, hi in schedule.batches(len(b)) for j in range(hi, lo - 1, -1)]
    inserted = np.array([b[j - 1] for j in js], dtype=float)
    partner = np.array([a[j - 1] for j in js], dtype=float)
    earlier = np.tri(len(js), k=-1, dtype=bool)  # [t, s]: s was inserted before t
    return (np.array(js) + (earlier & (inserted[None, :] < partner[:, None])).sum(axis=1)).tolist()


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_rank_level_limit_equals_brute_force(strategy):
    # every size to 80 truncates some last batch, with and without an odd leftover
    rng = random.Random(f"limits/{strategy.value}")
    for n in [*range(2, 81), 511, 512, 1025, 2049]:
        ranks = rng.sample(range(n), n)  # every level is a permutation of 0..n-1
        for schedule in RANK_SCHEDULES:
            _, _, limit, _, _ = sorter._rank_level(np.array(ranks, dtype=np.int32), schedule, Tally())
            assert limit.tolist() == partner_limits(ranks, schedule), (n, schedule)


def assert_typed(keys, dtype):
    typed = sorter._typed(keys)
    assert (typed is None) if dtype is None else (typed.dtype == dtype)


def assert_sorts_like_walk(keys):
    native = merge_insertion(keys, collect_insertions=True)
    assert native == merge_insertion(keys, less=walk_less, collect_insertions=True)
    assert all(x is y for x, y in zip(native.items, sorted(keys)))
    assert combined_sort(keys) == combined_sort(keys, less=walk_less)


def test_typed_ranking_takes_ints_in_int64():
    rng = random.Random("int64-edges")
    keys = rng.sample(range(-(1 << 40), 1 << 40), 2 * _RANK_MIN) + [-(1 << 63), (1 << 63) - 1]
    rng.shuffle(keys)
    assert_typed(keys, np.int64)
    assert_sorts_like_walk(keys)
    keys[rng.randrange(len(keys))] = 1 << 63
    assert_typed(keys, None)
    assert_sorts_like_walk(keys)


def test_typed_ranking_takes_floats():
    rng = random.Random("floats")
    keys = [rng.uniform(-1e300, 1e300) for _ in range(2 * _RANK_MIN)] + [math.inf, -math.inf, 5e-324, 0.0]
    rng.shuffle(keys)
    assert_typed(keys, np.float64)
    assert_sorts_like_walk(keys)


def test_mixed_ints_and_floats_take_the_object_sort():
    # 2**53 + 1 and 2.0**53 differ natively but are the same float64
    rng = random.Random("mixed")
    keys = [2 ** 53 + 1, 2.0 ** 53] + rng.sample(range(1 << 52), _RANK_MIN) + [rng.random() for _ in range(_RANK_MIN)]
    rng.shuffle(keys)
    assert_typed(keys, None)
    outcome = merge_insertion(keys)
    assert outcome.items == sorted(keys)
    assert outcome.items.index(2.0 ** 53) + 1 == outcome.items.index(2 ** 53 + 1)
    assert_sorts_like_walk(keys)


def test_int_subclasses_and_numpy_scalars_take_the_object_sort():
    rng = random.Random("subclasses")
    big = enum.IntEnum("Big", {f"k{i}": i for i in range(_RANK_MIN + 3)})
    for keys in (
        [False, True] + list(range(2, _RANK_MIN + 3)),
        list(big),
        [np.int64(x) for x in rng.sample(range(1 << 40), _RANK_MIN + 3)],
    ):
        rng.shuffle(keys)
        assert_typed(keys, None)
        assert_sorts_like_walk(keys)


EQUAL_PAIRS = pytest.mark.parametrize("pair", [[math.nan], [-0.0, 0.0], [7, 7]], ids=["nan", "signed-zeros", "equal-ints"])


def typed_keys_with(pair: list) -> list:
    rng = random.Random("typed-equal")
    keys = [float(x) if isinstance(pair[0], float) else x for x in rng.sample(range(1, 1 << 20), _RANK_MIN)] + pair
    rng.shuffle(keys)
    return keys


def assert_every_sorter_rejects(keys):
    for sort in (merge_insertion, combined_sort, lambda keys: one_two_insertion([], keys)):
        with pytest.raises(ValueError, match="^keys must be pairwise distinct$"):
            sort(keys)


@EQUAL_PAIRS
def test_typed_ranking_rejects_equal_keys(pair):
    keys = typed_keys_with(pair)
    assert sorter._typed(keys) is not None
    assert_every_sorter_rejects(keys)


@EQUAL_PAIRS
def test_object_ranking_rejects_the_same_keys(pair, monkeypatch):
    # the typed route checks the sorted int64/float64 array, the object
    # route the sorted objects; both must reject what native < rejects
    keys = typed_keys_with(pair)
    monkeypatch.setattr(sorter, "_typed", lambda data: None)
    assert_every_sorter_rejects(keys)


def dense_ranks(values):
    """Each value's rank among ``values``, as the int32 permutation _earlier_below takes."""
    ranks = np.empty(len(values), dtype=np.int32)
    ranks[np.argsort(np.array(values, dtype=np.int64))] = np.arange(len(values))
    return ranks


@pytest.mark.parametrize("w", [0, 1, 2, 3, 7, 8, 9, 100, 1025])
def test_earlier_below_equals_brute_force(w):
    values = random.Random(w).sample(range(3 * w + 1), w)
    want = [sum(values[s] < values[t] for s in range(t)) for t in range(w)]
    assert _earlier_below(dense_ranks(values)).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), unique=True, max_size=300))
def test_earlier_below_property(values):
    want = [sum(v < values[t] for v in values[:t]) for t in range(len(values))]
    assert _earlier_below(dense_ranks(values)).tolist() == want


def test_earlier_below_equals_fenwick_on_every_small_width():
    rng = random.Random("earlier-below")
    for w in range(1026):
        ranks = rng.sample(range(w), w)
        out = _earlier_below(np.array(ranks, dtype=np.int32))
        assert out.dtype == np.int32
        assert out.tolist() == earlier_below(ranks), w


# merge keys take 2 * ceil(log2 w) bits: uint32 up to w = 2^16, wider above
@pytest.mark.parametrize("w", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_earlier_below_equals_fenwick_at_the_key_width_boundary(w, dtype):
    ranks = random.Random(w).sample(range(w), w)
    out = _earlier_below(np.array(ranks, dtype=dtype))
    assert out.dtype == dtype
    assert out.tolist() == earlier_below(ranks)


def test_rank_levels_build_no_chain(monkeypatch):
    # with the default less a sort of _RANK_MIN keys or more inserts into no
    # PosSequence; a custom less inserts every key it binary-inserts
    calls = 0
    real_insert = PosSequence.insert

    def counted_insert(seq, pos, item):
        nonlocal calls
        calls += 1
        real_insert(seq, pos, item)

    monkeypatch.setattr(PosSequence, "insert", counted_insert)
    keys = random.Random(14).sample(range(1 << 20), 1 << 14)
    outcome = merge_insertion(keys, collect_insertions=True)
    assert calls == 0
    calls = 0
    assert merge_insertion(keys, less=walk_less, collect_insertions=True) == outcome
    assert calls == len(outcome.insertions)
    # the (1,2)-phase builds no chain either
    calls = 0
    combined = combined_sort(keys)
    assert calls == 0
    calls = 0
    one_two = one_two_insertion([], keys)
    assert calls == 0
    assert combined == combined_sort(keys, less=walk_less)
    assert one_two == one_two_insertion([], keys, less=walk_less)


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
    # once, so the partner reads number at most members + hi - lo; C bisect
    # reads the chain through __getitem__ too, so reads inside
    # binary_insert (the gap search) are not counted
    reads = 0
    searching = False
    real_getitem = PosSequence.__getitem__
    real_binary_insert = sorter.binary_insert

    def counted_getitem(seq, pos):
        nonlocal reads
        reads += not searching
        return real_getitem(seq, pos)

    def uncounted_binary_insert(*args, **kwargs):
        nonlocal searching
        searching = True
        try:
            return real_binary_insert(*args, **kwargs)
        finally:
            searching = False

    monkeypatch.setattr(PosSequence, "__getitem__", counted_getitem)
    monkeypatch.setattr(sorter, "binary_insert", uncounted_binary_insert)
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
    # a PosSequence prefix reads like the same items in a list
    prefix = PosSequence.from_items(range(0, 3000, 2))
    assert len(prefix) == 1500
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
    assert reference == [m < 2 for m in range(5001)]


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
    # the closed form against the definition's search
    k = 0
    for n in range(1, 1 << 14):
        while (1 << (k + 3)) // 3 <= n:
            k += 1
        assert combined_prefix_size(n) == (1 << (k + 2)) // 3, n
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
