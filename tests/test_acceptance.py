"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete; several criteria run seeded experiments and take a few
minutes each.
"""

import math
import statistics
from fractions import Fraction
from itertools import permutations

import pytest

from mergeinsertion import (
    InsertionState,
    Schedule,
    Strategy,
    c_of_x,
    combined_sort,
    cost,
    cost_insert,
    exact_F,
    lower_bound_log_factorial,
    mean_Y,
    merge_insertion,
    numeric_upper_bound_F,
    one_two_insertion,
    p_X,
    p_Y,
)
from mergeinsertion.bounds import _binomial_approx_p_exact
from mergeinsertion.harness import paired_counts
from mergeinsertion.probability import _y_tilde, _y_tilde_closed, batch_width, distribution_Y
from mergeinsertion.sorter import batch_bound, combined_prefix_size
from oracles import batch_outcomes, brute_cost, initial_segments, oracle_mean_Y, oracle_p_X, oracle_p_Y

TABLE_AVG_TIMES_FACTORIAL = {
    1: 0,
    2: 2,
    3: 16,
    4: 112,
    5: 832,
    6: 6912,
    7: 62784,
    8: 623232,
    9: 6743808,
    10: 79292160,
    11: 1013736960,
    12: 13921182720,
    13: 204489999360,
    14: 3199119114240,
    15: 53153472153600,
}


def _mean_diff_z(a, b):
    """Mean of a-b and its z score under a paired design."""
    diffs = [x - y for x, y in zip(a, b)]
    mean = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(len(diffs))
    return mean, (mean / se if se else math.inf)


def test_c01_exact_average_table():
    for n, expected in TABLE_AVG_TIMES_FACTORIAL.items():
        scaled = exact_F(n) * math.factorial(n)
        assert scaled == expected, (n, scaled, expected)
    print("PASS 1: exact_F(n)*n! reproduces all fifteen published values exactly")


def test_c02_position_probability_table():
    assert p_X(4, 1, 0) == Fraction(1, 11)
    assert p_X(4, 2, 11) == Fraction(1, 13)
    assert p_X(4, 6, 15) == Fraction(1, 21)
    assert p_X(4, 1, 12) == 0
    # full table for batch 4, rebuilt via the one-step column recursion
    t = batch_bound(3)
    column = {j: Fraction(1, 2 * t + 1) if j <= 2 * t else Fraction(0) for j in range(16)}
    for i in range(1, 7):
        if i > 1:
            carry = Fraction(2 * t + 2 * i - 2, 2 * t + 2 * i - 1)
            nxt = {}
            for j in range(16):
                if j < 2 * t + i - 1:
                    nxt[j] = carry * column[j]
                elif j == 2 * t + i - 1:
                    nxt[j] = Fraction(1, 2 * t + 2 * i - 1)
                else:
                    nxt[j] = Fraction(0)
            column = nxt
        for j in range(16):
            assert p_X(4, i, j) == column[j], (i, j)
    print("PASS 2: p_X(4, i, j) matches every entry of the k=4 position table exactly")


def test_c03_brute_force_oracles():
    for k in (2, 3):
        outcomes = batch_outcomes(k)
        for i in range(1, batch_width(k) + 1):
            for j in range(1 << k):
                assert p_X(k, i, j) == oracle_p_X(outcomes, k, i, j)
                assert p_Y(k, i, j) == oracle_p_Y(outcomes, k, i, j)
            assert mean_Y(k, i) == oracle_mean_Y(outcomes, k, i)
    for s, e in ((1, 3), (3, 5)):
        path, leaves = brute_cost(initial_segments(s, e), Strategy.LEFT)
        assert cost(s, e) == Fraction(path, leaves)
    states = [
        (2,),
        (6,),
        (12,),
        (2, 0),
        (4, 1),
        (6, 0, 0),
        (2, 1, 0, 1),
        (8, 0, 1),
        (3, 3, 3),
        (10, 0, 0),
        (4, 2, 0, 0),
    ]
    for q in states:
        state = InsertionState(q)
        assert state.chain_elements <= 12
        segments = tuple(tuple((s, r) for r in range(size)) for s, size in enumerate(q))
        path, leaves = brute_cost(segments, Strategy.LEFT)
        got = cost_insert(state)
        assert (got.path_length, got.leaves) == (path, leaves), q
    print("PASS 3: p_X / p_Y / mean_Y / cost match uncollapsed enumeration exactly")


def test_c04_recurrence_equals_closed_form():
    for k in range(2, 8):
        t = batch_bound(k - 1)
        width = batch_width(k)
        for i in range(1, width + 1):
            for q in range(0, width - i + 1):
                for j in range(0, q + 1):
                    assert _y_tilde(t + i, q)[j] == _y_tilde_closed(t + i, q, j), (k, i, q, j)
    print("PASS 4: length-helper recurrence equals its closed form for every k <= 7")


def test_c05_linear_term_floor():
    grid = 100_000
    best = math.inf
    best_x = None
    for step in range(grid):
        x = step / grid
        value = c_of_x(x)
        if value < best:
            best, best_x = value, x
    assert best >= 1.4005, best
    assert 0.55 <= best_x <= 0.65, best_x
    print(f"PASS 5: min c(x) = {best:.6f} >= 1.4005 with minimizer {best_x:.3f} in [0.55, 0.65]")


def test_c06_sandwich():
    for n in range(1, 21):
        lower = lower_bound_log_factorial(n)
        middle = float(exact_F(n))
        upper = numeric_upper_bound_F(n)
        assert lower <= middle, n
        assert middle <= upper + 1e-9, n
    print("PASS 6: log2(n!) <= exact_F(n) <= numeric upper bound for all n <= 20")


def test_c07_binomial_cdf_dominance():
    for k in range(2, 9):
        u = batch_width(k) // 2
        table = distribution_Y(k, u)
        approx_cdf = Fraction(0)
        exact_cdf = Fraction(0)
        for j in range(1 << k):
            approx_cdf += _binomial_approx_p_exact(k, j)
            exact_cdf += table[j]
            assert float(approx_cdf) <= float(exact_cdf) + 1e-9, (k, j)
    print("PASS 7: binomial stand-in CDF never exceeds the exact one for k <= 8")


@pytest.mark.slow
def test_c08_monte_carlo_agreement():
    for n in range(1, 9):
        counts = [merge_insertion(list(p)).comparisons for p in permutations(range(n))]
        assert Fraction(sum(counts), len(counts)) == exact_F(n), n
    n, trials = 15, 100_000
    (counts,) = paired_counts(n, trials, 2024, [lambda p: merge_insertion(p).comparisons])
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(trials)
    exact = float(exact_F(15))
    assert abs(mean - exact) <= 3 * se, (mean, exact, se)
    print(
        f"PASS 8: exhaustive means equal exact_F for n <= 8; sampled n=15 mean {mean:.4f} "
        f"within 3 SE ({3 * se:.4f}) of {exact:.4f}"
    )


@pytest.mark.slow
def test_c09_left_beats_right():
    trials = 1000
    for n in (1 << 10, 1 << 11, 1 << 12):
        left, right = paired_counts(
            n,
            trials,
            101,
            [
                lambda p: merge_insertion(p, Strategy.LEFT).comparisons,
                lambda p: merge_insertion(p, Strategy.RIGHT).comparisons,
            ],
        )
        gain, z = _mean_diff_z(right, left)
        assert gain > 0, n
        assert z >= 3, (n, z)
        print(f"PASS 9 (n={n}): left beats right by {gain / n:.5f} per element, z={z:.1f}")


@pytest.mark.slow
def test_c10_factor_improvement():
    n, trials = 21845, 200
    plain, stretched = paired_counts(
        n,
        trials,
        103,
        [
            lambda p: merge_insertion(p).comparisons,
            lambda p: merge_insertion(p, Strategy.LEFT, Schedule(Fraction("1.03"))).comparisons,
        ],
    )
    gain, z = _mean_diff_z(plain, stretched)
    assert gain / n >= 0.001, gain / n
    assert z >= 3, z
    print(f"PASS 10: factor 1.03 saves {gain / n:.5f} comparisons per element at n={n} (z={z:.1f})")


@pytest.mark.slow
def test_c11_combined_algorithm():
    n_switch = combined_prefix_size(10922)
    assert n_switch == 10922
    mi, comb = paired_counts(
        10922,
        40,
        107,
        [
            lambda p: merge_insertion(p).comparisons,
            lambda p: combined_sort(p).comparisons,
        ],
    )
    assert mi == comb  # at a switch point the combined algorithm is the batched sort
    mid = (10922 + 21845) // 2
    mi_mid, comb_mid = paired_counts(
        mid,
        80,
        109,
        [
            lambda p: merge_insertion(p).comparisons,
            lambda p: combined_sort(p).comparisons,
        ],
    )
    gain, z = _mean_diff_z(mi_mid, comb_mid)
    assert gain > 0
    assert z >= 3, z
    print(
        f"PASS 11: combined == batched sort at n=10922; at n={mid} combined saves "
        f"{gain / mid:.5f} per element (z={z:.1f})"
    )


def test_c12_property_suite():
    import random

    rng = random.Random(0xACCE97)
    conf_mi = [(s, f) for s in Strategy for f in ("1", "1.03")]
    cases_per_config = 10_000 // (len(conf_mi) * 2 + len(Strategy))
    checked = 0
    for strategy, factor in conf_mi:
        schedule = Schedule(Fraction(factor))
        for _ in range(cases_per_config):
            n = rng.randrange(1, 513)
            perm = list(range(n))
            rng.shuffle(perm)
            collect = factor == "1"
            outcome = merge_insertion(perm, strategy, schedule, collect_insertions=collect)
            assert outcome.items == sorted(perm)
            if collect:
                for _depth, k, searched, used in outcome.insertions:
                    assert searched <= (1 << k) - 1
                    assert used <= k
            outcome = combined_sort(perm, strategy, schedule)
            assert outcome.items == sorted(perm)
            checked += 2
    for strategy in Strategy:
        for _ in range(cases_per_config):
            n = rng.randrange(1, 513)
            values = list(range(n))
            rng.shuffle(values)
            split = rng.randrange(0, n + 1)
            prefix = sorted(values[:split])
            outcome = one_two_insertion(prefix, values[split:], strategy)
            assert outcome.items == sorted(values)
            checked += 1
    assert checked >= 10_000
    print(f"PASS 12: {checked} randomized sorts stayed sorted, permutation-true, batch-bounded")
