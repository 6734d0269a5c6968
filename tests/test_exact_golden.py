"""Golden values of the exact analysis, pinned.

For each pivot strategy this pins the sha256 of the integers
F(n) * n! for n = 1..60 and for n = 1..148, the paper's exact range,
the same digest for n = 1..400, the CLI's limit, under ``LEFT`` (a slow
test), and the exact (path length, leaf count) of the
collapsed decision tree for a fixed list of insertion states, evaluated
with a fresh caller-supplied memo. A change to how ``_cost`` keys,
stores or walks its states must leave every value untouched.

The table was recorded while ``_cost`` memoized its states under
``(q, strategy)`` tuples, and every value held unchanged both under the
packed-integer keys that replaced them and after the return to tuple
keys. The 1..148 digests were recorded from the member sum that summed
one ``Fraction`` per (member, z) and rebuilt each member's rank laws
from scratch, and pin the integer member sums that replaced it. The
1..400 digest was recorded while every position law was kept per
(s, i), and pins the per-strategy urns whose laws are dropped once
summed.
``python tests/test_exact_golden.py`` (with ``src``
on ``PYTHONPATH``) prints the current values in the same source form,
for a change that is meant to alter them.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from mergeinsertion import InsertionState, Strategy, cost, cost_insert, exact_analysis, exact_F, exact_G
from mergeinsertion.exact_analysis import _cost

N_MAX = 60
N_MAX_PAPER = 148
N_MAX_REACH = 400

STATES = (
    (2,),
    (4, 1),
    (2, 0, 1),
    (6, 0, 0),
    (3, 3, 3),
    (8, 0, 1, 2),
    (10, 0, 0, 0, 0),
    (0, 5, 0, 2, 1),
    (14, 0, 0, 0, 0, 0, 0),
    (1, 2, 3, 4, 5, 6),
)


def scaled(n: int, strategy: Strategy) -> int:
    """F(n) * n!, which must be an integer."""
    value = exact_F(n, strategy) * math.factorial(n)
    assert value.denominator == 1
    return value.numerator


def digest(values: list[int]) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def scaled_digest(strategy: Strategy, n_max: int = N_MAX) -> str:
    """sha256 of [F(n) * n! for n in 1..n_max] under one strategy."""
    return digest([scaled(n, strategy) for n in range(1, n_max + 1)])


EXPECTED_SCALED = {
    'center-left': 'af33c7917e9295c7a690099d307ddfebda00b6c37b7535e52f753fe24ff96e78',
    'center-right': 'fc753d657ca6c499ac8e30bf3f3c5b18783a08aa0db460c950c535736a34f249',
    'left': '4da35bfc4f8d2e7068724000c8e87433cfdd82c30c14664bc217299eef0ad268',
    'right': '283007c80ce248e51121c547efb79542bbe59ed347c8c0950bb3d1cfb7cd2e7a',
}

EXPECTED_SCALED_PAPER = {
    'center-left': '526be08e151add23128c615f8c082351fdb77ee48583ec5e8993cc4498809b91',
    'center-right': '1db0e5591fec685eae9ffab8ef94aad066c0d890f0e5c27c867182c1400aaadd',
    'left': '93b67b6be41a335d01acbff3cb9571cc7a313cb62e729727f00730db7c58e058',
    'right': '304c8888a4ad78c38cc2189c3ecd269e246a1c24db319d1bfed9e732f7fc1b5c',
}

EXPECTED_SCALED_REACH_LEFT = 'fefe339fda70f0b85d58d7e9f744a403f997da608e2a2eb1d2d90a69f5209d7d'

EXPECTED_COST = {
    'center-left': {
        (2,): (5, 3),
        (4, 1): (218, 40),
        (2, 0, 1): (851, 120),
        (6, 0, 0): (6612, 693),
        (3, 3, 3): (4608, 504),
        (8, 0, 1, 2): (370856, 24948),
        (10, 0, 0, 0, 0): (13554773, 692835),
        (0, 5, 0, 2, 1): (275884, 19040),
        (14, 0, 0, 0, 0, 0, 0): (49119071175, 1579591125),
        (1, 2, 3, 4, 5, 6): (36294060, 1723392),
    },
    'center-right': {
        (2,): (5, 3),
        (4, 1): (219, 40),
        (2, 0, 1): (859, 120),
        (6, 0, 0): (6648, 693),
        (3, 3, 3): (4638, 504),
        (8, 0, 1, 2): (371802, 24948),
        (10, 0, 0, 0, 0): (13585467, 692835),
        (0, 5, 0, 2, 1): (283027, 19040),
        (14, 0, 0, 0, 0, 0, 0): (49250317005, 1579591125),
        (1, 2, 3, 4, 5, 6): (36782796, 1723392),
    },
    'left': {
        (2,): (5, 3),
        (4, 1): (218, 40),
        (2, 0, 1): (845, 120),
        (6, 0, 0): (6612, 693),
        (3, 3, 3): (4584, 504),
        (8, 0, 1, 2): (370818, 24948),
        (10, 0, 0, 0, 0): (13554773, 692835),
        (0, 5, 0, 2, 1): (275473, 19040),
        (14, 0, 0, 0, 0, 0, 0): (49068077625, 1579591125),
        (1, 2, 3, 4, 5, 6): (36067072, 1723392),
    },
    'right': {
        (2,): (5, 3),
        (4, 1): (219, 40),
        (2, 0, 1): (868, 120),
        (6, 0, 0): (6648, 693),
        (3, 3, 3): (4656, 504),
        (8, 0, 1, 2): (372329, 24948),
        (10, 0, 0, 0, 0): (13586683, 692835),
        (0, 5, 0, 2, 1): (283974, 19040),
        (14, 0, 0, 0, 0, 0, 0): (49295494755, 1579591125),
        (1, 2, 3, 4, 5, 6): (36916728, 1723392),
    },
}


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_scaled_averages_match_golden(strategy):
    assert scaled_digest(strategy) == EXPECTED_SCALED[strategy.value]


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_scaled_averages_match_golden_over_the_paper_range(strategy):
    assert scaled_digest(strategy, N_MAX_PAPER) == EXPECTED_SCALED_PAPER[strategy.value]


def test_interleaved_strategies_match_golden_over_the_paper_range():
    # n in the outer loop and every strategy in the inner one, from cleared
    # caches: each strategy's urns and the rank states they share are asked
    # for in another order than one strategy at a time
    for cached in (exact_F, exact_G, cost):
        cached.cache_clear()
    exact_analysis._MEMBER_SUMS.clear()
    exact_analysis._RANK_STATES.clear()
    values = {strategy.value: [] for strategy in Strategy}
    for n in range(1, N_MAX_PAPER + 1):
        for strategy in Strategy:
            values[strategy.value].append(scaled(n, strategy))
    assert {name: digest(v) for name, v in values.items()} == EXPECTED_SCALED_PAPER


@pytest.mark.slow
def test_scaled_averages_match_golden_up_to_the_cli_limit():
    assert scaled_digest(Strategy.LEFT, N_MAX_REACH) == EXPECTED_SCALED_REACH_LEFT


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_state_costs_match_golden(strategy):
    got = {q: _cost(q, strategy) for q in STATES}
    assert got == EXPECTED_COST[strategy.value]


def test_leaf_count_closed_form():
    # the j-th insertion from the bottom of the final order searches the
    # S_j settled elements below its partner plus the j - 1 members and
    # j - 1 partners under it, so it has S_j + 2j - 1 gaps to land in
    rng = random.Random(148)
    for _ in range(200):
        q = tuple(rng.randrange(0, 6) for _ in range(rng.randrange(1, 8)))
        leaves = 1
        settled = 0
        for j, count in enumerate(q, start=1):
            settled += count
            leaves *= settled + 2 * j - 1
        assert cost_insert(InsertionState(q)).leaves == leaves


if __name__ == "__main__":
    print("EXPECTED_SCALED = {")
    for strategy in Strategy:
        print(f"    {strategy.value!r}: {scaled_digest(strategy)!r},")
    print("}")
    print()
    print("EXPECTED_SCALED_PAPER = {")
    for strategy in Strategy:
        print(f"    {strategy.value!r}: {scaled_digest(strategy, N_MAX_PAPER)!r},")
    print("}")
    print()
    print(f"EXPECTED_SCALED_REACH_LEFT = {scaled_digest(Strategy.LEFT, N_MAX_REACH)!r}")
    print()
    print("EXPECTED_COST = {")
    for strategy in Strategy:
        print(f"    {strategy.value!r}: {{")
        for q in STATES:
            print(f"        {q!r}: {_cost(q, strategy)!r},")
        print("    },")
    print("}")
