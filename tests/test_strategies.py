import math
import operator
import random

import numpy as np
import pytest

from mergeinsertion import PosSequence, Strategy, Tally, binary_insert, decision_depths, gap_depth, pivot_index
from mergeinsertion.strategies import _gap_depths


def walk_less(a, b):
    return a < b


# operator.lt (the default) takes the native-order path: C bisection plus
# gap_depth; any other callable, this wrapper included, takes the pivot walk.
# The binary_insert tests loop over both, so each check covers each path.
BOTH_PATHS = (operator.lt, walk_less)


def test_pivot_examples():
    # 5 candidates: skewed-left picks the 2nd, center-left the 3rd
    assert pivot_index(5, Strategy.LEFT) == 2
    assert pivot_index(5, Strategy.CENTER_LEFT) == 3
    assert pivot_index(5, Strategy.CENTER_RIGHT) == 3
    assert pivot_index(5, Strategy.RIGHT) == 4
    for strategy in Strategy:
        assert pivot_index(1, strategy) == 1
    with pytest.raises(ValueError):
        pivot_index(0, Strategy.LEFT)


def test_pivot_in_range():
    for strategy in Strategy:
        for n in range(1, 300):
            assert 1 <= pivot_index(n, strategy) <= n


def test_depths_known_patterns():
    assert decision_depths(4, Strategy.LEFT) == (2, 2, 2, 3, 3)
    assert decision_depths(4, Strategy.RIGHT) == (3, 3, 2, 2, 2)
    for strategy in Strategy:
        assert decision_depths(7, strategy) == (3,) * 8
    assert decision_depths(0, Strategy.LEFT) == (0,)


def test_two_layer_property_all_strategies():
    # depths span at most two consecutive values and the short-leaf count
    # is exactly 2^ceil(log2(m+1)) - (m+1)
    for strategy in Strategy:
        for m in range(0, 201):
            depths = decision_depths(m, strategy)
            long = math.ceil(math.log2(m + 1)) if m else 0
            short_expected = (1 << long) - (m + 1)
            assert set(depths) <= {long - 1, long}
            assert sum(1 for d in depths if d == long - 1) == short_expected


def test_gap_depth_equals_decision_depths():
    for strategy in Strategy:
        for m in range(600):
            depths = decision_depths(m, strategy)
            assert [gap_depth(m, g, strategy) for g in range(m + 1)] == list(depths), (strategy, m)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_gap_depths_array_equals_decision_depths(strategy):
    m = np.array([m for m in range(301) for _ in range(m + 1)], dtype=np.int64)
    g = np.array([g for m in range(301) for g in range(m + 1)], dtype=np.int64)
    want = [d for m in range(301) for d in decision_depths(m, strategy)]
    assert _gap_depths(m, g, strategy).tolist() == want


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_gap_depths_array_equals_gap_depth_on_long_searches(strategy):
    rng = random.Random(f"gap-depths/{strategy.value}")
    pairs = [(m, rng.randrange(m + 1)) for m in (rng.randrange(1 << 20) for _ in range(10_000))]
    pairs += [(m, g) for m in ((1 << 20) - 1, 1 << 19, (1 << 19) + 1) for g in (0, 1, m // 2, m - 1, m)]
    ms, gs = np.array(pairs, dtype=np.int64).T
    assert _gap_depths(ms, gs, strategy).tolist() == [gap_depth(m, g, strategy) for m, g in pairs]


@pytest.mark.parametrize("m", [4095, 4096, 4097, 65535, 65536])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_depths_match_binary_insert_on_long_chains(strategy, m):
    # the first and last 50 gaps and 200 seeded ones, replayed by the sorter's search
    chain = PosSequence.from_items([2 * v for v in range(m)])
    depths = decision_depths(m, strategy)
    assert len(depths) == m + 1
    gaps = set(range(50)) | set(range(m - 49, m + 1)) | set(random.Random(m).sample(range(m + 1), 200))
    for less in BOTH_PATHS:
        for gap in sorted(gaps):
            tally = Tally()
            assert binary_insert(2 * gap - 1, chain, 0, m, strategy, tally, less=less) == gap
            assert tally.count == depths[gap], (less, gap)


def test_short_leaf_placement():
    for m in range(1, 129):
        long = math.ceil(math.log2(m + 1))
        short = (1 << long) - (m + 1)
        left = decision_depths(m, Strategy.LEFT)
        right = decision_depths(m, Strategy.RIGHT)
        assert all(d == long - 1 for d in left[:short])
        assert all(d == long for d in left[short:])
        assert all(d == long for d in right[: m + 1 - short])
        assert all(d == long - 1 for d in right[m + 1 - short :])


def test_binary_insert_trivial_and_errors():
    chain = PosSequence.from_items([10, 20, 30])
    for less in BOTH_PATHS:
        tally = Tally()
        assert binary_insert(15, chain, 2, 2, Strategy.LEFT, tally, less=less) == 2
        assert tally.count == 0


class Uncomparable:
    """A key whose native order must never be consulted."""

    def __lt__(self, other):
        raise AssertionError("compared before the range was checked")


@pytest.mark.parametrize("lo, hi", [(2, 1), (-1, 2), (0, 4), (-2, -1), (4, 4)])
def test_binary_insert_rejects_range_before_comparing(lo, hi):
    def less(a, b):
        raise AssertionError("compared before the range was checked")

    tally = Tally()
    with pytest.raises(IndexError, match="invalid range"):
        binary_insert(15, PosSequence.from_items([10, 20, 30]), lo, hi, Strategy.LEFT, tally, less=less)
    # the default less, on keys whose own < raises
    chain = PosSequence.from_items([Uncomparable() for _ in range(3)])
    with pytest.raises(IndexError, match="invalid range"):
        binary_insert(Uncomparable(), chain, lo, hi, Strategy.LEFT, tally)
    assert tally.count == 0


def test_binary_insert_every_gap_every_strategy():
    # replaying each target gap must return the gap, keep the chain sorted,
    # and cost exactly the published decision depth
    for less in BOTH_PATHS:
        for strategy in Strategy:
            for m in list(range(0, 65)) + [100, 150, 200]:
                chain = PosSequence.from_items([2 * v for v in range(m)])
                depths = decision_depths(m, strategy)
                for gap in range(m + 1):
                    tally = Tally()
                    item = 2 * gap - 1
                    pos = binary_insert(item, chain, 0, m, strategy, tally, less=less)
                    assert pos == gap
                    assert tally.count == depths[gap]


def test_binary_insert_subrange():
    chain = PosSequence.from_items(list(range(0, 40, 2)))
    for less in BOTH_PATHS:
        tally = Tally()
        pos = binary_insert(9, chain, 3, 12, Strategy.CENTER_LEFT, tally, less=less)
        assert pos == 5
        probed = chain.to_list()
        probed.insert(pos, 9)
        assert probed == sorted(probed)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_subrange_items_outside_range_agree(strategy):
    # items below chain[lo] and above chain[hi - 1] end at lo and hi on
    # both paths, for the same count, on a chain of several blocks
    chain = PosSequence.from_items(range(0, 6000, 2))
    assert len(chain._blocks) > 2
    for lo, hi in [(0, 3000), (3, 12), (700, 2300), (1000, 1000), (2999, 3000)]:
        for item in (-1, 2 * lo - 1, 2 * lo, 2 * hi - 2, 2 * hi - 1, 2 * hi + 101, 6001):
            native, walk = Tally(), Tally()
            pos = binary_insert(item, chain, lo, hi, strategy, native)
            assert pos == binary_insert(item, chain, lo, hi, strategy, walk, less=walk_less), (lo, hi, item)
            assert native.count == walk.count == gap_depth(hi - lo, pos - lo, strategy)
            assert pos == min(max(item // 2 + 1, lo), hi)


def test_strategy_names_round_trip():
    for strategy in Strategy:
        assert Strategy.from_name(strategy.value) is strategy
    with pytest.raises(ValueError):
        Strategy.from_name("middle")


@pytest.mark.parametrize("name", [s.value for s in Strategy])
def test_strategy_names_are_rejected(name):
    # the rules are told apart by identity, so a name must fail, not pick a rule
    for call in (lambda: pivot_index(5, name), lambda: decision_depths(6, name), lambda: gap_depth(6, 2, name)):
        with pytest.raises(ValueError, match="see Strategy.from_name"):
            call()
