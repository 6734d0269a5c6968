import operator
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeinsertion import PosSequence, Strategy, Tally, binary_insert


def walk_less(a, b):
    """A non-default less: drives the pivot walk instead of the C bisect."""
    return a < b


BOTH_PATHS = (operator.lt, walk_less)


def test_empty_base_case():
    seq = PosSequence()
    assert len(seq) == 0
    seq.insert(0, "a")
    assert seq.to_list() == ["a"]


def test_middle_insertion():
    seq = PosSequence.from_items(["a", "c"])
    seq.insert(1, "b")
    assert seq.to_list() == ["a", "b", "c"]
    assert seq.get(0) == "a"
    assert seq.get(2) == "c"


def test_out_of_range_rejected():
    seq = PosSequence.from_items([1, 2, 3])
    with pytest.raises(IndexError):
        seq.get(3)
    with pytest.raises(IndexError):
        seq.get(-1)
    with pytest.raises(IndexError):
        seq.insert(4, 0)
    with pytest.raises(IndexError):
        seq.insert(-1, 0)


def test_from_items_matches_iteration_order():
    data = list(range(1000))
    seq = PosSequence.from_items(data)
    assert list(seq) == data
    assert [seq[i] for i in range(0, 1000, 97)] == data[0:1000:97]


def test_random_trace_matches_list_oracle():
    # 10^5 random-position inserts, element-for-element against a plain list
    rng = random.Random(0xC0FFEE)
    seq = PosSequence()
    oracle = []
    for step in range(100_000):
        pos = rng.randint(0, len(oracle))
        oracle.insert(pos, step)
        seq.insert(pos, step)
        if step % 1024 == 0:
            probe = rng.randrange(len(oracle))
            assert seq.get(probe) == oracle[probe]
    assert seq.to_list() == oracle


@pytest.mark.parametrize("size", [0, 1, 511, 512, 513])
def test_block_boundaries_match_list_oracle(size):
    # the two ends, the middle, then the same position again and again
    seq = PosSequence.from_items(range(size))
    oracle = list(range(size))
    positions = [0, size, (size + 2) // 2] + [size // 3] * 600
    for step, pos in enumerate(positions, start=size):
        seq.insert(pos, step)
        oracle.insert(pos, step)
    assert seq.to_list() == oracle
    assert [seq.get(i) for i in range(len(oracle))] == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000), st.integers())))
def test_trace_equivalence_property(ops):
    seq = PosSequence()
    oracle = []
    for pos, value in ops:
        pos %= len(oracle) + 1
        seq.insert(pos, value)
        oracle.insert(pos, value)
    assert seq.to_list() == oracle


def test_bisect_right_empty():
    # gap searches on an empty chain: the one gap, and a range past the end
    for less in BOTH_PATHS:
        tally = Tally()
        assert binary_insert(5, PosSequence(), 0, 0, Strategy.LEFT, tally, less=less) == 0
        assert tally.count == 0
        with pytest.raises(IndexError, match="invalid range"):
            binary_insert(5, PosSequence(), 0, 1, Strategy.LEFT, tally, less=less)
    assert bisect_right(PosSequence(), 5) == 0


def test_bisect_right_reads_only_the_range():
    # the items outside [lo, hi) are unsorted and never change the answer
    seq = PosSequence.from_items([9, 8, 7] + list(range(10, 3000)) + [1, 0])
    data = seq.to_list()
    hi = len(data) - 2
    for x in (-1, 10, 500, 2998, 5000):
        expected = bisect_right(data, x, 3, hi)
        assert bisect_right(seq, x, 3, hi) == expected
        for less in BOTH_PATHS:
            assert binary_insert(x, seq, 3, hi, Strategy.CENTER_LEFT, Tally(), less=less) == expected, (less, x)
