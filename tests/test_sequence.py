import random
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeinsertion import PosSequence
from mergeinsertion.sequence import _block_bound


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


def assert_block_invariants(seq):
    blocks, starts = seq._blocks, seq._starts
    assert sum(map(len, blocks)) == len(seq)
    if len(seq):
        assert all(blocks), "empty block in a non-empty sequence"
    bound = _block_bound(len(seq))
    assert max(map(len, blocks)) <= bound
    assert starts == list(accumulate(map(len, blocks[:-1]), initial=0))


def test_blocks_bounded_under_random_inserts():
    rng = random.Random(7)
    seq = PosSequence()
    for step in range(100_000):
        seq.insert(rng.randint(0, len(seq)), step)
        if step % 4096 == 0:
            assert_block_invariants(seq)
    assert_block_invariants(seq)


def reference_starts(positions) -> list[int]:
    """Block starts after inserting at ``positions`` into an empty sequence,
    with the split bound recomputed from the size on every insert."""
    lengths = [0]
    for size, pos in enumerate(positions, start=1):
        i = bisect_right(list(accumulate(lengths[:-1], initial=0)), pos) - 1
        lengths[i] += 1
        if lengths[i] > _block_bound(size):
            mid = lengths[i] >> 1
            lengths[i : i + 1] = [mid, lengths[i] - mid]
    return list(accumulate(lengths[:-1], initial=0))


def test_cached_bound_splits_where_the_size_bound_does():
    rng = random.Random(20191)
    positions = [rng.randint(0, step) for step in range(100_000)]
    seq = PosSequence()
    for step, pos in enumerate(positions):
        seq.insert(pos, step)
    assert seq._starts == reference_starts(positions)
    assert len(seq._starts) > 10


def test_blocks_bounded_under_adversarial_front_inserts():
    seq = PosSequence()
    for step in range(50_000):
        seq.insert(0, step)
    assert seq.to_list()[:3] == [49_999, 49_998, 49_997]
    assert_block_invariants(seq)


@pytest.mark.parametrize("size", [0, 1, _block_bound(0) - 1, _block_bound(0), _block_bound(0) + 1])
def test_block_boundaries_match_list_oracle(size):
    seq = PosSequence.from_items(range(size))
    oracle = list(range(size))
    assert_block_invariants(seq)
    step = size
    for _ in range(3):
        # the two ends, then exactly every block start, then enough at the
        # last block start to force that block to split
        positions = [0, len(seq)] + list(seq._starts) + [seq._starts[-1]] * _block_bound(0)
        for pos in positions:
            seq.insert(pos, step)
            oracle.insert(pos, step)
            step += 1
        assert_block_invariants(seq)
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


def assert_bisect_matches_list(seq):
    data = seq.to_list()
    heads = [block[0] for block in seq._blocks if block]
    # every block head, the values just around it, and both ends
    probes = {data[0] - 1, data[-1] + 1} if data else {0}
    for head in heads:
        probes |= {head - 1, head, head + 1}
    for x in sorted(probes):
        assert seq.bisect_right(x) == bisect_right(data, x), x
    rng = random.Random(len(data))
    for _ in range(300):
        lo = rng.randint(0, len(data))
        hi = rng.randint(lo, len(data))
        x = rng.choice(sorted(probes))
        assert seq.bisect_right(x, lo, hi) == bisect_right(data, x, lo, hi), (x, lo, hi)


def test_bisect_right_empty():
    seq = PosSequence()
    assert seq.bisect_right(5) == 0
    assert seq.bisect_right(5, 0, 0) == 0
    with pytest.raises(IndexError, match="invalid range"):
        seq.bisect_right(5, 0, 1)


def test_bisect_right_single_block():
    seq = PosSequence.from_items(range(0, 200, 2))
    assert len(seq._blocks) == 1
    assert_bisect_matches_list(seq)
    assert seq.bisect_right(99, 10, 20) == 20
    assert seq.bisect_right(-1, 10, 20) == 10
    for lo, hi in [(-1, 3), (3, 2), (0, 101)]:
        with pytest.raises(IndexError, match="invalid range"):
            seq.bisect_right(7, lo, hi)


def test_bisect_right_blocks_from_items():
    seq = PosSequence.from_items(range(0, 20_000, 2))
    assert len(seq._blocks) > 10
    assert_bisect_matches_list(seq)


def test_bisect_right_blocks_from_splits():
    # sorted values inserted in random order, so the blocks come from splits
    rng = random.Random(11)
    values = rng.sample(range(0, 10**6, 3), 20_000)
    seq = PosSequence()
    oracle: list[int] = []
    for v in values:
        pos = bisect_right(oracle, v)
        oracle.insert(pos, v)
        seq.insert(pos, v)
    assert len(seq._blocks) > 10 and seq.to_list() == oracle
    assert_bisect_matches_list(seq)


def test_bisect_right_reads_only_the_range():
    # the items outside [lo, hi) are unsorted and never change the answer
    seq = PosSequence.from_items([9, 8, 7] + list(range(10, 3000)) + [1, 0])
    data = seq.to_list()
    for x in (-1, 10, 500, 2998, 5000):
        assert seq.bisect_right(x, 3, len(data) - 2) == bisect_right(data, x, 3, len(data) - 2)
