import math
from fractions import Fraction

import pytest

from mergeinsertion import (
    InsertionState,
    PathCount,
    Strategy,
    cost,
    cost_insert,
    exact_analysis,
    exact_F,
    exact_G,
    lower_bound_log_factorial,
    numeric_upper_bound_F,
    p_X,
)
from mergeinsertion.bounds import _t_ins_avg_exact
from mergeinsertion.exact_analysis import _cost, _member_cost, _position_law, _rank_law
from mergeinsertion.probability import _y_tilde_closed
from mergeinsertion.sorter import DEFAULT_SCHEDULE, batch_bound
from oracles import brute_cost, initial_segments


def test_leaf_state():
    assert cost_insert(InsertionState(())) == PathCount(0, 1)


def test_single_insertion_state():
    # one pending element over two settled ones: three gaps, depths 1,2,2
    result = cost_insert(InsertionState((2,)))
    assert (result.path_length, result.leaves) == (5, 3)
    assert result.average == Fraction(5, 3)


def test_state_validation():
    with pytest.raises(ValueError):
        InsertionState((2, -1))
    assert InsertionState((2, 0, 1)).pending == 3
    assert InsertionState((2, 0, 1)).chain_elements == 5
    with pytest.raises(ValueError):
        PathCount(0, 0)


def test_cost_degenerate_and_errors():
    assert cost(1, 1) == 0
    assert cost(5, 5) == 0
    with pytest.raises(ValueError):
        cost(3, 2)
    with pytest.raises(ValueError):
        cost(0, 2)


def test_cost_matches_uncollapsed_enumeration():
    for s, e in ((1, 2), (1, 3), (3, 5), (2, 4)):
        for strategy in (Strategy.LEFT, Strategy.RIGHT):
            path, leaves = brute_cost(initial_segments(s, e), strategy)
            assert cost(s, e, strategy) == Fraction(path, leaves)


def test_collapse_soundness_small_states():
    # full-identity enumeration agrees with the collapsed recursion on a
    # spread of states with at most 12 chain elements
    states = [
        (2,),
        (4,),
        (2, 0),
        (2, 1),
        (6, 0),
        (4, 2),
        (2, 0, 0),
        (6, 0, 0),
        (4, 1, 2),
        (2, 1, 0, 1),
        (8, 0, 1),
        (3, 3, 3),
    ]
    for q in states:
        segments = tuple(tuple(("x", s, r) for r in range(size)) for s, size in enumerate(q))
        state = InsertionState(q)
        assert state.chain_elements <= 12
        for strategy in Strategy:
            path, leaves = brute_cost(segments, strategy)
            got = cost_insert(state, strategy)
            assert (got.path_length, got.leaves) == (path, leaves)


def test_insertion_phase_averages():
    assert exact_G(1) == 0
    assert exact_G(2) == Fraction(5, 3)
    assert exact_G(3) == Fraction(59, 15)
    with pytest.raises(ValueError):
        exact_G(0)


def test_table_anchors():
    assert exact_F(1) == 0
    assert exact_F(5) * math.factorial(5) == 832
    assert exact_F(8) * math.factorial(8) == 623232
    assert exact_F(15) * math.factorial(15) == 53153472153600


def test_average_times_factorial_is_integral():
    for n in range(1, 19):
        scaled = exact_F(n) * math.factorial(n)
        assert scaled.denominator == 1


def test_memoization_transparent(fresh_tree_cache):
    # each state costed from a cleared cache equals its cost from one warm
    # cache that every state and its subtrees went into, largest first
    states = ((2,), (4, 1), (2, 0, 1), (6, 0, 0))
    cold = {}
    for q in states:
        exact_analysis._COST_CACHE.clear()
        cold[q] = _cost(q, Strategy.LEFT)
    exact_analysis._COST_CACHE.clear()
    warm = {q: _cost(q, Strategy.LEFT) for q in reversed(states)}
    assert warm == cold
    for q in states:
        assert cost_insert(InsertionState(q)) == PathCount(*cold[q])


def test_single_insertion_into_a_long_chain():
    # one pending element over 65536 settled ones lands uniformly in
    # 65537 gaps; the tree has no limit on the chain length
    state = InsertionState((65536,))
    assert cost_insert(state, Strategy.LEFT).average == _t_ins_avg_exact(65537)


def test_strategy_invariance_small_sizes():
    # all four pivot rules give the same exact average up to n = 12; they
    # start to differ at n = 13
    for n in range(1, 13):
        values = {exact_F(n, strategy) for strategy in Strategy}
        assert len(values) == 1
    assert len({exact_F(13, strategy) for strategy in Strategy}) > 1


def test_strategy_names_are_rejected():
    # a name must fail, not give another rule's value (RIGHT's F(13) is 32.84613, LEFT's 32.83914)
    with pytest.raises(ValueError, match="see Strategy.from_name"):
        exact_F(13, "left")
    with pytest.raises(ValueError, match="see Strategy.from_name"):
        cost(3, 5, "center-left")


def test_left_strategy_never_worse_at_small_sizes():
    for n in range(2, 16):
        left = exact_F(n, Strategy.LEFT)
        assert all(left <= exact_F(n, strategy) for strategy in Strategy)


def _reached_batches(n_max: int) -> list[tuple[int, int]]:
    """Every batch (s, e) that exact_F(n) costs for some n <= n_max."""
    batches = set()
    for n in range(2, n_max + 1):
        batches.update((lo - 1, hi) for _k, lo, hi in DEFAULT_SCHEDULE.batches((n + 1) // 2))
    return sorted(batches)


@pytest.fixture
def fresh_tree_cache():
    # the tree states of n <= 78 take ~110 MB; give them back afterwards
    saved = dict(exact_analysis._COST_CACHE)
    exact_analysis._COST_CACHE.clear()
    yield
    exact_analysis._COST_CACHE.clear()
    exact_analysis._COST_CACHE.update(saved)


@pytest.mark.parametrize(
    "strategy, n_max",
    [(Strategy.LEFT, 78), (Strategy.RIGHT, 40), (Strategy.CENTER_LEFT, 40), (Strategy.CENTER_RIGHT, 40)],
    ids=lambda v: getattr(v, "value", v),
)
def test_member_sum_matches_tree_on_every_reached_batch(strategy, n_max, fresh_tree_cache):
    for s, e in _reached_batches(n_max):
        state = InsertionState((2 * s,) + (0,) * (e - s - 1))
        assert cost(s, e, strategy) == cost_insert(state, strategy).average, (s, e)


@pytest.mark.parametrize("strategy", [Strategy.LEFT, Strategy.CENTER_RIGHT], ids=lambda v: v.value)
def test_cost_equals_closed_form_sum_over_z(strategy):
    # cost takes each member's Ỹ weights from one term-ratio row; the
    # reference evaluates the closed form once per (i, z)
    for e in range(1, 41):
        for s in range(1, e + 1):
            reference = sum(
                (
                    _y_tilde_closed(i, e - i, z) * _member_cost(s, i, z, strategy)
                    for i in range(s + 1, e + 1)
                    for z in range(e - i + 1)
                ),
                Fraction(0),
            )
            assert cost(s, e, strategy) == reference, (s, e)


def test_member_laws_are_exact_distributions():
    batch_of_start = {batch_bound(k - 1): k for k in range(2, 9)}
    members = {(s, i) for s, e in _reached_batches(78) for i in range(s + 1, e + 1)}
    for s, i in sorted(members):
        columns, den = _rank_law(s, i)
        assert sum(map(sum, columns)) == den, (s, i)
        assert all(v >= 0 for column in columns for v in column), (s, i)
        for z in range(3):
            law, den_z = _position_law(s, i, z)
            assert sum(law) == den_z and min(law) >= 0, (s, i, z)
        # every reached batch is a prefix of batch k, where C, b_i's gap
        # among the non-batch elements below a_i, follows p_X
        k = batch_of_start[s]
        for c in range(s + i):
            assert Fraction(sum(column[c] for column in columns), den) == p_X(k, i - s, c), (s, i, c)


def test_exact_average_past_the_tree_limit():
    # the tree needed ~1 GB near n = 120; the member sum reaches the
    # paper's whole exact range
    for n in range(1, 149):
        value = exact_F(n)
        assert (value * math.factorial(n)).denominator == 1, n
        assert lower_bound_log_factorial(n) <= float(value) <= numeric_upper_bound_F(n) + 1e-9, n
