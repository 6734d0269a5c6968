import math
from fractions import Fraction
from itertools import islice

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
from mergeinsertion.exact_analysis import EXACT_N_MAX, _MEMBER_SUMS, _RANK_STATES, _cost, _rank_law, _urn
from mergeinsertion.probability import _y_tilde_closed
from mergeinsertion.sorter import DEFAULT_SCHEDULE, batch_bound
from mergeinsertion.strategies import decision_depths
from oracles import brute_cost, initial_segments, position_law, rank_law


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
    # a name must fail before any work, not give another rule's value
    # (RIGHT's F(13) is 32.84613, LEFT's 32.83914) nor, where no pivot is
    # taken, a value cached under the name
    caches = (exact_F, exact_G, cost, decision_depths)

    def sizes():
        return [f.cache_info().currsize for f in caches], len(_MEMBER_SUMS), len(_RANK_STATES)

    before = sizes()
    calls = (
        (exact_F, 13, "left"),
        (exact_F, 2, "left"),
        (exact_F, 1, "bogus"),
        (exact_G, 1, "left"),
        (cost, 3, 5, "center-left"),
        (cost, 1, 1, "left"),
        (decision_depths, 0, "left"),
    )
    for fn, *args in calls:
        with pytest.raises(ValueError, match="see Strategy.from_name"):
            fn(*args)
    assert sizes() == before


def test_exact_average_refuses_sizes_above_the_limit():
    # F(10**5) would run for hours: the size is refused before any work
    exact_F.cache_clear()
    _MEMBER_SUMS.clear()
    _RANK_STATES.clear()
    for n in (EXACT_N_MAX + 1, 10**5):
        with pytest.raises(ValueError, match=f"at most {EXACT_N_MAX}"):
            exact_F(n)
    assert not _MEMBER_SUMS and not _RANK_STATES
    assert exact_F.cache_info().currsize == 0


def test_insertion_phase_refuses_sizes_above_the_limit():
    # exact_F(EXACT_N_MAX) inserts at most (EXACT_N_MAX + 1) // 2 small
    # elements; exact_G and cost refuse more before any work
    exact_G.cache_clear()
    cost.cache_clear()
    _MEMBER_SUMS.clear()
    _RANK_STATES.clear()
    limit = (EXACT_N_MAX + 1) // 2
    calls = ((exact_G, limit + 1), (exact_G, 10**5), (cost, 1, limit + 1), (cost, limit, 10**5))
    for fn, *args in calls:
        with pytest.raises(ValueError, match=f"at most {limit}"):
            fn(*args)
    assert not _MEMBER_SUMS and not _RANK_STATES
    assert exact_G.cache_info().currsize == 0 and cost.cache_info().currsize == 0
    assert cost(limit - 1, limit) > 0  # the limit itself is allowed


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


def _member_cost(law: tuple[int, ...], den: int, m: int, strategy: Strategy) -> Fraction:
    """Expected comparisons of a member whose gap among m candidates has
    law ``law / den``, as one Fraction."""
    return Fraction(sum(p * d for p, d in zip(law, decision_depths(m, strategy))), den)


@pytest.mark.parametrize("strategy", [Strategy.LEFT, Strategy.CENTER_RIGHT], ids=lambda v: v.value)
def test_cost_equals_closed_form_sum_over_z(strategy):
    # cost sums each member in integers, its Ỹ weights from one term-ratio
    # row; the reference takes the closed form, one Fraction per (i, z) and
    # the laws of one fresh _urn(s, i) per member; e descends, so most
    # members' cached sums already reach past the z a batch asks for
    laws = {(s, i): list(islice(_urn(s, i), 41 - i)) for s in range(1, 40) for i in range(s + 1, 41)}
    for e in range(40, 0, -1):
        for s in range(1, e + 1):
            reference = sum(
                (
                    _y_tilde_closed(i, e - i, z) * _member_cost(*laws[s, i][z], s + i - 1 + z, strategy)
                    for i in range(s + 1, e + 1)
                    for z in range(e - i + 1)
                ),
                Fraction(0),
            )
            assert cost(s, e, strategy) == reference, (s, e)


def test_rank_laws_equal_the_from_scratch_laws():
    # every member that exact_F reaches up to n = 148, in the order a
    # cold run asks for them, then in descending order, where each state
    # has gone past the member and must start again, then from no state
    members = sorted({(s, i) for s, e in _reached_batches(148) for i in range(s + 1, e + 1)})

    def check(s, i):
        columns, den = _rank_law(s, i)
        assert (columns.tolist(), den) == rank_law(s, i), (s, i)

    for s, i in members:
        check(s, i)
    for s, i in members[::-1][::7]:
        check(s, i)
    _RANK_STATES.clear()
    for s, i in members[::7]:
        check(s, i)


def test_position_laws_equal_the_from_scratch_laws():
    # every law that exact_F reaches up to n = 148, at every z up to its
    # member's largest q, from one fresh _urn(s, i) per member: from empty
    # rank states in the order a cold run first asks for the members
    # (batches as n grows, then members), and again in descending order
    # after they are cleared, so every rank state starts again
    q_max = {}
    for n in range(2, 149):
        for _k, lo, hi in DEFAULT_SCHEDULE.batches((n + 1) // 2):
            for i in range(lo, hi + 1):
                q_max[(lo - 1, i)] = max(q_max.get((lo - 1, i), 0), hi - i)
    expected = {(s, i): [position_law(s, i, z) for z in range(q + 1)] for (s, i), q in q_max.items()}
    for order in (expected, reversed(expected)):
        _RANK_STATES.clear()
        for s, i in order:
            assert list(islice(_urn(s, i), len(expected[s, i]))) == expected[s, i], (s, i)


def test_member_laws_are_exact_distributions():
    batch_of_start = {batch_bound(k - 1): k for k in range(2, 9)}
    members = {(s, i) for s, e in _reached_batches(78) for i in range(s + 1, e + 1)}
    for s, i in sorted(members):
        columns, den = _rank_law(s, i)
        assert sum(map(sum, columns)) == den, (s, i)
        assert all(v >= 0 for column in columns for v in column), (s, i)
        for z, (law, den_z) in enumerate(islice(_urn(s, i), 3)):
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


def test_exact_average_past_the_paper_range():
    # the member sum reaches past the paper's n <= 148
    for n in range(149, 201):
        assert lower_bound_log_factorial(n) <= float(exact_F(n)) <= numeric_upper_bound_F(n) + 1e-9, n
