from fractions import Fraction
from math import prod

import pytest

from mergeinsertion import batch_bound, batch_width, mean_Y, p_X, p_Y, p_Y_recurrence
from mergeinsertion.probability import (
    _y_tilde,
    _y_tilde_closed,
    _y_tilde_terms,
    distribution_X,
    distribution_Y,
    distribution_Y_tilde,
)
from oracles import batch_outcomes, oracle_mean_Y, oracle_p_X, oracle_p_Y


def recursive_position_table(k: int) -> dict:
    """Position probabilities rebuilt from the one-step recursion: member 1
    is uniform over the settled elements; member i reuses member i-1 below
    the new partner and adds the single fresh gap."""
    t = batch_bound(k - 1)
    table = {}
    for j in range(1 << k):
        table[(1, j)] = Fraction(1, 2 * t + 1) if j <= 2 * t else Fraction(0)
    for i in range(2, batch_width(k) + 1):
        carry = Fraction(2 * t + 2 * i - 2, 2 * t + 2 * i - 1)
        for j in range(1 << k):
            if j < 2 * t + i - 1:
                table[(i, j)] = carry * table[(i - 1, j)]
            elif j == 2 * t + i - 1:
                table[(i, j)] = Fraction(1, 2 * t + 2 * i - 1)
            else:
                table[(i, j)] = Fraction(0)
    return table


def test_position_anchor_values():
    assert p_X(4, 1, 0) == Fraction(1, 11)
    assert p_X(4, 2, 11) == Fraction(1, 13)
    assert p_X(4, 6, 15) == Fraction(1, 21)
    assert p_X(4, 1, 12) == 0


def test_position_full_table_k4():
    expected = recursive_position_table(4)
    for i in range(1, 7):
        for j in range(16):
            assert p_X(4, i, j) == expected[(i, j)]


def test_position_domain_errors():
    with pytest.raises(ValueError):
        p_X(1, 1, 0)
    with pytest.raises(ValueError):
        p_X(4, 0, 0)
    with pytest.raises(ValueError):
        p_X(4, 7, 0)
    with pytest.raises(ValueError):
        p_X(4, 1, 16)
    with pytest.raises(ValueError):
        p_X(4, 1, -1)


def test_position_monotone_in_gap():
    for k in (4, 5):
        for i in range(1, batch_width(k) + 1):
            masses = [p_X(k, i, j) for j in range(1 << k)]
            assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_length_point_mass_for_first_inserted():
    for k in (2, 3, 4, 5):
        width = batch_width(k)
        assert p_Y(k, width, (1 << k) - 1) == 1
        assert mean_Y(k, width) == (1 << k) - 1


def test_length_normalization():
    for k in range(2, 9):
        for i in range(1, batch_width(k) + 1):
            assert distribution_Y(k, i).cdf(1 << k) == 1


def test_length_zero_outside_support():
    assert p_Y(4, 3, 11) == 0  # below 2 t + i - 1 = 12
    assert p_Y(4, 3, 16) == 0
    with pytest.raises(ValueError):
        p_Y(4, 0, 12)


def test_recurrence_base_cases():
    assert p_Y_recurrence(4, 2, 0, 0) == 1
    assert p_Y_recurrence(4, 2, 0, 1) == 0
    assert p_Y_recurrence(4, 2, 0, -3) == 0
    with pytest.raises(ValueError):
        p_Y_recurrence(4, 2, -1, 0)


def test_recurrence_equals_closed_form_small():
    for k in range(2, 6):
        t = batch_bound(k - 1)
        for i in range(1, batch_width(k) + 1):
            for q in range(0, batch_width(k) - i + 1):
                for j in range(0, q + 1):
                    assert _y_tilde(t + i, q)[j] == _y_tilde_closed(t + i, q, j)


def test_length_is_shifted_helper():
    for k in range(2, 6):
        t = batch_bound(k - 1)
        for i in range(1, batch_width(k) + 1):
            q = batch_width(k) - i
            shift = 2 * t + i - 1
            for j in range(shift, 1 << k):
                assert p_Y(k, i, j) == _y_tilde_closed(t + i, q, j - shift)


def test_oracle_equivalence_small_batches():
    for k in (2, 3):
        outcomes = batch_outcomes(k)
        assert sum(w for _c, w in outcomes) == 1
        for i in range(1, batch_width(k) + 1):
            for j in range(1 << k):
                assert p_X(k, i, j) == oracle_p_X(outcomes, k, i, j)
                assert p_Y(k, i, j) == oracle_p_Y(outcomes, k, i, j)
            assert mean_Y(k, i) == oracle_mean_Y(outcomes, k, i)


def test_mean_matches_sum_over_length_distribution():
    # mean_Y runs the backward product of _means_Y; its definition is sum_j j * p_Y
    for k in range(2, 8):
        t = batch_bound(k - 1)
        for i in range(1, batch_width(k) + 1):
            support = range(2 * t + i - 1, 1 << k)
            assert mean_Y(k, i) == sum((j * p_Y(k, i, j) for j in support), Fraction(0))


def test_mean_monotone_in_member():
    for k in (5, 7):
        means = [mean_Y(k, i) for i in range(1, batch_width(k) + 1)]
        assert all(a <= b for a, b in zip(means, means[1:]))


def test_cdf_dominance_chain():
    # earlier members are inserted into stochastically fewer elements
    for k in (4, 5):
        tables = [distribution_Y(k, i) for i in range(1, batch_width(k) + 1)]
        for m in range(1 << k):
            cdfs = [table.cdf(m) for table in tables]
            assert all(a >= b for a, b in zip(cdfs, cdfs[1:]))


def test_dist_table_constructors():
    table = distribution_X(5, 3)
    assert table.kind == "X"
    assert table.cdf(1 << 5) == 1
    helper = distribution_Y_tilde(4, 2, 3)
    assert helper.q == 3
    assert helper.mean() == sum(j * helper[j] for j in range(4))
    assert helper[99] == 0
    with pytest.raises(ValueError, match="non-negative"):
        distribution_Y_tilde(4, 2, -1)


def test_term_ratio_columns_equal_point_closed_forms():
    for k in range(2, 10):
        for i in range(1, batch_width(k) + 1):
            x, y = distribution_X(k, i), distribution_Y(k, i)
            assert x.support == range(1 << k) and len(x.counts) == 1 << k and len(y.counts) == len(y.support), (k, i)
            assert all(x[j] == p_X(k, i, j) for j in range(1 << k)), (k, i)
            assert all(y[j] == p_Y(k, i, j) for j in range(1 << k)), (k, i)


def test_y_tilde_terms_over_the_odd_product():
    # ``cost`` reads the row at T = i and any q, not only at batch shapes
    for T in range(1, 61):
        for q in range(0, 61):
            counts, den = _y_tilde_terms(T, q)
            assert den == prod(2 * T + 2 * level - 1 for level in range(1, q + 1)), (T, q)
            assert sum(counts) == den and len(counts) == q + 1, (T, q)
            recurrence = _y_tilde(T, q)
            for j, count in enumerate(counts):
                assert Fraction(count, den) == _y_tilde_closed(T, q, j) == recurrence[j], (T, q, j)


def test_floats_are_the_rounded_fractions():
    # c / den rounds once, like float(Fraction), so the TSV bytes cannot move
    def same(table):
        return [x.hex() for x in table.floats()] == [float(table[j]).hex() for j in table.support]

    for k in range(2, 9):
        for i in range(1, batch_width(k) + 1):
            assert same(distribution_X(k, i)) and same(distribution_Y(k, i)), (k, i)
    width = batch_width(12)
    for i in (1, width // 2, width):
        assert same(distribution_X(12, i)) and same(distribution_Y(12, i)), i


def test_dist_tables_reject_bad_member():
    for build in (distribution_X, distribution_Y, lambda k, i: distribution_Y_tilde(k, i, 1)):
        with pytest.raises(ValueError, match="member index i=5"):
            build(2, 5)
        with pytest.raises(ValueError, match="member index i=0"):
            build(3, 0)
        with pytest.raises(ValueError, match="batch index"):
            build(1, 1)


def test_dist_table_rejects_bad_mass():
    from mergeinsertion.probability import DistTable

    with pytest.raises(ValueError):
        DistTable("Y", 4, 1, None, range(2), (3, 2), 6)  # 1/2 + 1/3
    with pytest.raises(ValueError, match="negative"):
        DistTable("Y", 4, 1, None, range(3), (1, -1, 2), 2)  # 1/2 - 1/2 + 1
    with pytest.raises(ValueError, match="3 counts for 2 support points"):
        DistTable("Y", 4, 1, None, range(2), (1, 0, 0), 1)


@pytest.mark.parametrize("build", [distribution_X, distribution_Y], ids=["X", "Y"])
def test_dist_table_rejects_mass_off_by_one_part_in_the_denominator(build):
    # the sum check is exact: moving 1/den of mass onto one entry of a real
    # column (one count up or down by 1 over the column's denominator) is caught
    from mergeinsertion.probability import DistTable

    table = build(9, 20)
    for index in (0, len(table.support) - 1):
        for delta in (1, -1):
            counts = list(table.counts)
            counts[index] += delta
            with pytest.raises(ValueError, match="sums to"):
                DistTable(table.kind, table.k, table.i, None, table.support, tuple(counts), table.den)
    assert DistTable(table.kind, table.k, table.i, None, table.support, tuple(table.counts), table.den) == table
