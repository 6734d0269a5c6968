import math
from fractions import Fraction

import numpy as np
import pytest

from mergeinsertion import (
    Strategy,
    batch_width,
    binomial_approx_p,
    c_of_x,
    exact_F,
    frac_log2_3n,
    lower_bound_log_factorial,
    numeric_upper_bound_F,
    p_Y,
    t_ins,
    t_ins_avg,
    worst_case_W,
)
from mergeinsertion import bounds
from mergeinsertion.bounds import _batch_cost_bound, _binomial_approx_p_exact, _y_tilde_row
from mergeinsertion.probability import distribution_Y
from mergeinsertion.sorter import batch_bound


def test_uniform_insertion_cost_values():
    assert t_ins_avg(1) == 0.0
    assert t_ins_avg(8) == 3.0
    assert t_ins_avg(3) == pytest.approx(5 / 3)
    with pytest.raises(ValueError):
        t_ins_avg(0)


def test_uniform_cost_brackets_log():
    for m in range(1, 3000):
        value = t_ins_avg(m)
        assert math.log2(m) - 1e-12 <= value <= math.ceil(math.log2(m)) + 1e-12


def test_member_cost_point_mass():
    for k in (3, 5, 8):
        assert t_ins(batch_width(k), k) == pytest.approx(k, abs=1e-12)


def test_member_cost_below_batch_limit():
    for k in range(2, 10):
        for i in range(1, batch_width(k) + 1):
            assert t_ins(i, k) <= k + 1e-12
    for i in range(1, batch_width(10) + 1):
        assert t_ins(i, 10) <= 10 + 1e-12


def test_member_cost_equals_sum_over_length_distribution():
    # reference: the mean of t_ins_avg(Y + 1) summed term by term over the
    # exact p_Y. t_ins takes its Ỹ row from float log-factorials instead,
    # whose rounding grows with the batch (1.5e-12 relative at k = 8)
    for k in range(2, 9):
        t = batch_bound(k - 1)
        for i in range(1, batch_width(k) + 1):
            reference = 0.0
            for j in range(2 * t + i - 1, 1 << k):
                reference += float(p_Y(k, i, j)) * t_ins_avg(j + 1)
            assert t_ins(i, k) == pytest.approx(reference, rel=1e-11, abs=1e-12), (k, i)


def fancy_index_y_tilde_row(T, q):
    """The float Ỹ row with every log-factorial term gathered through an
    index array, exponentiated whole: the reference for ``_y_tilde_row``."""
    lf = bounds._log_fact_table(2 * T + 2 * q)
    j = np.arange(q + 1)
    logp = (
        lf[2 * q - j]
        - lf[j]
        - lf[q - j]
        + j * math.log(2.0)
        + lf[2 * T + j - 1]
        - lf[2 * T + 2 * q - 1]
        + lf[T + q - 1]
        - lf[T - 1]
    )
    return np.exp(logp)


def test_slice_row_is_bit_identical_to_fancy_index_row():
    for T in (1, 2, 3, 6, 44, 171, 1366):
        for q in (0, 1, 2, 5, 64, 683, 2000):
            assert np.array_equal(_y_tilde_row(T, q), fancy_index_y_tilde_row(T, q)), (T, q)
    # a row past the end of the ln(i!) table, whose far tails underflow
    size = len(bounds._log_fact)
    T, q = size // 2, size // 4
    row = _y_tilde_row(T, q)
    assert len(bounds._log_fact) > 2 * T + 2 * q >= size
    assert row[0] == 0.0 and row.max() > 0.0
    assert np.array_equal(row, fancy_index_y_tilde_row(T, q))


@pytest.mark.parametrize("k", [2, 3, 5, 8, 11])
def test_batch_cost_bound_equals_member_sum_with_own_sizes(k):
    # full and truncated batches: each member dots its own row with its
    # own gap counts 2 t_prev + i .. t_prev + top, summed left to right
    t_prev = batch_bound(k - 1)
    g = (2 * t_prev).bit_length()
    for top in sorted({t_prev + 1, t_prev + 2, (t_prev + batch_bound(k)) // 2, batch_bound(k)}):
        reference = 0.0
        for i in range(1, top - t_prev + 1):
            q = top - t_prev - i
            sizes = np.arange(2 * t_prev + i, 2 * t_prev + i + q + 1, dtype=np.float64)
            reference += float(fancy_index_y_tilde_row(t_prev + i, q) @ (g + 1.0 - np.exp2(g) / sizes))
        assert _batch_cost_bound(t_prev, top) == reference, (t_prev, top)


@pytest.mark.parametrize("i, k", [(0, 3), (3, 3), (100, 3), (1, 1), (1, 0)])
def test_member_cost_rejects_members_outside_the_batch(i, k):
    # batch 3 has members 1..2; batches start at k = 2
    with pytest.raises(ValueError):
        t_ins(i, k)


def test_member_cost_monotone():
    for k in range(2, 8):
        values = [t_ins(i, k) for i in range(1, batch_width(k) + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_sandwich_small_sizes():
    for n in range(1, 21):
        lower = lower_bound_log_factorial(n)
        middle = float(exact_F(n))
        upper = numeric_upper_bound_F(n)
        assert lower <= middle + 1e-12
        assert middle <= upper + 1e-9


def test_upper_bound_beats_information_floor():
    for n in (64, 512, 4096, 16384):
        assert numeric_upper_bound_F(n) >= lower_bound_log_factorial(n)


def test_upper_bound_envelope():
    # normalized numeric bound sits in the narrow band once the batch
    # structure dominates; below n = 256 the exact average itself is
    # above -1.38, so the band claim only makes sense from there on
    ns = sorted({1 << e for e in range(8, 14)} | {3 * (1 << e) // 4 for e in range(9, 15)})
    for n in ns:
        value = (numeric_upper_bound_F(n) - n * math.log2(n)) / n
        assert -1.45 <= value <= -1.38, (n, value)


def test_worst_case_envelope():
    for e in range(4, 21):
        for n in (1 << e, (3 * (1 << e)) // 4 + 1):
            w = (worst_case_W(n) - n * math.log2(n)) / n
            assert -1.415001 <= w <= -1.3289


def test_worst_case_fraction_in_range():
    for n in (1, 2, 3, 10, 1000, 123456):
        z = 3 * n
        frac = math.log2(z) - (z.bit_length() - 1)
        assert 0 < frac < 1


def test_worst_case_dominates_average():
    # allowing the dropped O(log n) term as 2 log2 n of slack
    for n in range(2, 16):
        assert worst_case_W(n) + 2 * math.log2(n) >= float(exact_F(n))


def test_c_curve_floor_and_shape():
    xs = [i / 10_000 for i in range(10_000)]
    values = [c_of_x(x) for x in xs]
    assert min(values) >= 1.4005
    argmin = xs[values.index(min(values))]
    assert 0.55 <= argmin <= 0.65
    with pytest.raises(ValueError):
        c_of_x(1.0)
    with pytest.raises(ValueError):
        c_of_x(-0.1)


def test_binomial_normalizes_exactly():
    for k in range(2, 13):
        total = sum(
            _binomial_approx_p_exact(k, (1 << k) - 1 - q)
            for q in range(0, (batch_width(k) // 2 + 1) // 2 + 1)
        )
        assert total == 1


def test_binomial_zero_outside_support():
    assert binomial_approx_p(8, 0) == 0.0
    assert binomial_approx_p(8, 1 << 8) == 0.0


def test_binomial_cdf_dominated_spot():
    k = 4
    u = batch_width(k) // 2
    table = distribution_Y(k, u)
    for j0 in range(1 << k):
        approx = sum(_binomial_approx_p_exact(k, j) for j in range(j0 + 1))
        assert float(approx) <= float(table.cdf(j0)) + 1e-9


def test_binomial_mode_sits_right_of_exact_mode():
    k = 8
    u = batch_width(k) // 2
    table = distribution_Y(k, u)
    exact_mode = max(table.mass, key=lambda j: table.mass[j])
    approx_mode = max(range(1 << k), key=lambda j: _binomial_approx_p_exact(k, j))
    assert approx_mode > exact_mode


def test_log_factorial_values():
    assert lower_bound_log_factorial(1) == 0.0
    assert lower_bound_log_factorial(5) == pytest.approx(math.log2(120), abs=1e-9)
    n = 1_000_000
    normalized = (lower_bound_log_factorial(n) - n * math.log2(n)) / n
    assert normalized == pytest.approx(-math.log2(math.e), abs=0.01)


def test_fractional_abscissa():
    for n in (1, 2, 5, 341, 1 << 20):
        x = frac_log2_3n(n)
        assert 0 <= x < 1
        e = (3 * n).bit_length() - 1
        assert math.isclose(2 ** (e + x), 3 * n, rel_tol=1e-12)


@pytest.mark.slow
def test_empirical_mean_below_upper_bound():
    from mergeinsertion import ExperimentConfig, run_experiment

    for n in (100, 1000, 5000):
        stats = run_experiment(ExperimentConfig(ns=(n,), trials=1000, seed=42))[0]
        slack = 3 * stats.std / math.sqrt(stats.trials)
        assert stats.mean <= numeric_upper_bound_F(n) + slack, n


def test_thm3_consistency_with_fitted_slack():
    # normalized numeric bound <= -c(x_n) + C log2(n)^2 / n for a modest C
    worst_c = 0.0
    for e in range(6, 14):
        for n in (1 << e, (3 * (1 << e)) // 4 + 1):
            lhs = (numeric_upper_bound_F(n) - n * math.log2(n)) / n
            gap = lhs + c_of_x(frac_log2_3n(n))
            worst_c = max(worst_c, gap * n / math.log2(n) ** 2)
    assert worst_c <= 10.0
