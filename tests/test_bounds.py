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
from mergeinsertion.bounds import (
    _batch_cost_bound,
    _binomial_approx_p_exact,
    _blocks,
    _live_windows,
    _y_tilde_row,
    _y_tilde_rows,
)
from mergeinsertion.harness import log_spaced_ns
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


def fancy_index_log_row(T, q):
    """ln of the float Ỹ row, with every log-factorial term gathered
    through an index array."""
    lf = bounds._log_fact_table(2 * T + 2 * q)
    j = np.arange(q + 1)
    return (
        lf[2 * q - j]
        - lf[j]
        - lf[q - j]
        + j * math.log(2.0)
        + lf[2 * T + j - 1]
        - lf[2 * T + 2 * q - 1]
        + lf[T + q - 1]
        - lf[T - 1]
    )


def fancy_index_y_tilde_row(T, q):
    """The float Ỹ row exponentiated whole at normal-float resolution, ln P
    below ``_LN_TINY`` taken as 0.0: the reference for the kernel rows of
    ``_y_tilde_rows`` and ``_y_tilde_row``."""
    logp = fancy_index_log_row(T, q)
    return np.exp(np.where(logp < bounds._LN_TINY, -np.inf, logp))


def batch_tops(k):
    """Full and truncated batch k: (t(k-1), top) for the tops the tests use."""
    t_prev = batch_bound(k - 1)
    return [(t_prev, top) for top in sorted({t_prev + 1, t_prev + 2, (t_prev + batch_bound(k)) // 2, batch_bound(k)})]


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


@pytest.mark.parametrize("k", range(2, 14))
def test_kernel_rows_are_bit_identical_to_fancy_index_rows(k):
    # every member of full and truncated batches, block by block; the
    # last members have q below the block's window end, so the -inf and
    # +inf pads of the reversed tables decide their entries past q
    for t_prev, top in batch_tops(k):
        Q = top - t_prev
        weights = bounds._cost_weights(t_prev, top)
        members = 0
        for i0, rows in _y_tilde_rows(t_prev, top, Q):
            assert rows.shape[1] == Q - i0 + 1
            for i, row in enumerate(rows, i0):
                q = Q - i
                reference = fancy_index_y_tilde_row(t_prev + i, q)
                assert np.array_equal(row[: q + 1], reference), (t_prev, top, i)
                assert not row[q + 1 :].any()
                # the member's term is one ddot of the same operands and length
                assert bounds._member_cost_bound(weights, row, i) == float(reference @ weights[i - 1 :])
                members += 1
        assert members == Q
        if Q >= 2:
            lo, hi = _live_windows(t_prev, top, Q)
            q = Q - np.arange(1, Q + 1)
            past_2q = [b - 1 > 2 * q[r1 - 1] for _r0, r1, _a, b in _blocks(lo, hi)]
            assert any(past_2q), (t_prev, top)


def test_kernel_grows_a_short_log_factorial_table(monkeypatch):
    # a batch first asked for when the ln(i!) table is far too short
    monkeypatch.setattr(bounds, "_log_fact", np.zeros(1))
    t_prev, top = batch_bound(11), batch_bound(12)
    rows = []
    for i0, block in _y_tilde_rows(t_prev, top, top - t_prev):
        rows += [row[: top - t_prev - i + 1].copy() for i, row in enumerate(block, i0)]
    assert len(bounds._log_fact) > 2 * top
    for i, row in enumerate(rows, 1):
        assert np.array_equal(row, fancy_index_y_tilde_row(t_prev + i, top - t_prev - i)), i


def test_live_window_holds_every_nonzero_entry():
    # each end is where ln P crosses the window floor, so the window is
    # a superset of the nonzero entries and not much more
    rng = np.random.default_rng(16)
    pairs = [(1, 0), (1, 5000), (40000, 5000), (2, 1)]
    pairs += [(int(T), int(q)) for T, q in zip(rng.integers(1, 40000, 60), rng.integers(0, 5001, 60))]
    for T, q in pairs:
        (lo,), (hi,) = _live_windows(T - 1, T + q, 1)
        nonzero = np.flatnonzero(fancy_index_y_tilde_row(T, q))
        assert lo <= nonzero[0] and nonzero[-1] < hi, (T, q)
        logp = fancy_index_log_row(T, q)
        floor = bounds._WINDOW_FLOOR
        assert logp[lo] > floor - 1e-6 and logp[hi - 1] > floor - 1e-6, (T, q)
        assert lo == 0 or logp[lo - 1] <= floor + 1e-6, (T, q)
        assert hi == q + 1 or logp[hi] <= floor + 1e-6, (T, q)


def test_log_factorial_prefix_bits_do_not_depend_on_the_table_size(monkeypatch):
    tables = []
    for size in (5, 100, 4097, 70000, 300000):
        monkeypatch.setattr(bounds, "_log_fact", np.zeros(1))
        tables.append(bounds._log_fact_table(size).copy())
    monkeypatch.setattr(bounds, "_log_fact", np.zeros(1))
    for size in (5, 100, 4097, 70000, 300000):  # grown step by step
        grown = bounds._log_fact_table(size)
    tables.append(grown.copy())
    longest = max(tables, key=len).view(np.int64)
    for table in tables:
        assert np.array_equal(table.view(np.int64), longest[: len(table)]), len(table)


def test_numeric_bound_at_65536_is_pinned():
    # recorded from the kernel that built one row at a time; blocking the
    # rows must not move it by one ulp
    assert numeric_upper_bound_F(65536) == 955877.0331748426


def clear_bound_caches():
    for cached in (numeric_upper_bound_F, bounds._g_hat, _batch_cost_bound):
        cached.cache_clear()


def subnormal_entries(t_prev, top):
    """How many entries of the kernel rows of a batch are subnormal."""
    found = 0
    for _i0, rows in _y_tilde_rows(t_prev, top, top - t_prev):
        found += int(np.count_nonzero((rows != 0.0) & (rows < np.finfo(np.float64).tiny)))
    return found


def test_normal_float_rows_move_no_bound_bit(monkeypatch):
    # with no threshold and the old -750/-760 floors the rows keep their
    # subnormal entries, which the policy flushes to 0.0: every bound the
    # tests and the `tables` benchmark read has the same bits either way
    ns = [*range(1, 4097), *log_spaced_ns(64, 32768, 9)]
    tops = [batch for k in range(2, 14) for batch in batch_tops(k)]
    monkeypatch.setattr(bounds, "_LN_TINY", -np.inf)
    monkeypatch.setattr(bounds, "_WINDOW_FLOOR", -760.0)
    clear_bound_caches()
    try:
        unflushed = [numeric_upper_bound_F(n) for n in ns]
        assert sum(subnormal_entries(*batch) for batch in tops) > 0
        monkeypatch.undo()
        clear_bound_caches()
        assert [numeric_upper_bound_F(n) for n in ns] == unflushed
        assert [subnormal_entries(*batch) for batch in tops] == [0] * len(tops)
    finally:
        clear_bound_caches()


def test_numeric_bound_rejects_sizes_past_the_limit_before_any_work(monkeypatch):
    small = np.zeros(1)
    monkeypatch.setattr(bounds, "_log_fact", small)
    misses = bounds._g_hat.cache_info().misses
    with pytest.raises(ValueError, match=f"at most {bounds.BOUND_N_MAX}"):
        numeric_upper_bound_F(bounds.BOUND_N_MAX + 1)
    assert bounds._log_fact is small
    assert bounds._g_hat.cache_info().misses == misses


@pytest.mark.parametrize("k", [2, 3, 5, 8, 11, 13])
def test_batch_cost_bound_equals_member_sum_with_own_sizes(k):
    # full and truncated batches: each member dots its own row with its
    # own gap counts 2 t_prev + i .. t_prev + top, summed left to right
    for t_prev, top in batch_tops(k):
        g = (2 * t_prev).bit_length()
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


@pytest.mark.parametrize("k", [50, 52, 60])
def test_fractional_abscissa_below_one_where_log2_rounds_up(k):
    # 3n = 2^k - 1 rounds up to log2 = k, a fraction of 1.0 unclamped
    n = ((1 << k) - 1) // 3
    x = frac_log2_3n(n)
    assert x == math.nextafter(1.0, 0.0)
    assert c_of_x(x) > 1.4005


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
