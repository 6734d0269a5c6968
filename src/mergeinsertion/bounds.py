"""Analytic and numeric bounds on the average comparison count.

All logarithms are base 2. The numeric upper bound combines the exact
insertion-length distributions with the uniform-gap insertion cost
T_InsAvg(m) = ceil(log m) + 1 - 2^ceil(log m) / m, which bounds the real
cost from above because landing probabilities never increase from left
to right and the left strategy puts the short decision paths there.
Each member's Ỹ row is evaluated in floats from log-factorials. A row is
log-concave, so a bisection from its mode finds the live window outside
which every entry underflows exp to exactly 0.0. A batch's consecutive
members go in blocks of about 2^15 entries: each log-factorial term is
one 2-D pass over the block's union window, read as strided row views of
one grown-on-demand ln(i!) table and of two reversed copies padded with
-inf and +inf, and the block is exponentiated once. Every entry still
takes the same eight float operations in the same order as a row built
alone, and each member's zero-padded row meets the suffix of its batch's
T_InsAvg weights in one ddot of its own length, so the bound has the same
bits however the members are blocked.
Closed forms: the worst case W(n), the average-case linear-term curve
c(x) with its 1.4005 floor, a binomial stand-in for the insertion-length
distribution, and the log2(n!) information-theoretic floor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .sorter import DEFAULT_SCHEDULE, _t_ins_avg_exact, batch_bound
from .probability import _check_member, batch_width

LOG2_3 = math.log2(3.0)

# np.exp is exactly 0.0 at and below this (float64 underflows near -745.13),
# and arguments that underflow take its slow path
_EXP_ZERO = -750.0
# window ends lie where ln P falls below this, which leaves slack for rounding
_WINDOW_FLOOR = _EXP_ZERO - 10.0
# most entries one block of Ỹ rows evaluates at once
_BLOCK = 1 << 15
_LN2 = math.log(2.0)
_log_fact = np.zeros(1)


def _log_fact_table(n: int) -> np.ndarray:
    """ln(i!) for i = 0..n, grown on demand."""
    global _log_fact
    if n >= len(_log_fact):
        size = max(n + 1, 2 * len(_log_fact))
        _log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    return _log_fact


def t_ins_avg(m: int) -> float:
    """Average binary-insertion cost into m - 1 elements under uniform
    gap probabilities: ceil(log m) + 1 - 2^ceil(log m) / m."""
    if m < 1:
        raise ValueError("need at least one gap")
    return float(_t_ins_avg_exact(m))


def t_ins(i: int, k: int) -> float:
    """Upper bound on the expected insertion cost of batch member i of
    batch k: the mean of t_ins_avg(Y + 1) under the exact
    insertion-length distribution, evaluated as the per-member term that
    ``_batch_cost_bound`` sums for a full batch."""
    _check_member(k, i)
    t_prev = batch_bound(k - 1)
    weights = _cost_weights(t_prev, batch_bound(k))
    return _member_cost_bound(weights, _y_tilde_row(t_prev + i, len(weights) - i), i)


def _strided_rows(table: np.ndarray, start: int, step: int, rows: int, width: int) -> np.ndarray:
    """Read-only view V[r, c] = table[start + step * r + c], range-checked."""
    if start < 0 or start + step * (rows - 1) + width > len(table):
        raise IndexError(f"rows {start}+{step}r+c, {rows}x{width}, past a table of {len(table)}")
    item = table.itemsize
    view = np.ndarray((rows, width), table.dtype, table, start * item, (step * item, item))
    view.flags.writeable = False
    return view


def _live_windows(t_prev: int, top: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi) per member b_(t_prev+i), i = 1..last, of the batch ending
    at b_top: every j with ln P(j) above ``_EXP_ZERO``, so every nonzero
    entry of the member's Ỹ row, is inside.

    The row is log-concave: its term ratio
    r(j) = 2(q-j)(2T+j) / ((2q-j)(j+1)) falls as j grows. So from the mode,
    the root of r(j) = 1, two bisections find where ln P(j) crosses
    ``_WINDOW_FLOOR``, for all members at once. The slack below
    ``_EXP_ZERO`` absorbs the rounding of either evaluation of ln P."""
    lf = _log_fact_table(2 * top)
    shift = lf[top - 1] - lf[2 * top - 1]

    def live(T, q, j):
        logp = lf[2 * q - j] - lf[j] - lf[q - j] + j * _LN2 + lf[2 * T + j - 1] - lf[T - 1]
        return logp + shift > _WINDOW_FLOOR

    i = np.arange(1, last + 1)
    T, q = t_prev + i, top - t_prev - i
    b, c = 4.0 * T - 1.0, (4.0 * T - 2.0) * q
    mode = np.minimum(np.ceil(2.0 * c / (b + np.sqrt(b * b + 4.0 * c))), q).astype(np.int64)
    # one bisection per end, from the mode out to j = 0 and to j = q:
    # `inside` stays live and `outside` dead; a live end needs no search
    T, q = np.concatenate((T, T)), np.concatenate((q, q))
    end = np.concatenate((np.zeros_like(mode), q[last:]))
    inside = np.where(live(T, q, end), end, np.concatenate((mode, mode)))
    outside = np.concatenate((np.full_like(mode, -1), q[last:] + 1))
    todo = np.flatnonzero(np.abs(outside - inside) > 1)
    while len(todo):
        j = (inside[todo] + outside[todo]) >> 1
        ok = live(T[todo], q[todo], j)
        inside[todo[ok]] = j[ok]
        outside[todo[~ok]] = j[~ok]
        todo = todo[np.abs(outside[todo] - inside[todo]) > 1]
    return inside[:last], inside[last:] + 1


def _blocks(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Runs [r0, r1) of consecutive members whose windows hold about
    ``_BLOCK`` entries together, each with the union [a, b) of their
    windows. A run starts where a window starts past a multiple of
    ``_BLOCK`` in the windows laid end to end."""
    width = hi - lo
    starts = np.flatnonzero(np.diff((np.cumsum(width) - width) // _BLOCK)) + 1
    starts = np.concatenate(([0], starts))
    stops = np.append(starts[1:], len(lo))
    a, b = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
    return list(zip(starts.tolist(), stops.tolist(), a.tolist(), b.tolist()))


def _y_tilde_rows(t_prev: int, top: int, last: int):
    """Ỹ rows of the members b_(t_prev+i), i = 1..last, of the batch ending
    at b_top, block by block. Yields (first member, R), where R[r, :q+1]
    is the row of member i = first + r, zero-padded, and
    q = top - t_prev - i. R is valid until the generator resumes.

    Entry j of a member's row is P(j of the next q members settle below
    partner T - t(k-1)), T = t_prev + i. Its logarithm is eight
    log-factorial terms, added in this fixed order:
    ln (2q-j)! - ln j! - ln (q-j)! + j ln 2 + ln (2T+j-1)! - ln (2T+2q-1)!
    + ln (T+q-1)! - ln (T-1)!. In a batch T + q = top is fixed, so the
    varying terms are rows of one ln(i!) table read with a stride, and
    ln (2q-j)! and ln (q-j)! come from reversed copies of it padded with
    -inf and +inf: past a member's q its entries are -inf, and exp makes
    them 0.0. Only each block's union of live windows is exponentiated;
    the rest stays 0.0, which exp would give there too."""
    Q = top - t_prev
    blocks = _blocks(*_live_windows(t_prev, top, last))
    # every index the strided reads touch in down and up, and in lf past
    # 2 t_prev, is below reach
    reach = max(2 * r1 + b for _r0, r1, _a, b in blocks)
    lf = _log_fact_table(max(2 * t_prev + reach, 2 * top))
    down = np.full(max(reach, 2 * Q + 1), -np.inf)  # down[x] = ln (2Q-x)!
    down[: 2 * Q + 1] = lf[2 * Q :: -1]
    up = np.full(max(reach, Q + 1), np.inf)  # up[x] = ln (Q-x)!
    up[: Q + 1] = lf[Q::-1]
    # one scratch and one zero-padded output buffer serve every block
    work = np.empty(max((r1 - r0) * (b - a) for r0, r1, a, b in blocks))
    rows_out = np.zeros(max((r1 - r0) * (Q - r0) for r0, r1, _a, _b in blocks))
    for r0, r1, a, b in blocks:
        i0, rows, width = r0 + 1, r1 - r0, b - a
        logp = work[: rows * width].reshape(rows, width)
        np.subtract(_strided_rows(down, 2 * i0 + a, 2, rows, width), lf[a:b], out=logp)
        logp -= _strided_rows(up, i0 + a, 1, rows, width)
        logp += np.arange(a, b) * _LN2
        logp += _strided_rows(lf, 2 * (t_prev + i0) + a - 1, 2, rows, width)
        logp -= lf[2 * top - 1]
        logp += lf[top - 1]
        logp -= lf[t_prev + i0 - 1 : t_prev + i0 + rows - 1, None]
        out = rows_out[: rows * (Q - i0 + 1)].reshape(rows, Q - i0 + 1)
        np.exp(logp, out=out[:, a:b])
        yield i0, out
        out[:, a:b] = 0.0


def _y_tilde_row(T: int, q: int) -> np.ndarray:
    """P(j of the next q members settle below partner T - t(k-1)), j = 0..q:
    the one-member block of ``_y_tilde_rows``."""
    _i0, rows = next(_y_tilde_rows(T - 1, T + q, 1))  # never resumed, so the row stays
    return rows[0]


def _cost_weights(t_prev: int, top: int) -> np.ndarray:
    """T_InsAvg(m) for m = 2 t_prev + 1 .. t_prev + top, the gap counts
    of batch members b_(t_prev+1) .. b_top. Every such m lies in
    (2 t_prev, 2^k], with k the bit length of 2 t_prev, so
    T_InsAvg(m) = k + 1 - 2^k / m there."""
    k = (2 * t_prev).bit_length()
    sizes = np.arange(2 * t_prev + 1, t_prev + top + 1, dtype=np.float64)
    return k + 1.0 - np.exp2(k) / sizes


def _member_cost_bound(weights: np.ndarray, row: np.ndarray, i: int) -> float:
    """Mean of T_InsAvg(Y + 1) for member b_(t_prev+i) of the batch whose
    ``_cost_weights`` are ``weights``, with the q = len(weights) - i
    members after it inserted above it: Y = 2 t_prev + i - 1 + Ỹ, and the
    suffix of ``weights`` from index i - 1 holds T_InsAvg(Y + 1) for
    Ỹ = 0..q. ``row`` is the member's Ỹ row, of which entries 0..q are
    read."""
    return float(row[: len(weights) - i + 1].dot(weights[i - 1 :]))


@lru_cache(maxsize=None)
def _batch_cost_bound(t_prev: int, top: int) -> float:
    """Summed per-member cost bounds for inserting b_(t_prev+1) .. b_top.

    Truncated batches are handled exactly: member i then has only
    top - t_prev - i elements inserted above it, which shortens the
    helper distribution instead of reusing the full-batch one. The
    members' terms are added left to right.
    """
    weights = _cost_weights(t_prev, top)
    total = 0.0
    for i0, rows in _y_tilde_rows(t_prev, top, top - t_prev):
        for i, row in enumerate(rows, i0):
            total += _member_cost_bound(weights, row, i)
    return total


@lru_cache(maxsize=None)
def _g_hat(m: int) -> float:
    total = 0.0
    for _k, lo, hi in DEFAULT_SCHEDULE.batches(m):
        total += _batch_cost_bound(lo - 1, hi)
    return total


@lru_cache(maxsize=None)
def numeric_upper_bound_F(n: int) -> float:
    """Upper bound on the exact average comparison count, assembled from
    per-batch insertion-cost bounds through the halving recurrence."""
    if n < 1:
        raise ValueError("need at least one element")
    if n == 1:
        return 0.0
    return n // 2 + numeric_upper_bound_F(n // 2) + _g_hat((n + 1) // 2)


def worst_case_W(n: int) -> float:
    """Worst-case comparison count n log n - (3 - log 3) n + n (y + 1 - 2^y)
    with y the distance from log(3n/4) up to the next integer.

    The O(log n) correction is dropped (taken as 0)."""
    y = 1.0 - frac_log2_3n(n)  # also rejects n < 1
    return n * math.log2(n) - (3.0 - LOG2_3) * n + n * (y + 1.0 - 2.0 ** y)


def c_of_x(x: float) -> float:
    """Linear-term coefficient of the average-case upper bound
    n log n - c(x_n) n, where x_n is the fractional part of log2(3n).

    The curve stays above 1.4005 on [0, 1), with its minimum near 0.6."""
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    return (
        (3.0 - LOG2_3)
        - (2.0 - x - 2.0 ** (1.0 - x))
        + (1.0 - 2.0 ** -x) * (3.0 / (2.0 ** x + 1.0) - 1.0)
        + 2.0 ** (LOG2_3 - x) / 2292.0
    )


def frac_log2_3n(n: int) -> float:
    """Fractional part of log2(3n), the abscissa fed to c_of_x.

    The integer part comes from the bit length, so values next to powers
    of two cannot round to the wrong side."""
    if n < 1:
        raise ValueError("need at least one element")
    z = 3 * n
    return math.log2(z) - (z.bit_length() - 1)


def _binomial_approx_p_exact(k: int, j: int) -> Fraction:
    if k < 2:
        raise ValueError("batch index must be at least 2")
    u = batch_width(k) // 2
    trials = (u + 1) // 2
    q = (1 << k) - 1 - j
    if q < 0 or q > trials:
        return Fraction(0)
    p = Fraction(u // 2, 2 * batch_bound(k) - 1)
    return comb(trials, q) * p ** q * (1 - p) ** (trials - q)


def binomial_approx_p(k: int, j: int) -> float:
    """Binomial stand-in for the insertion-length distribution of the
    middle batch member u = floor((t(k) - t(k-1)) / 2).

    With q = 2^k - 1 - j it is Binomial(ceil(u/2), floor(u/2)/(2 t(k)-1))
    evaluated at q; by construction its CDF never exceeds the exact one,
    so it certifies how often insertions are cheaper than worst case."""
    return float(_binomial_approx_p_exact(k, j))


def lower_bound_log_factorial(n: int) -> float:
    """log2(n!), the information-theoretic comparison floor, by direct
    compensated summation of log2(i)."""
    if n < 1:
        raise ValueError("need at least one element")
    return math.fsum(map(math.log2, range(2, n + 1)))
