"""Analytic and numeric bounds on the average comparison count.

All logarithms are base 2. The numeric upper bound combines the exact
insertion-length distributions with the uniform-gap insertion cost
T_InsAvg(m) = ceil(log m) + 1 - 2^ceil(log m) / m, which bounds the real
cost from above because landing probabilities never increase from left
to right and the left strategy puts the short decision paths there.
Each member's Ỹ row is evaluated in floats from log-factorials: every
term is a contiguous slice of one grown-on-demand ln(i!) table, so a row
costs a few vector passes and no index arrays, and a batch's T_InsAvg
weights are built once and shared by its members as suffixes.
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
_log_fact = np.zeros(1)
_j_ln2 = np.zeros(1)


def _log_fact_table(n: int) -> np.ndarray:
    """ln(i!) for i = 0..n, grown on demand."""
    global _log_fact
    if n >= len(_log_fact):
        size = max(n + 1, 2 * len(_log_fact))
        _log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    return _log_fact


def _j_ln2_table(n: int) -> np.ndarray:
    """j ln 2 for j = 0..n, grown on demand."""
    global _j_ln2
    if n >= len(_j_ln2):
        _j_ln2 = np.arange(max(n + 1, 2 * len(_j_ln2))) * math.log(2.0)
    return _j_ln2


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
    return _member_cost_bound(_cost_weights(t_prev, batch_bound(k)), t_prev, i)


def _y_tilde_row(T: int, q: int) -> np.ndarray:
    """P(j of the next q members settle below partner T - t(k-1)), j = 0..q.

    Each log-factorial term is one contiguous slice of ``_log_fact``,
    reversed where its argument falls as j grows, added into one buffer
    in a fixed order. Only the entries above ``_EXP_ZERO`` are
    exponentiated; the tails below it stay exactly 0."""
    lf = _log_fact_table(2 * T + 2 * q)
    logp = np.subtract(lf[2 * q : q - 1 if q else None : -1], lf[: q + 1])  # ln (2q-j)! - ln j!
    logp -= lf[q::-1]  # ln (q-j)!
    logp += _j_ln2_table(q)[: q + 1]
    logp += lf[2 * T - 1 : 2 * T + q]  # ln (2T+j-1)!
    logp -= lf[2 * T + 2 * q - 1]
    logp += lf[T + q - 1]
    logp -= lf[T - 1]
    live = logp > _EXP_ZERO  # [lo, hi) spans every live entry
    lo, hi = live.argmax(), q + 1 - live[::-1].argmax()
    row = np.zeros(q + 1)
    np.exp(logp[lo:hi], out=row[lo:hi])
    return row


def _cost_weights(t_prev: int, top: int) -> np.ndarray:
    """T_InsAvg(m) for m = 2 t_prev + 1 .. t_prev + top, the gap counts
    of batch members b_(t_prev+1) .. b_top. Every such m lies in
    (2 t_prev, 2^k], with k the bit length of 2 t_prev, so
    T_InsAvg(m) = k + 1 - 2^k / m there."""
    k = (2 * t_prev).bit_length()
    sizes = np.arange(2 * t_prev + 1, t_prev + top + 1, dtype=np.float64)
    return k + 1.0 - np.exp2(k) / sizes


def _member_cost_bound(weights: np.ndarray, t_prev: int, i: int) -> float:
    """Mean of T_InsAvg(Y + 1) for member b_(t_prev+i) of the batch whose
    ``_cost_weights`` are ``weights``, with the q = len(weights) - i
    members after it inserted above it: Y = 2 t_prev + i - 1 + Ỹ, and the
    suffix of ``weights`` from index i - 1 holds T_InsAvg(Y + 1) for
    Ỹ = 0..q."""
    return float(_y_tilde_row(t_prev + i, len(weights) - i) @ weights[i - 1 :])


@lru_cache(maxsize=None)
def _batch_cost_bound(t_prev: int, top: int) -> float:
    """Summed per-member cost bounds for inserting b_(t_prev+1) .. b_top.

    Truncated batches are handled exactly: member i then has only
    top - t_prev - i elements inserted above it, which shortens the
    helper distribution instead of reusing the full-batch one.
    """
    weights = _cost_weights(t_prev, top)
    total = 0.0
    for i in range(1, top - t_prev + 1):
        total += _member_cost_bound(weights, t_prev, i)
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
