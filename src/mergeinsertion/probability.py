"""Exact distributions for the batched insertion phase.

When batch k begins, the main chain holds the 2 t(k-1) settled elements
x_1 < ... < x_(2 t(k-1)) plus the larger partners a_(t(k-1)+1) .. a_t(k);
the batch members b_(t(k-1)+i) are then binary-inserted from the top
down. Everything here is evaluated in exact rational arithmetic:

* ``p_X``:  where a batch member finally lands among the non-batch
  elements (gap index j means between x_j and x_(j+1), with the
  partners counted as x's).
* ``p_Y``:  into how many chain elements a batch member is inserted.
* ``p_Y_recurrence``:  the helper variable behind p_Y, counting how many
  of the next q batch members settle below a given partner, read from
  the row j = 0..q that its two-term recurrence builds (``_y_tilde``).

Factorials overflow machine words almost immediately, so all mass
functions return ``fractions.Fraction``. The point functions evaluate
their closed forms; the whole-column tables (``distribution_X``,
``distribution_Y`` and the Ỹ rows behind ``exact_analysis.cost``) take
one closed-form value and reach every other entry by its exact term
ratio, a quotient of small integers, so a column costs one set of big
factorials instead of one per entry. ``Fraction`` values are canonical,
so either way gives the same numbers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice
from math import factorial

from .sorter import batch_bound

_ZERO = Fraction(0)


def batch_width(k: int) -> int:
    """Number of elements inserted by batch k: t(k) - t(k-1)."""
    return batch_bound(k) - batch_bound(k - 1)


def _check_member(k: int, i: int) -> None:
    if k < 2:
        raise ValueError("batch index must be at least 2")
    width = batch_width(k)
    if not 1 <= i <= width:
        raise ValueError(f"member index i={i} outside 1..{width} for batch {k}")


def p_X(k: int, i: int, j: int) -> Fraction:
    """Probability that b_(t(k-1)+i) lands in gap j of x_1 .. x_(2^k).

    Gap 0 is below x_1 and gap 2^k - 1 is between x_(2^k - 1) and
    x_(2^k); the member can never land above its own partner, so the
    mass is zero from gap 2 t(k-1) + i on. Raises ValueError when j is
    outside 0 .. 2^k - 1.
    """
    _check_member(k, i)
    if not 0 <= j <= (1 << k) - 1:
        raise ValueError(f"gap index j={j} outside 0..{(1 << k) - 1} for batch {k}")
    t = batch_bound(k - 1)
    j = max(j, 2 * t)  # the mass is flat on gaps 0 .. 2 t(k-1)
    if j < 2 * t + i:
        exp = 4 * t - 2 * j + 2 * i - 2
        num = (1 << exp) * factorial(t + i - 1) ** 2 * factorial(2 * j - 2 * t)
        den = factorial(j - t) ** 2 * factorial(2 * t + 2 * i - 1)
        return Fraction(num, den)
    return _ZERO


def p_Y(k: int, i: int, j: int) -> Fraction:
    """Probability that b_(t(k-1)+i) is inserted into exactly j elements.

    Zero outside the support 2 t(k-1) + i - 1 <= j <= 2^k - 1. The first
    inserted member of a full batch (i = t(k) - t(k-1)) always sees
    2^k - 1 elements, so its distribution is a point mass there.
    """
    _check_member(k, i)
    t = batch_bound(k - 1)
    tk = batch_bound(k)
    lo = 2 * t + i - 1
    hi = (1 << k) - 1
    if not lo <= j <= hi:
        return _ZERO
    return _y_tilde_closed(t + i, tk - t - i, j - lo)


@lru_cache(maxsize=None)
def _y_tilde(T: int, q: int) -> tuple[Fraction, ...]:
    """The Ỹ row j = 0..q by its two-term recurrence, built forward from
    q = 0 in integers over one denominator; T = t(k-1) + i is all the
    recurrence ever depends on."""
    row, den = [1], 1
    for level in range(1, q + 1):
        padded = [0] + row + [0]
        row = [(2 * T + j - 1) * padded[j] + (2 * level - j - 1) * padded[j + 1] for j in range(level + 1)]
        den *= 2 * T + 2 * level - 1
    return tuple(Fraction(v, den) for v in row)


def _y_tilde_closed(T: int, q: int, j: int) -> Fraction:
    """Closed form of the ``_y_tilde`` recurrence, and the formula behind
    ``p_Y``; the recurrence stays as its cross-check."""
    if j < 0 or j > q:
        return _ZERO
    num = factorial(2 * q - j) * (1 << j) * factorial(2 * T + j - 1) * factorial(T + q - 1)
    den = factorial(j) * factorial(q - j) * factorial(2 * T + 2 * q - 1) * factorial(T - 1)
    return Fraction(num, den)


def _y_tilde_terms(T: int, q: int) -> list[Fraction]:
    """The Ỹ row j = 0..q from ``_y_tilde_closed(T, q, 0)`` and the term
    ratio p(j+1) / p(j) = 2 (2T + j)(q - j) / ((2q - j)(j + 1))."""
    p = _y_tilde_closed(T, q, 0)
    row = [p]
    for j in range(q):
        p *= Fraction(2 * (2 * T + j) * (q - j), (2 * q - j) * (j + 1))
        row.append(p)
    return row


def p_Y_recurrence(k: int, i: int, q: int, j: int) -> Fraction:
    """Probability that j of the next q batch members settle below the
    partner of member i: entry j of the recurrence row ``_y_tilde``.

    For q = 0 this is 1 at j = 0 and 0 elsewhere; j outside 0..q has no
    mass. Shifting by 2 t(k-1) + i - 1 at q = t(k) - t(k-1) - i
    recovers p_Y.
    """
    _check_member(k, i)
    if q < 0:
        raise ValueError("q must be non-negative")
    if not 0 <= j <= q:
        return _ZERO
    return _y_tilde(batch_bound(k - 1) + i, q)[j]


def mean_Y(k: int, i: int) -> Fraction:
    """Expected number of elements b_(t(k-1)+i) is inserted into.

    One step of ``_means_Y``'s backward product per member above i.
    """
    _check_member(k, i)
    return next(islice(_means_Y(k), batch_width(k) - i, None))


def _means_Y(k: int) -> Iterator[Fraction]:
    """mean_Y(k, i) for i = w, w - 1, ..., 1, w = batch_width(k), in one pass.

    Y is 2 t(k-1) + i - 1 plus the ``p_Y_recurrence`` count at
    q = t(k) - t(k-1) - i, whose mean E_q follows
    E_q = (2T + (2T + 2q) E_(q-1)) / (2T + 2q - 1), E_0 = 0, with
    T = t(k-1) + i. So u_q = 2T + E_q obeys
    u_q = u_(q-1) (2T + 2q) / (2T + 2q - 1), u_0 = 2T, and as T + q = t(k)
    for every member, S_i = u_q of member i satisfies S_w = 2 t(k) and
    S_i = S_(i+1) 2T_i / (2T_i + 1); the mean is S_i - i - 1.
    """
    t = batch_bound(k - 1)
    s = Fraction(2 * batch_bound(k))
    for i in range(batch_width(k), 0, -1):
        yield s - (i + 1)
        s *= Fraction(2 * (t + i - 1), 2 * (t + i) - 1)


@dataclass(frozen=True)
class DistTable:
    """Exact probability table for one insertion random variable.

    ``kind`` is "X", "Y" or "Ytilde" (the latter carries its q);
    ``mass`` maps support points to their exact probabilities and must
    sum to exactly 1.
    """

    kind: str
    k: int
    i: int
    q: int | None
    support: range
    mass: dict

    def __post_init__(self) -> None:
        # exact; a run of equal values (X's flat run, the zeros) is added
        # once, times its length, since every Fraction addition pays two
        # big gcds
        runs = [(v, len(list(group))) for v, group in groupby(self.mass.values())]
        total = sum((v * count for v, count in runs), _ZERO)
        if total != 1:
            raise ValueError(f"{self.kind} table mass sums to {total}, not 1")
        if any(v < 0 for v, _ in runs):
            raise ValueError("negative probability mass")

    def __getitem__(self, j: int) -> Fraction:
        return self.mass.get(j, _ZERO)

    def mean(self) -> Fraction:
        total = _ZERO
        for j, p in self.mass.items():
            total += j * p
        return total

    def cdf(self, j0: int) -> Fraction:
        total = _ZERO
        for j, p in self.mass.items():
            if j <= j0:
                total += p
        return total


def distribution_X(k: int, i: int) -> DistTable:
    """The ``p_X`` column of member i: flat up to gap 2 t(k-1), then
    p(j+1) / p(j) = (2j - 2t + 1) / (2 (j - t + 1)) up to gap 2 t + i - 1,
    t = t(k-1), and zero above."""
    _check_member(k, i)
    t = batch_bound(k - 1)
    p = p_X(k, i, 2 * t)
    mass = dict.fromkeys(range(2 * t + 1), p)
    for j in range(2 * t, 2 * t + i - 1):
        p *= Fraction(2 * j - 2 * t + 1, 2 * (j - t + 1))
        mass[j + 1] = p
    mass.update(dict.fromkeys(range(2 * t + i, 1 << k), _ZERO))
    return DistTable("X", k, i, None, range(0, 1 << k), mass)


def distribution_Y(k: int, i: int) -> DistTable:
    """The ``p_Y`` column of member i: the Ỹ row shifted by 2 t(k-1) + i - 1."""
    _check_member(k, i)
    t = batch_bound(k - 1)
    support = range(2 * t + i - 1, 1 << k)
    mass = dict(zip(support, _y_tilde_terms(t + i, batch_bound(k) - t - i)))
    return DistTable("Y", k, i, None, support, mass)


def distribution_Y_tilde(k: int, i: int, q: int) -> DistTable:
    _check_member(k, i)
    support = range(0, q + 1)
    mass = {j: p_Y_recurrence(k, i, q, j) for j in support}
    return DistTable("Ytilde", k, i, q, support, mass)
