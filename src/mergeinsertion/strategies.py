"""Binary insertion with pluggable pivot-selection strategies.

Inserting into m sorted candidates walks a decision tree whose m + 1
leaves (the possible gaps) sit on at most two adjacent depth levels.
Which gaps get the shorter paths is decided by the pivot rule: the
classic midpoint rules (center-left, center-right) spread them around,
while the skewed rules pack every short path at the low end (left) or
the high end (right) of the range. Every insertion is charged to a
Tally, and nothing else ever touches the counter.

What is charged depends on the ``less`` given to ``binary_insert``.
With the default ``operator.lt`` the keys' own order is the order, so
the gap is found by C bisection (``PosSequence.bisect_right``) and the
insertion is charged that gap's depth in the strategy's decision tree
(``gap_depth``): exactly the comparisons the pivot walk would have
made, since both test ``item < chain[i]``. Any other ``less`` drives the
pivot walk itself: each probe takes its pivot from ``pivot_index`` and
reads it with ``PosSequence.get``, and every call to ``less`` is counted
exactly once. ``pivot_index`` is the only place a probe's pivot is
chosen.

``_gap_depths`` is ``gap_depth`` over numpy arrays, with the center
rules' pivots written out in array form. The sorter uses it
on large default-``less`` sorts, whose gaps and search lengths it works
out from the keys' ranks without a chain or a ``binary_insert`` call.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .sequence import PosSequence


class Strategy(enum.Enum):
    """Pivot-selection rule for binary insertion."""

    CENTER_LEFT = "center-left"
    CENTER_RIGHT = "center-right"
    LEFT = "left"
    RIGHT = "right"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for strategy in cls:
            if strategy.value == name:
                return strategy
        names = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown strategy {name!r}; expected one of: {names}")


class Tally:
    """Monotone comparison counter.

    Under a custom ``less`` it grows by one per call; under the default
    ``less`` by the decision-tree depth of each gap found, the same total.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0) -> None:
        self.count = count

    def __repr__(self) -> str:
        return f"Tally({self.count})"


def _not_a_strategy(strategy) -> ValueError:
    return ValueError(f"strategy must be a Strategy, got {strategy!r}; see Strategy.from_name")


def pivot_index(n: int, strategy: Strategy) -> int:
    """1-based pivot position among ``n`` sorted candidates.

    With k = floor(log2 n): center-left picks floor((n+1)/2), center-right
    ceil((n+1)/2), left max(n - 2^k + 1, 2^(k-1)) and right
    min(2^k, n - 2^(k-1) + 1). Anything but a Strategy, its name too, raises.
    """
    if n < 1:
        raise ValueError("pivot needs at least one candidate")
    full = 1 << (n.bit_length() - 1)
    if strategy is Strategy.CENTER_LEFT:
        return (n + 1) // 2
    if strategy is Strategy.CENTER_RIGHT:
        return (n + 2) // 2
    if strategy is Strategy.LEFT:
        return max(n - full + 1, full >> 1)
    if strategy is Strategy.RIGHT:
        return min(full, n - (full >> 1) + 1)
    raise _not_a_strategy(strategy)


def binary_insert(
    item,
    chain: PosSequence,
    lo: int,
    hi: int,
    strategy: Strategy,
    tally: Tally,
    less: Callable = operator.lt,
) -> int:
    """Position in [lo, hi] where ``item`` belongs within chain[lo:hi].

    chain[lo:hi] must be sorted ascending by ``less`` and contain no key
    equal to ``item``; inserting the item at the returned position keeps
    the chain sorted. ``tally`` grows by the comparisons the strategy's
    pivot walk makes. With the default ``less`` none is made: the gap g
    comes from ``chain.bisect_right`` and the tally grows by
    ``gap_depth(hi - lo, g - lo, strategy)``, which is that same count.
    Any other ``less`` is called once per pivot comparison, each probe at
    the pivot ``pivot_index`` picks among the candidates left.
    """
    if not 0 <= lo <= hi <= len(chain):
        raise IndexError(f"invalid range [{lo}, {hi}) for length {len(chain)}")
    if less is operator.lt:
        pos = chain.bisect_right(item, lo, hi)
        tally.count += gap_depth(hi - lo, pos - lo, strategy)
        return pos
    n = hi - lo
    get = chain.get
    while n > 0:
        c = pivot_index(n, strategy)
        idx = lo + c - 1
        tally.count += 1
        if less(item, get(idx)):
            n = c - 1
        else:
            lo = idx + 1
            n -= c
    return lo


def gap_depth(m: int, g: int, strategy: Strategy) -> int:
    """Comparisons an m-candidate insertion makes to end in gap g (0 <= g <= m).

    Equal to ``decision_depths(m, strategy)[g]`` without building the
    tuple. With d = m.bit_length() the depth is d - 1 or d. LEFT puts the
    2^d - (m + 1) short gaps first and RIGHT puts them last; the center
    rules follow ``pivot_index`` down the walk until the candidates left
    number 2^j - 1, whose gaps all lie j deeper.
    """
    if strategy is Strategy.LEFT:
        d = m.bit_length()
        return d - 1 if g < (1 << d) - m - 1 else d
    if strategy is Strategy.RIGHT:
        d = m.bit_length()
        return d - 1 if m - g < (1 << d) - m - 1 else d
    depth = 0
    while m & (m + 1):
        c = pivot_index(m, strategy)
        depth += 1
        if g < c:
            m = c - 1
        else:
            g -= c
            m -= c
    return depth + m.bit_length()


def _bit_lengths(m: np.ndarray) -> np.ndarray:
    # frexp's exponent of a positive value is its bit length, and 0 for 0;
    # exact while m < 2^53, where int64 to float64 loses nothing
    return np.frexp(m)[1].astype(np.int64)


def _gap_depths(m: np.ndarray, g: np.ndarray, strategy: Strategy) -> np.ndarray:
    """``gap_depth`` over int64 arrays: element i is gap_depth(m[i], g[i], strategy).

    Takes 0 <= g <= m < 2^53. LEFT and RIGHT are one comparison with the
    short-gap count; the center rules run the pivot walk on every element
    at once, each step on the elements whose candidates do not yet number
    2^j - 1, so it takes at most max(m).bit_length() steps.
    """
    if strategy is Strategy.LEFT or strategy is Strategy.RIGHT:
        d = _bit_lengths(m)
        short = (1 << d) - m - 1
        return d - ((g if strategy is Strategy.LEFT else m - g) < short)
    bump = 1 if strategy is Strategy.CENTER_LEFT else 2  # pivot_index: (m + bump) // 2
    depth = np.zeros_like(m)
    live = (m & (m + 1)) != 0
    while live.any():
        c = (m + bump) >> 1
        low = g < c
        depth += live
        m = np.where(live, np.where(low, c - 1, m - c), m)
        g = np.where(live & ~low, g - c, g)
        live = (m & (m + 1)) != 0
    return depth + _bit_lengths(m)


@lru_cache(maxsize=None)
def decision_depths(m: int, strategy: Strategy) -> tuple[int, ...]:
    """Comparison count for each of the m + 1 gaps of an m-candidate insertion.

    Built by the pivot rule itself: with c = pivot_index(m, strategy), the
    first c gaps are those of the c - 1 candidates below the pivot and the
    rest those of the m - c above it, each one comparison deeper. The
    depths take at most two consecutive values; exactly
    2^ceil(log2(m+1)) - (m+1) gaps get the shorter one.
    """
    if m < 0:
        raise ValueError("candidate count must be non-negative")
    if m == 0:
        return (0,)
    c = pivot_index(m, strategy)
    return tuple(d + 1 for d in decision_depths(c - 1, strategy) + decision_depths(m - c, strategy))
