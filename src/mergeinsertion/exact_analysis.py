"""Exact average comparison counts via decision-tree path lengths.

The average cost over all input permutations equals the external path
length of the comparison tree divided by its number of leaves. The tree
for one insertion batch is evaluated exactly by tracking, per pending
element, only the number of settled elements in each partner gap:
branches that agree on those counts behave identically from then on and
are collapsed, with leaf multiplicities carried along. Path lengths and
leaf counts stay integers throughout; division happens once at the end,
so every value here is an exact rational.

Each collapsed state is memoized under one packed integer key: 16-bit
fields holding the strategy's code and then the gap counts, with a set
bit above the last field marking the length. A child state's key is
its parent's key with the top field cleared and the length bit moved
down one field, plus one in the bumped field, so the recursion looks
every child up in the memo before it recurses and builds a child tuple
only on a miss. Chains of 2^16 or more elements do not fit the fields
and are rejected up front.

The per-sort average F(n) follows the halving recurrence
F(n) = floor(n/2) + F(floor(n/2)) + G(ceil(n/2)), where G(m) sums the
batch costs of inserting m small elements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .sorter import DEFAULT_SCHEDULE
from .strategies import Strategy, decision_depths


@dataclass(frozen=True)
class InsertionState:
    """Settled-element counts seen by the pending insertions.

    ``q[0]`` counts chain elements below the lowest pending partner;
    ``q[s]`` (s >= 1) counts elements settled between partners s and
    s + 1. One element is pending per entry, inserted highest first.
    """

    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x < 0 for x in self.q):
            raise ValueError("gap counts must be non-negative")

    @property
    def pending(self) -> int:
        return len(self.q)

    @property
    def chain_elements(self) -> int:
        """Elements the next pending insertion searches through."""
        if not self.q:
            return 0
        return len(self.q) - 1 + sum(self.q)


@dataclass(frozen=True)
class PathCount:
    """External path length and leaf count of a decision (sub)tree."""

    path_length: int
    leaves: int

    def __post_init__(self) -> None:
        if self.leaves < 1:
            raise ValueError("a decision tree has at least one leaf")

    @property
    def average(self) -> Fraction:
        return Fraction(self.path_length, self.leaves)


# A state packs into one int of 16-bit fields: field 0 holds the
# strategy's position in ``Strategy``, field s + 1 holds q[s], and one
# set bit just above the last field marks the length, so (1,) and (1, 0)
# get different keys. The gap counts are packed as the bytes of an
# unsigned-short array.
_FIELD = 8 * array("H").itemsize
_STRATEGIES = tuple(Strategy)

_COST_CACHE: dict[int, tuple[int, int]] = {}


@lru_cache(maxsize=None)
def _depth_prefix(m: int, code: int) -> tuple[int, ...]:
    """Running sums of ``decision_depths``: gaps a..b-1 cost prefix[b] - prefix[a]."""
    return tuple(accumulate(decision_depths(m, _STRATEGIES[code]), initial=0))


def _cost(q: tuple[int, ...], strategy: Strategy, memo: dict | None) -> tuple[int, int]:
    r = len(q)
    if not r:
        return (0, 1)
    elements = r - 1 + sum(q)
    if elements >> _FIELD:
        raise ValueError(f"a chain of {elements} elements does not fit the {_FIELD}-bit state fields")
    code = _STRATEGIES.index(strategy)  # by identity: no Python-level enum hash
    top = _FIELD * r
    key = code | int.from_bytes(array("H", q).tobytes(), "little") << _FIELD | 1 << (top + _FIELD)
    lookup = (memo if memo is not None else {}).get
    hit = lookup(key)
    if hit is not None:
        return hit
    prefix = _depth_prefix(elements, code)
    # landing anywhere in segment s bumps q[s]; the top entry is dropped
    # because its partner leaves the relevant chain, which in the key
    # clears the top field and moves the length bit down one field
    base = key & ((1 << top) - 1) | 1 << top
    last = r - 1
    bump = 1 << _FIELD
    path = 0
    leaves = 0
    index = 0
    for s, count in enumerate(q):
        gaps = count + 1
        # look the child up before recursing: a hit costs no call and no tuple
        child = lookup(base + bump if s < last else base)
        if child is None:
            child = _cost(q[:s] + (gaps,) + q[s + 1 : last] if s < last else q[:last], strategy, memo)
        child_path, child_leaves = child
        end = index + gaps
        path += gaps * child_path + child_leaves * (prefix[end] - prefix[index])
        leaves += gaps * child_leaves
        index = end
        bump <<= _FIELD
    result = (path, leaves)
    if memo is not None:
        memo[key] = result
    return result


def cost_insert(state: InsertionState, strategy: Strategy = Strategy.LEFT) -> PathCount:
    """Path length and leaf count for inserting all pending elements."""
    path, leaves = _cost(state.q, strategy, _COST_CACHE)
    return PathCount(path, leaves)


def cost(s: int, e: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Average comparisons to insert batch members b_(s+1) .. b_e into a
    chain already holding 2s settled elements below partner s + 1.

    ``e == s`` denotes an empty batch and costs 0; ``e < s`` or ``s < 1``
    is a domain error.
    """
    if s < 1:
        raise ValueError("batch start must be at least 1")
    if e < s:
        raise ValueError("batch end must not precede its start")
    if e == s:
        return Fraction(0)
    state = InsertionState((2 * s,) + (0,) * (e - s - 1))
    return cost_insert(state, strategy).average


def exact_G(n: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Average comparisons of the whole insertion phase for n small elements."""
    if n < 1:
        raise ValueError("need at least one element")
    return sum((cost(lo - 1, hi, strategy) for _k, lo, hi in DEFAULT_SCHEDULE.batches(n)), Fraction(0))


@lru_cache(maxsize=None)
def exact_F(n: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Exact average comparison count over all n! input orders.

    F(n) * n! is always an integer: it is the external path length of a
    decision tree with n! integer-depth leaves.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n == 1:
        return Fraction(0)
    return n // 2 + exact_F(n // 2, strategy) + exact_G((n + 1) // 2, strategy)
