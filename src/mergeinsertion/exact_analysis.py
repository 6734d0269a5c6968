"""Exact average comparison counts, by linearity of expectation.

The average cost over all input permutations equals the average over
the uniformly random final arrangements of the batch, and each member's
comparisons are a fixed function of that arrangement:
``decision_depths(Y)[pos]``, where Y is the number of chain elements it
is inserted into and pos its gap among them. So a batch's average cost
is the sum of its members' expected costs (``cost``).

For batch (s, e) and member b_i (s < i <= e), the chain below a_i holds
L = s + i - 1 old elements (the 2s settled ones and a_(s+1) .. a_(i-1))
and the Z higher members b_j (j > i) that landed below a_i; b_i lands at
pos = C + W, with C its gap among the old elements and W the higher
members below it. A uniform arrangement comes from placing b_(s+1), ..,
b_e in increasing order, each into one of the 2j - 1 gaps below a_j,
which splits the joint law of (Z, C, W) into three exact parts:

* the lower members fix the law of (C, X), X being the lower members
  below b_i, so R = C + X is b_i's rank below a_i (``_rank_law``, whose
  laws advance member by member: b_(i+1)'s come from b_i's by one Pólya
  draw of all old elements at once);
* Z follows the Ỹ law, the integer row ``probability._y_tilde_terms(i,
  e - i)``, and does not depend on (C, X);
* given Z = z, each higher member lands below b_i with probability
  (rank + 1) / (gaps below a_i), a Pólya urn run one member at a time
  (``_urn``).

Both urns advance as whole arrays (``_urn_draw``): the laws are the rows
of one numpy ``object`` array of exact Python ints, and one draw moves
every row in a single array step, not one interpreted loop per law.

The expected cost of b_i given Z = z does not depend on e, so truncated
batches share it (``_MEMBER_SUMS``). Each member and strategy has its
own urn, and each law it yields is summed and dropped: no law is kept,
so cold F(1..400) peaks at ~190 MB, and each further strategy replays
its own urns. Everything is integers over common denominators: one
Horner pass over z sums a member, which ends in one ``Fraction`` per
member, and each batch is costed once per strategy.

The collapsed decision tree stays as ``cost_insert``: the exact path
length and leaf count of inserting any pending state, which the tests
use as the reference for the member sum. It tracks, per pending
element, only the number of settled elements in each partner gap:
branches that agree on those counts behave identically from then on and
are collapsed, with leaf multiplicities carried along, and each
collapsed state is memoized in ``_COST_CACHE`` under ``(q, strategy)``.

The per-sort average F(n) follows the halving recurrence
F(n) = floor(n/2) + F(floor(n/2)) + G(ceil(n/2)), where G(m) sums the
batch costs of inserting m small elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .probability import _y_tilde_terms
from .sorter import DEFAULT_SCHEDULE
from .strategies import Strategy, _not_a_strategy, decision_depths

# exact_F's time and memory grow steeply with n: cold, F(1..400) takes
# 8-11 s at ~190 MB (2 vCPU, Python 3.11)
EXACT_N_MAX = 400
# exact_F(n) inserts ceil(n / 2) small elements, so exact_G and cost stop there
_INSERT_MAX = (EXACT_N_MAX + 1) // 2


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


_COST_CACHE: dict[tuple[tuple[int, ...], Strategy], tuple[int, int]] = {}


def _cost(q: tuple[int, ...], strategy: Strategy) -> tuple[int, int]:
    if not q:
        return (0, 1)
    hit = _COST_CACHE.get((q, strategy))
    if hit is not None:
        return hit
    r = len(q)
    depths = decision_depths(r - 1 + sum(q), strategy)
    path = 0
    leaves = 0
    index = 0
    for s, count in enumerate(q):
        # landing anywhere in segment s bumps q[s]; the top entry is
        # dropped because its partner leaves the relevant chain
        gaps = count + 1
        child = q[:s] + (gaps,) + q[s + 1 : r - 1] if s < r - 1 else q[: r - 1]
        child_path, child_leaves = _cost(child, strategy)
        path += gaps * child_path + child_leaves * sum(depths[index : index + gaps])
        leaves += gaps * child_leaves
        index += gaps
    result = _COST_CACHE[(q, strategy)] = (path, leaves)
    return result


def cost_insert(state: InsertionState, strategy: Strategy = Strategy.LEFT) -> PathCount:
    """Path length and leaf count for inserting all pending elements."""
    path, leaves = _cost(state.q, strategy)
    return PathCount(path, leaves)


def _urn_draw(laws: np.ndarray, gaps: int) -> np.ndarray:
    """One Pólya draw into ``gaps`` gaps for every row of ``laws`` at once.

    Row r (from 0) tracks one element, with r + 1 + n gaps below it while
    ``laws[r, n]`` holds; a draw there moves n up by one. The rows are
    object arrays of exact ints, and the draw widens them by one.
    """
    rows, width = laws.shape
    below = np.add.outer(np.arange(1, rows + 1), np.arange(width))
    nxt = np.zeros((rows, width + 1), dtype=object)
    nxt[:, :width] = laws * (gaps - below)
    nxt[:, 1:] += laws * below
    return nxt


# s -> (i, laws, den): laws[c - 1, N] = den * P(N_c = N) for the old
# elements c = 1 .. s + i - 1 of member b_i of a batch starting after s
_RANK_STATES: dict[int, tuple[int, np.ndarray, int]] = {}


def _rank_law(s: int, i: int) -> tuple[np.ndarray, int]:
    """Joint law of (C, X) for member b_i of a batch starting after s.

    Returns ``(columns, den)``, ``columns`` an object array of exact ints
    with ``columns[x, c] = den * P(C = c, X = x)``.
    N_c, the lower members below the c-th old element, starts at 0 with c
    gaps below that element; b_j lands below it with probability
    (c + N) / (2j - 1), or surely once a_j is not above it (s + j <= c).
    With N_0 = 0 and N_(L+1) = i - s - 1, b_i's uniform rank among the
    2i - 1 gaps below a_i gives
    P(C = c, X = x) = [P(N_c <= x) - P(N_(c+1) <= x - 1)] / (2i - 1).

    The laws of N_c are the rows of one array and advance member by
    member: from b_j to b_(j+1) the new old element c = s + j = a_j joins
    as a point mass at N = j - s - 1 (b_(s+1) .. b_(j-1) are below it),
    and then every row takes one ``_urn_draw`` with 2j - 1 gaps, which
    moves a_j's row up surely. A state per s keeps the last member's laws
    and starts again from b_(s+1)'s 2s laws ``[1]`` when asked for an
    earlier member.
    """
    state = _RANK_STATES.get(s)
    if state is None or state[0] > i:
        state = (s + 1, np.ones((2 * s, 1), dtype=object), 1)
    start, laws, den = state
    for j in range(start, i):
        new = np.zeros((1, j - s), dtype=object)
        new[0, -1] = den
        gaps = 2 * j - 1
        laws = _urn_draw(np.vstack((laws, new)), gaps)
        den *= gaps
    _RANK_STATES[s] = (i, laws, den)
    rows, width = laws.shape
    # cdfs[c, x] = den * P(N_c <= x)
    cdfs = np.zeros((rows + 2, width), dtype=object)
    cdfs[0] = den
    cdfs[1 : rows + 1] = np.cumsum(laws, axis=1)
    cdfs[rows + 1, width - 1] = den
    columns = cdfs[:-1]
    columns[:, 1:] = cdfs[:-1, 1:] - cdfs[1:, :-1]
    return columns.T, (2 * i - 1) * den


def _urn(s: int, i: int):
    """Yield b_i's gap law among the chain it searches, given Z = 0, 1, ...

    Each item is ``(law, den)`` with ``law[pos] = den * P(pos | Z = z)``.
    The state is the joint law of (X, pos), one array with a row per X;
    one more higher member below a_i lands in one of the 2i + z gaps
    there, below b_i in X + 1 + pos of them, which moves pos up by one.
    So each higher member is one ``_urn_draw`` of the whole state, and the
    law is the state's column sum.
    """
    state, den = _rank_law(s, i)
    gaps = 2 * i
    while True:
        yield tuple(state.sum(axis=0)), den
        state = _urn_draw(state, gaps)
        den *= gaps
        gaps += 1


# (s, i, strategy) -> (b_i's own urn, [(den_z, S_z) for z = 0, 1, ...]) with
# S_z = den_z * E[decision_depths(s + i - 1 + z)[pos] | Z = z]; the urn
# advances only past the laws summed so far, and keeps none of them
_MEMBER_SUMS: dict[tuple[int, int, Strategy], tuple] = {}


@lru_cache(maxsize=None)
def cost(s: int, e: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Average comparisons to insert batch members b_(s+1) .. b_e into a
    chain already holding 2s settled elements below partner s + 1.

    By linearity of expectation this is the sum over members b_i and the
    Ỹ law of Z of the member costs E[decision_depths(L + z)[pos] | Z = z];
    see the module docstring. It equals
    ``cost_insert(InsertionState((2s,) + (0,) * (e - s - 1))).average``
    without walking that tree.

    Each member's sum over z is one Horner pass in integers: with
    P(Z = z) = N_z / D and urn denominators den_z = den_0 (2i)(2i + 1)
    .. (2i + z - 1), acc <- acc (2i + z - 1) + N_z S_z ends at
    D den_q times the member's cost, S_z being ``_MEMBER_SUMS``' entry.

    ``e == s`` denotes an empty batch and costs 0; ``e < s``, ``s < 1`` or
    ``e > _INSERT_MAX`` is a domain error, raised before any work.
    """
    if not isinstance(strategy, Strategy):
        raise _not_a_strategy(strategy)
    if s < 1:
        raise ValueError("batch start must be at least 1")
    if e < s:
        raise ValueError("batch end must not precede its start")
    if e > _INSERT_MAX:
        raise ValueError(f"batch end must be at most {_INSERT_MAX} for the exact average, got {e}")
    total = Fraction(0)
    for i in range(s + 1, e + 1):
        q = e - i
        weights, den = _y_tilde_terms(i, q)
        urn, sums = _MEMBER_SUMS.setdefault((s, i, strategy), (_urn(s, i), []))
        for z in range(len(sums), q + 1):
            law, den_z = next(urn)
            sums.append((den_z, sum(map(mul, law, decision_depths(s + i - 1 + z, strategy)))))
        acc = 0
        for z, (weight, (_den_z, member_sum)) in enumerate(zip(weights, sums)):
            acc = acc * (2 * i + z - 1) + weight * member_sum
        total += Fraction(acc, den * sums[q][0])
    return total


@lru_cache(maxsize=None)
def exact_G(n: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Average comparisons of the whole insertion phase for n small elements,
    n at most ``_INSERT_MAX``; a larger n raises before any work."""
    if not isinstance(strategy, Strategy):
        raise _not_a_strategy(strategy)
    if n < 1:
        raise ValueError("need at least one element")
    if n > _INSERT_MAX:
        raise ValueError(f"n must be at most {_INSERT_MAX} for the exact insertion phase, got {n}")
    return sum((cost(lo - 1, hi, strategy) for _k, lo, hi in DEFAULT_SCHEDULE.batches(n)), Fraction(0))


@lru_cache(maxsize=None)
def exact_F(n: int, strategy: Strategy = Strategy.LEFT) -> Fraction:
    """Exact average comparison count over all n! input orders.

    F(n) * n! is always an integer: it is the external path length of a
    decision tree with n! integer-depth leaves. Sizes above
    ``EXACT_N_MAX`` raise ValueError before any work.
    """
    if not isinstance(strategy, Strategy):
        raise _not_a_strategy(strategy)
    if n < 1:
        raise ValueError("need at least one element")
    if n > EXACT_N_MAX:
        raise ValueError(f"n must be at most {EXACT_N_MAX} for the exact average, got {n}")
    if n == 1:
        return Fraction(0)
    return n // 2 + exact_F(n // 2, strategy) + exact_G((n + 1) // 2, strategy)
