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
  laws advance member by member: b_(i+1)'s come from b_i's by one urn
  step per old element);
* Z follows the Ỹ law, the integer row ``probability._y_tilde_terms(i,
  e - i)``, and does not depend on (C, X);
* given Z = z, each higher member lands below b_i with probability
  (rank + 1) / (gaps below a_i), a Pólya urn run one member at a time
  (``_position_law``).

The expected cost of b_i given Z = z does not depend on e, so truncated
batches share it (``_member_sums``). Everything is integers over common
denominators: one Horner pass over z sums a member, which ends in one
``Fraction`` per member, and each batch is costed once per strategy.

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
from itertools import accumulate
from operator import mul

from .probability import _y_tilde_terms
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


def _urn_step(law: list[int], below: int, gaps: int) -> list[int]:
    """One Pólya draw into ``gaps`` gaps, ``below + n`` of them below the
    tracked element while ``law[n]`` holds; a draw there moves n up by one."""
    nxt = [0] * (len(law) + 1)
    for n, v in enumerate(law):
        b = below + n
        nxt[n] += v * (gaps - b)
        nxt[n + 1] += v * b
    return nxt


# s -> (i, laws, den): laws[c - 1][N] = den * P(N_c = N) for the old
# elements c = 1 .. s + i - 1 of member b_i of a batch starting after s
_RANK_STATES: dict[int, tuple[int, list[list[int]], int]] = {}


def _rank_law(s: int, i: int) -> tuple[list[list[int]], int]:
    """Joint law of (C, X) for member b_i of a batch starting after s.

    Returns ``(columns, den)`` with ``columns[x][c] = den * P(C = c, X = x)``.
    N_c, the lower members below the c-th old element, starts at 0 with c
    gaps below that element; b_j lands below it with probability
    (c + N) / (2j - 1), or surely once a_j is not above it (s + j <= c).
    With N_0 = 0 and N_(L+1) = i - s - 1, b_i's uniform rank among the
    2i - 1 gaps below a_i gives
    P(C = c, X = x) = [P(N_c <= x) - P(N_(c+1) <= x - 1)] / (2i - 1).

    The laws of N_c advance member by member: from b_j to b_(j+1) each
    old element takes one ``_urn_step`` with 2j - 1 gaps, and the new old
    element c = s + j, which every b_(s+1) .. b_j landed below, is a point
    mass at N = j - s. A state per s keeps the last member's laws and
    starts again from b_(s+1)'s 2s laws ``[1]`` when asked for an earlier
    member.
    """
    state = _RANK_STATES.get(s)
    if state is None or state[0] > i:
        state = (s + 1, [[1]] * (2 * s), 1)
    start, laws, den = state
    for j in range(start, i):
        gaps = 2 * j - 1
        laws = [_urn_step(law, c, gaps) for c, law in enumerate(laws, 1)]
        laws.append([0] * (j - s) + [den * gaps])
        den *= gaps
    _RANK_STATES[s] = (i, laws, den)
    lower = i - s - 1
    # cdfs[c][x] = den * P(N_c <= x)
    cdfs = [[den] * (lower + 1), *(list(accumulate(law)) for law in laws), [0] * lower + [den]]
    columns = [[cdfs[c][x] - (cdfs[c + 1][x - 1] if x else 0) for c in range(len(laws) + 1)] for x in range(lower + 1)]
    return columns, (2 * i - 1) * den


def _urn(s: int, i: int):
    """Yield b_i's gap law among the chain it searches, given Z = 0, 1, ...

    Each item is ``(law, den)`` with ``law[pos] = den * P(pos | Z = z)``.
    The state is the joint law of (pos, X); one more higher member below
    a_i lands in one of the 2i + z gaps there, below b_i in pos + X + 1
    of them, which moves pos up by one.
    """
    columns, den = _rank_law(s, i)
    gaps = 2 * i
    while True:
        yield tuple(map(sum, zip(*columns))), den
        columns = [_urn_step(column, x + 1, gaps) for x, column in enumerate(columns)]
        den *= gaps
        gaps += 1


# (s, i) -> (the member's urn, the laws it has yielded so far)
_POSITION_LAWS: dict[tuple[int, int], tuple] = {}


def _position_law(s: int, i: int, z: int) -> tuple[tuple[int, ...], int]:
    """``_urn(s, i)``'s law at Z = z, advancing the urn only past the laws it has yielded."""
    entry = _POSITION_LAWS.get((s, i))
    if entry is None:
        entry = _POSITION_LAWS[(s, i)] = (_urn(s, i), [])
    urn, laws = entry
    while len(laws) <= z:
        laws.append(next(urn))
    return laws[z]


# (s, i, strategy) -> [den_z * E[decision_depths(s + i - 1 + z)[pos] | Z = z] for z = 0, 1, ...]
_MEMBER_SUMS: dict[tuple[int, int, Strategy], list[int]] = {}


def _member_sums(s: int, i: int, q: int, strategy: Strategy) -> list[int]:
    """b_i's expected comparisons given Z = z, for z = 0 .. q at least,
    each an integer over the denominator of ``_position_law(s, i, z)``."""
    sums = _MEMBER_SUMS.setdefault((s, i, strategy), [])
    for z in range(len(sums), q + 1):
        law, _den = _position_law(s, i, z)
        sums.append(sum(map(mul, law, decision_depths(s + i - 1 + z, strategy))))
    return sums


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
    D den_q times the member's cost, S_z being ``_member_sums``' entry.

    ``e == s`` denotes an empty batch and costs 0; ``e < s`` or ``s < 1``
    is a domain error.
    """
    if s < 1:
        raise ValueError("batch start must be at least 1")
    if e < s:
        raise ValueError("batch end must not precede its start")
    total = Fraction(0)
    for i in range(s + 1, e + 1):
        q = e - i
        weights, den = _y_tilde_terms(i, q)
        acc = 0
        for z, (weight, member_sum) in enumerate(zip(weights, _member_sums(s, i, q, strategy))):
            acc = acc * (2 * i + z - 1) + weight * member_sum
        total += Fraction(acc, den * _position_law(s, i, q)[1])
    return total


@lru_cache(maxsize=None)
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
