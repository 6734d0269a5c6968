"""MergeInsertion (Ford-Johnson) sorting and its variants, all counting comparisons.

The sort runs in three phases: pair up the input and compare each pair,
recursively sort the larger elements, then binary-insert the smaller
elements into the growing main chain in batches. Batch k inserts
b_t(k), b_t(k)-1, ..., b_t(k-1)+1 where t(k) = (2^(k+1) + (-1)^k) / 3,
which caps every insertion of that batch at 2^k - 1 chain elements and
hence at k comparisons. Variants provided here: a factor-stretched
batch schedule, one-or-two-at-a-time insertion into a sorted prefix,
and a combined algorithm that runs the batched sort up to the nearest
favourable size and hands the remainder to that insertion.

Keys are opaque; the only way the algorithms learn about them is a
strict-total-order ``less`` callback. A custom ``less`` is counted
exactly once per call. The default, ``operator.lt``, lets each binary
insertion find its gap by C bisection on the keys' native ``<`` and
count the decision-tree depth of that gap (``strategies.gap_depth``):
the comparisons the pivot walk would have made, so the counts are the
same. It also finds each partner's chain position, which bounds the
search of its smaller key, by bisecting the few positions it can hold
(uncounted: the algorithm knows them); a custom ``less`` tracks them in
a per-batch Fenwick tree, ``_Fenwick``. The recursion moves the keys
themselves: each larger key finds its smaller partner again by object
identity, so keys must be distinct objects (and, when hashable,
distinct values). The main chain is a PosSequence, addressed by
position only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .sequence import PosSequence
from .strategies import Strategy, Tally, binary_insert


def batch_bound(k: int) -> int:
    """Unstretched batch boundary t(k) = (2^(k+1) + (-1)^k) / 3.

    The sequence runs 1, 1, 3, 5, 11, 21, 43, ... for k = 0, 1, 2, ...
    and satisfies t(k-1) + t(k) = 2^k.
    """
    if k < 0:
        raise ValueError("batch index must be non-negative")
    return ((1 << (k + 1)) + (1 if k % 2 == 0 else -1)) // 3


@dataclass(frozen=True)
class Schedule:
    """Batch boundaries floor(factor * t(k)), the plain algorithm at factor 1.

    The factor must lie in [1, 2): below 1 the boundaries are not
    guaranteed to increase, and at 2 or above the first boundary leaves 1
    so elements between b_2 and b_floor(factor) would never be inserted.
    """

    factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        factor = Fraction(self.factor)
        object.__setattr__(self, "factor", factor)
        if not 1 <= factor < 2:
            raise ValueError(f"schedule factor must be in [1, 2), got {factor}")

    def t(self, k: int) -> int:
        return math.floor(self.factor * batch_bound(k))

    def batches(self, m: int) -> Iterator[tuple[int, int, int]]:
        """Yield (k, lo, hi): batch k inserts b_hi down to b_lo, truncated at m."""
        k = 2
        while self.t(k - 1) < m:
            yield k, self.t(k - 1) + 1, min(self.t(k), m)
            k += 1


DEFAULT_SCHEDULE = Schedule()


@dataclass
class SortOutcome:
    """Sorted keys plus the comparison count that produced them.

    When instrumentation is requested, ``insertions`` lists one tuple
    (recursion depth, batch k, chain elements searched, comparisons used)
    per binary insertion, in execution order.
    """

    items: list
    comparisons: int
    insertions: list[tuple[int, int, int, int]] | None = None


def _require_distinct(items: list) -> None:
    # hash-based so no uncounted key comparisons happen; unhashable keys
    # are taken as distinct on the caller's word, but must at least be
    # distinct objects, because the sorter tells partners apart by id()
    try:
        unique = len(set(items))
    except TypeError:
        unique = len({id(x) for x in items})
    if unique != len(items):
        raise ValueError("keys must be pairwise distinct")


def _require_strategy(strategy) -> None:
    # binary_insert tells the rules apart by identity, so a name such as
    # "left" would fall through to some rule instead of failing
    if not isinstance(strategy, Strategy):
        raise ValueError(f"strategy must be a Strategy, got {strategy!r}; see Strategy.from_name")


class _Fenwick:
    """Prefix sums over 1..n plus a positional search: partner positions under a custom ``less``."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int) -> None:
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += 1
            i += i & -i

    def prefix(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    def min_reaching(self, target: int) -> int:
        """Smallest s with s + prefix(s) >= target (n + 1 when none)."""
        pos = 0
        acc = 0
        bit = 1 << self.n.bit_length()
        tree = self.tree
        n = self.n
        while bit:
            nxt = pos + bit
            if nxt <= n and acc + tree[nxt] + bit < target:
                pos = nxt
                acc += tree[nxt] + bit
            bit >>= 1
        return pos + 1


def _merge_insertion_sort(
    keys: list,
    strategy: Strategy,
    schedule: Schedule,
    less: Callable,
    tally: Tally,
    records: list | None,
    depth: int,
) -> list:
    """``keys`` in ascending order."""
    n = len(keys)
    if n < 2:
        return list(keys)
    half = n // 2

    # pairing phase: one comparison per pair; partners are found by the
    # identity of the larger key, which _require_distinct makes unique
    larger: list = []
    partner: dict[int, object] = {}
    for i in range(half):
        x = keys[i]
        y = keys[i + half]
        tally.count += 1
        if less(x, y):
            larger.append(y)
            partner[id(y)] = x
        else:
            larger.append(x)
            partner[id(x)] = y

    # recursion on the larger elements; their sorted order renames the
    # smaller partners without any extra comparisons
    a_sorted = _merge_insertion_sort(larger, strategy, schedule, less, tally, records, depth + 1)
    b_ord = [partner[id(a)] for a in a_sorted]
    if n % 2:
        b_ord.append(keys[-1])  # odd leftover acts as the final small element

    m_total = len(b_ord)  # ceil(n / 2)
    chain = PosSequence.from_items([b_ord[0]] + a_sorted)
    native = less is operator.lt

    for k, lo, hi in schedule.batches(m_total):
        t_prev = lo - 1
        # partner a_j sits at t_prev + j - 1 plus the later members b_i
        # (i > j) inserted below it, at most hi - j: the default less bisects
        # that window; a custom less counts insertions per segment, so
        # partner lo+s-1 sits at base + s + prefix(s) without a comparison
        fen = None if native else _Fenwick(hi - lo + 1)
        base = t_prev + lo - 2
        for j in range(hi, lo - 1, -1):
            if j > half:
                limit = len(chain)  # unpaired element searches the whole chain
            elif native:
                first = t_prev + j - 1
                limit = chain.bisect_right(a_sorted[j - 1], first, first + hi - j + 1) - 1
            else:
                limit = t_prev + j - 1 + fen.prefix(j - lo + 1)
            item = b_ord[j - 1]
            before = tally.count
            pos = binary_insert(item, chain, 0, limit, strategy, tally, less=less)
            chain.insert(pos, item)
            if records is not None:
                records.append((depth, k, limit, tally.count - before))
            if fen is not None:
                seg = fen.min_reaching(pos - base)
                cap = j - lo + 1
                fen.add(seg if seg <= cap else cap)

    return chain.to_list()


def merge_insertion(
    items: Iterable,
    strategy: Strategy = Strategy.LEFT,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    less: Callable = operator.lt,
    collect_insertions: bool = False,
) -> SortOutcome:
    """Sort distinct keys by batched binary insertion, counting comparisons."""
    _require_strategy(strategy)
    data = list(items)
    _require_distinct(data)
    tally = Tally()
    records: list | None = [] if collect_insertions else None
    ordered = _merge_insertion_sort(data, strategy, schedule, less, tally, records, 0)
    return SortOutcome(ordered, tally.count, records)


def _t_ins_avg_exact(m: int) -> Fraction:
    # expected uniform-position binary-insertion cost over m gaps
    k = (m - 1).bit_length()
    return Fraction(k + 1) - Fraction(1 << k, m)


@lru_cache(maxsize=None)
def _prefer_pair(m: int) -> bool:
    """Expected-cost rule for two fresh elements at chain length m.

    The pair route costs one ordering comparison, a search of the whole
    chain for the larger element, and a search below it for the smaller;
    two single insertions cost a search of m and then of m + 1 elements.
    The whole-chain search appears on both sides, so the pair route wins
    exactly when 1 + E[smaller's cost] <= E[second single's cost]. The
    larger of two fresh keys lands in gap g with probability
    2(g + 1) / ((m + 1)(m + 2)); everything is evaluated exactly so ties
    (which favor the pair) are detected reliably.
    """
    top = m + 1
    total = 0  # sum over gaps of 2(g+1) * expected smaller-element cost
    j = 1
    while (1 << (j - 1)) < top:
        lo = (1 << (j - 1)) + 1
        hi = min(1 << j, top)
        if hi >= lo:
            sum2u = hi * (hi + 1) - (lo - 1) * lo
            total += (j + 1) * sum2u - (1 << (j + 1)) * (hi - lo + 1)
        j += 1
    # 1 + total / (top (top + 1)) <= _t_ins_avg_exact(m + 2) = k + 1 - 2^k / (top + 1),
    # multiplied through by top (top + 1) to stay in integers
    k = top.bit_length()
    return total + (top << k) <= k * top * (top + 1)


def _insert_one_two(
    chain: PosSequence,
    rest: list,
    strategy: Strategy,
    tally: Tally,
    less: Callable,
) -> None:
    i = 0
    n = len(rest)
    while i < n:
        if i + 1 < n and _prefer_pair(len(chain)):
            x = rest[i]
            y = rest[i + 1]
            tally.count += 1
            if less(x, y):
                small, big = x, y
            else:
                small, big = y, x
            pos = binary_insert(big, chain, 0, len(chain), strategy, tally, less=less)
            chain.insert(pos, big)
            pos_small = binary_insert(small, chain, 0, pos, strategy, tally, less=less)
            chain.insert(pos_small, small)
            i += 2
        else:
            item = rest[i]
            pos = binary_insert(item, chain, 0, len(chain), strategy, tally, less=less)
            chain.insert(pos, item)
            i += 1


def one_two_insertion(
    sorted_prefix,
    rest: Iterable,
    strategy: Strategy = Strategy.LEFT,
    *,
    less: Callable = operator.lt,
) -> SortOutcome:
    """Insert ``rest`` into an already sorted prefix, one or two at a time.

    At every step the exact expected comparison counts decide the move:
    either a single binary insertion, or a pair insertion (one comparison
    orders the two, the larger is binary-inserted into the whole chain,
    the smaller only into the part below it). Under two-layer search
    trees the pair route pays off only while the chain is nearly empty,
    so most elements go in singly. The prefix may be a PosSequence or
    any sorted iterable.
    """
    _require_strategy(strategy)
    prefix_items = list(sorted_prefix)
    rest = list(rest)
    _require_distinct(prefix_items + rest)
    chain = PosSequence.from_items(prefix_items)
    tally = Tally()
    _insert_one_two(chain, rest, strategy, tally, less)
    return SortOutcome(chain.to_list(), tally.count)


def combined_prefix_size(n: int) -> int:
    """Largest floor(2^(k+2) / 3) not exceeding n.

    These are the input sizes (1, 2, 5, 10, 21, 42, ...) where the batched
    sort sits closest to the comparison lower bound; the combined
    algorithm sorts that many elements with it and (1,2)-inserts the rest.
    """
    if n < 1:
        raise ValueError("need at least one element")
    k = 0
    best = 1
    while True:
        cur = (1 << (k + 2)) // 3
        if cur > n:
            return best
        best = cur
        k += 1


def combined_sort(
    items: Iterable,
    strategy: Strategy = Strategy.LEFT,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    less: Callable = operator.lt,
) -> SortOutcome:
    """Batched sort of the first combined_prefix_size(n) keys, then
    (1,2)-insertion of the remainder. No keys cost no comparisons."""
    _require_strategy(strategy)
    data = list(items)
    if not data:
        return SortOutcome([], 0)
    _require_distinct(data)
    m = combined_prefix_size(len(data))
    head = merge_insertion(data[:m], strategy, schedule, less=less)
    chain = PosSequence.from_items(head.items)
    tally = Tally(head.comparisons)
    _insert_one_two(chain, data[m:], strategy, tally, less)
    return SortOutcome(chain.to_list(), tally.count)
