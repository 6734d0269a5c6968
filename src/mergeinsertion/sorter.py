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

One engine, ``_sort``, runs all three sorters on one key list and two
cut points: ``data[:p]`` is a sorted prefix, the head ``data[p:p+h]`` is
merge-inserted, and the rest is (1,2)-inserted into the prefix plus the
sorted head. ``merge_insertion`` is (p, h) = (0, n), ``combined_sort``
(0, combined_prefix_size(n)) and ``one_two_insertion`` (len(prefix), 0).

Keys are opaque; the only way the algorithms learn about them is a
strict-total-order ``less`` callback. A custom ``less`` is counted
exactly once per call. The default, ``operator.lt``, lets each binary
insertion find its gap by C bisection on the keys' native ``<`` and
count the decision-tree depth of that gap (``strategies.gap_depth``):
the comparisons the pivot walk would have made, so the counts are the
same. Each smaller key searches only below its partner, whose chain
position the batch loop finds by one downward walk over the partners'
identities, the same for any ``less`` (uncounted: the algorithm knows
its partners). The recursion moves the keys themselves: each larger key
finds its smaller partner again by object identity. The main chain is a
PosSequence, addressed by position only.

``_sort`` checks the keys once, at no counted comparison. Under the
default ``less`` it sorts them natively and requires each to be below
the next, which rejects keys that compare equal, hashable or not, and
NaN; the prefix must ascend the same way. A custom ``less`` is trusted
with the order (checking it would spend comparisons), and its keys must
be distinct values by hash, or distinct objects when unhashable.

Under the default ``less`` every count is a function of ranks, so from
``_RANK_MIN`` (512) keys on the native sort is one stable numpy argsort
(``_ranked``) and no chain is built for the big steps: ``_rank_levels``
counts each recursion level of the head of that many keys with a few
array calls, the smaller levels running the chain sort on the ranks,
and ``_one_two_count`` counts the whole (1,2)-insertion of the rest.
512 is about where the two cost the same. Below it, and for a custom
``less``, the chain sort and ``_insert_one_two`` run; they stay the
reference the rank counts are tested against.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat

import numpy as np

from .sequence import PosSequence
from .strategies import Strategy, Tally, _gap_depths, binary_insert


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

    A float factor is read as the decimal it prints (1.2 as 6/5). The
    factor must lie in [1, 2): below 1 the boundaries are not
    guaranteed to increase, and at 2 or above the first boundary leaves 1
    so elements between b_2 and b_floor(factor) would never be inserted.
    """

    factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        factor = Fraction(repr(float(self.factor)) if isinstance(self.factor, float) else self.factor)
        object.__setattr__(self, "factor", factor)
        if not 1 <= factor < 2:
            raise ValueError(f"schedule factor must be in [1, 2), got {factor}")

    def t(self, k: int) -> int:
        # floor(factor * t(k)) in integers: Fraction arithmetic here was
        # most of the time of a small sort
        return self.factor.numerator * batch_bound(k) // self.factor.denominator

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


_NOT_DISTINCT = "keys must be pairwise distinct"
_UNSORTED_PREFIX = "sorted_prefix must be in ascending order"


def _require_distinct(items: list) -> None:
    # for a custom less: hash-based, so no key comparison is spent;
    # unhashable keys are taken as distinct on the caller's word, but must
    # at least be distinct objects, because the sorter tells partners
    # apart by id()
    try:
        unique = len(set(items))
    except TypeError:
        unique = len({id(x) for x in items})
    if unique != len(items):
        raise ValueError(_NOT_DISTINCT)


def _ascending(items: list, stop: int | None = None) -> bool:
    """Whether each of the first ``stop`` keys (default all) is below the
    next under native ``<`` (uncounted)."""
    return all(map(operator.lt, islice(items, stop), islice(items, 1, stop)))


class _Fenwick:
    """Prefix sums over 1..n plus a positional search. No sort builds one; it stays
    because ``perfbench/workloads.py`` wraps ``sorter._Fenwick`` by name on import."""

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
    # identity of the larger key, which the key check makes unique
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

    for k, lo, hi in schedule.batches(m_total):
        # a_hi starts at lo + hi - 2, above the t(k-1) inserted b's and
        # a_1..a_(hi-1); b_j goes in below a_j, so a_(j-1) stays at or
        # below a_j's old position and one walk down finds every partner
        p = lo + hi - 2
        for j in range(hi, lo - 1, -1):
            if j > half:
                limit = len(chain)  # unpaired element searches the whole chain
            else:
                # chain[p], not chain.get(p): a partner read is not a probe
                while chain[p] is not a_sorted[j - 1]:
                    p -= 1
                limit = p
            item = b_ord[j - 1]
            before = tally.count
            pos = binary_insert(item, chain, 0, limit, strategy, tally, less=less)
            chain.insert(pos, item)
            if records is not None:
                records.append((depth, k, limit, tally.count - before))

    return chain.to_list()


# Fewest keys of a default-less level counted from ranks; smaller levels
# run _merge_insertion_sort on their ranks. The crossover, timing whole
# sorts of n random 63-bit keys with only the top level from ranks against
# the chain sort, in interleaved pairs (2 vCPU, Python 3.11, numpy 2.4):
# the rank count was faster in 30 of 133 pairs at n = 448 and in 92 of
# 117 at n = 512. At 2^14 keys any value from 128 to 2048 costs the same.
_RANK_MIN = 512


def _earlier_below(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """out[q, t] = #{s < t : values[s] < queries[q, t]}, for non-negative int64s.

    An offline dominance count over time blocks: [0, t) is the union of
    one block of 2^L times for each bit L set in t, namely the block just
    below t's bits above L. Pass L sorts the values keyed by
    (time >> L, value), where block B fills sorted positions from B * 2^L
    on, and finds each query's count in its block by one searchsorted, so
    ceil(log2 w) passes cover w times. The queries are searched in sorted
    order, which runs several times faster than in time order.
    """
    w = len(values)
    out = np.zeros(queries.shape, dtype=np.int64)
    if w < 2:
        return out
    span = int(max(values.max(), queries.max())) + 1
    times = np.arange(w, dtype=np.int64)
    for level in range((w - 1).bit_length()):
        keys = times >> level
        asking = np.flatnonzero(keys & 1)
        keys *= span
        keys += values
        keys.sort()
        block = (asking >> level) - 1
        for row, query in zip(out, queries):
            needles = query[asking] + block * span
            order = np.argsort(needles)
            row[asking[order]] += np.searchsorted(keys, needles[order]) - (block[order] << level)
    return out


def _rank_level(
    ranks: np.ndarray, strategy: Strategy, schedule: Schedule, tally: Tally, keep: bool
) -> tuple[np.ndarray, tuple | None]:
    """Count one level of the default-less sort of distinct int64 ``ranks``, building no chain.

    Returns the larger keys, which the next level sorts, and, if ``keep``,
    each insertion's batch, search length and count in insertion order.
    Under native order an insertion's count depends on ranks only: member
    b_j (partner a_j, inserted in batch order) lands in gap
    g = #{a_i < b_j} + [b_1 < b_j] + E(b_j) of a search over
    limit = j + E(a_j) keys, where E(v) counts the b's inserted earlier on
    this level that lie below v. Every b of an earlier batch, and b_1,
    lies below a_j, so the limit is the chain position of a_j, as in
    _merge_insertion_sort; the unpaired leftover's a_j is above all keys.
    """
    half = len(ranks) // 2
    low, high = ranks[:half], ranks[half:2 * half]
    larger = np.maximum(low, high)
    order = np.argsort(larger)
    a = larger[order]
    b = np.minimum(low, high)[order]
    if len(ranks) % 2:
        b = np.append(b, ranks[-1])
        a = np.append(a, ranks.max() + 1)
    batches = list(schedule.batches(len(b)))
    j = np.concatenate([np.arange(hi, lo - 1, -1) for _, lo, hi in batches])
    queries = np.stack((b[j - 1], a[j - 1]))
    gap = np.searchsorted(a, queries[0]) + (queries[0] > b[0])
    del order, a, b  # freed before the dominance count, where a level's memory peaks
    below = _earlier_below(queries[0], queries)
    gap += below[0]
    limit = j + below[1]
    used = _gap_depths(limit, gap, strategy)
    tally.count += half + int(used.sum())
    if not keep:
        return larger, None
    batch = np.repeat([k for k, _, _ in batches], [hi - lo + 1 for _, lo, hi in batches])
    return larger, (batch, limit, used)


def _ranked(data: list) -> tuple[list, np.ndarray]:
    """``data`` in ascending native order, and each key's int64 rank in it,
    by one stable object argsort."""
    keys = np.fromiter(data, dtype=object, count=len(data))
    order = np.argsort(keys, kind="stable")
    ordered = keys[order].tolist()
    del keys
    ranks = np.empty(len(data), dtype=np.int64)
    ranks[order] = np.arange(len(data))
    return ordered, ranks


def _rank_levels(
    ranks: np.ndarray,
    strategy: Strategy,
    schedule: Schedule,
    tally: Tally,
    records: list | None,
) -> None:
    """Count the default-less sort of distinct int64 ``ranks`` level by level.

    Each level of at least _RANK_MIN keys is one _rank_level pass of
    array calls; the rest recurse through _merge_insertion_sort on
    ``ranks.tolist()``. The records come out deepest level first, as that
    sort appends them.
    """
    kept = []  # (depth, batch, limit, used) per counted level, when collecting
    depth = 0
    while len(ranks) >= _RANK_MIN:
        ranks, level = _rank_level(ranks, strategy, schedule, tally, records is not None)
        if level is not None:
            kept.append((depth, *level))
        depth += 1
    _merge_insertion_sort(ranks.tolist(), strategy, schedule, operator.lt, tally, records, depth)
    if records is not None:
        for depth, batch, limit, used in reversed(kept):
            records.extend(zip(repeat(depth), batch.tolist(), limit.tolist(), used.tolist()))


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


def _one_two_count(prefix: np.ndarray, rest: np.ndarray, strategy: Strategy) -> int:
    """Comparisons _insert_one_two makes inserting ``rest`` into ``prefix``
    under native order, both distinct non-negative int64s, ``prefix`` sorted.

    The single-or-pair choice depends on the chain length only, so the
    walk needs no keys. A pair goes in larger key first; then every key
    lands in gap g = #{prefix < v} + E(v), where E(v) counts the keys
    inserted earlier that lie below v. A single key and the larger of a
    pair search the whole chain, the smaller of a pair the larger's gap.
    """
    w = len(rest)
    base = len(prefix)
    firsts = []  # time of each pair's first key
    i = 0
    while i < w:
        if i + 1 < w and _prefer_pair(base + i):
            firsts.append(i)
            i += 2
        else:
            i += 1
    first = np.array(firsts, dtype=np.int64)
    values = rest.copy()
    values[first] = np.maximum(rest[first], rest[first + 1])
    values[first + 1] = np.minimum(rest[first], rest[first + 1])
    gap = np.searchsorted(prefix, values) + _earlier_below(values, values[None])[0]
    limit = base + np.arange(w, dtype=np.int64)
    limit[first + 1] = gap[first]
    return len(firsts) + int(_gap_depths(limit, gap, strategy).sum())


def _sort(
    data: list,
    p: int,
    h: int,
    strategy: Strategy,
    schedule: Schedule,
    less: Callable,
    records: list | None,
) -> SortOutcome:
    """Merge-insert the head ``data[p:p+h]``, then (1,2)-insert the rest
    ``data[p+h:]`` into the sorted prefix ``data[:p]`` plus the sorted head.

    The public sorters use p = 0 or h = 0. Every check and the one
    native-order dispatch are here: under the default ``less`` the keys
    are sorted natively and must ascend strictly, neighbour by neighbour,
    and so must the prefix (both uncounted); from ``_RANK_MIN`` keys on,
    both phases are counted from the ranks of that sort.
    """
    # binary_insert tells the rules apart by identity, so a name such as
    # "left" would fall through to some rule instead of failing
    if not isinstance(strategy, Strategy):
        raise ValueError(f"strategy must be a Strategy, got {strategy!r}; see Strategy.from_name")
    # a bare factor such as 1.03 would fail deep in the sort, or pass below two keys
    if not isinstance(schedule, Schedule):
        raise ValueError(f"schedule must be a Schedule, got {schedule!r}; e.g. Schedule(Fraction('1.03'))")
    tally = Tally()
    ranks = None
    if less is operator.lt:
        if len(data) >= _RANK_MIN:
            ordered, ranks = _ranked(data)
        else:
            ordered = sorted(data)
        if not _ascending(ordered):
            raise ValueError(_NOT_DISTINCT)
        if not _ascending(data, p):
            raise ValueError(_UNSORTED_PREFIX)
    else:
        _require_distinct(data)  # a custom less is trusted to find the prefix sorted
    if ranks is not None:
        _rank_levels(ranks[p:p + h], strategy, schedule, tally, records)
        if p + h < len(data):
            tally.count += _one_two_count(np.sort(ranks[:p + h]), ranks[p + h:], strategy)
        return SortOutcome(ordered, tally.count, records)
    items = data[:p] + _merge_insertion_sort(data[p:p + h], strategy, schedule, less, tally, records, 0)
    if p + h < len(data):
        chain = PosSequence.from_items(items)
        _insert_one_two(chain, data[p + h:], strategy, tally, less)
        items = chain.to_list()
    return SortOutcome(items, tally.count, records)


def merge_insertion(
    items: Iterable,
    strategy: Strategy = Strategy.LEFT,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    less: Callable = operator.lt,
    collect_insertions: bool = False,
) -> SortOutcome:
    """Sort distinct keys by batched binary insertion, counting comparisons."""
    data = list(items)
    return _sort(data, 0, len(data), strategy, schedule, less, [] if collect_insertions else None)


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

    Under the default ``less`` an unsorted prefix raises ValueError,
    checked on native ``<`` at no counted comparison, and from
    ``_RANK_MIN`` keys in all the count comes from ranks
    (``_one_two_count``), building no chain. A custom ``less`` is trusted
    to find the prefix sorted: checking it would spend comparisons.
    """
    data = list(sorted_prefix)
    p = len(data)
    data.extend(rest)
    return _sort(data, p, 0, strategy, DEFAULT_SCHEDULE, less, None)


def combined_prefix_size(n: int) -> int:
    """Largest floor(2^(k+2) / 3) not exceeding n.

    These are the input sizes (1, 2, 5, 10, 21, 42, ...) where the batched
    sort sits closest to the comparison lower bound; the combined
    algorithm sorts that many elements with it and (1,2)-inserts the rest.
    floor(2^j / 3) <= n exactly when 2^j <= 3n + 2.
    """
    if n < 1:
        raise ValueError("need at least one element")
    return (1 << ((3 * n + 2).bit_length() - 1)) // 3


def combined_sort(
    items: Iterable,
    strategy: Strategy = Strategy.LEFT,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    less: Callable = operator.lt,
) -> SortOutcome:
    """Batched sort of the first combined_prefix_size(n) keys, then
    (1,2)-insertion of the remainder. No keys cost no comparisons.

    Under the default ``less``, from ``_RANK_MIN`` keys on, the keys are
    ranked once and both phases are counted from the ranks
    (``_rank_levels``, then ``_one_two_count``), building no chain for
    the (1,2)-phase.
    """
    data = list(items)
    return _sort(data, 0, combined_prefix_size(len(data)) if data else 0, strategy, schedule, less, None)
