"""MergeInsertion (Ford-Johnson) sorting and its variants, all counting comparisons.

The sort runs in three phases: pair up the input and compare each pair,
recursively sort the larger elements, then binary-insert the smaller
elements into the growing main chain in batches. Batch k inserts
b_t(k), b_t(k)-1, ..., b_t(k-1)+1 where t(k) = (2^(k+1) + (-1)^k) / 3,
which caps every insertion of that batch at 2^k - 1 chain elements and
hence at k comparisons. Variants provided here: a factor-stretched
batch schedule, (1,2)-insertion into a sorted prefix, which pairs at most
its first two keys, into a prefix of 0 or 1 keys (``_prefer_pair``), and
a combined algorithm that batch-sorts up to the nearest favourable size
and inserts the remainder by that insertion, never as a pair.

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
PosSequence, a list whose ``get`` the pivot walk reads each probe with.

``_sort`` checks the keys once, on the sorted output, at no counted
comparison. Under the default ``less`` each output key must be below the
next (for keys ``_typed`` converts, on the sorted int64 or float64
array), which rejects keys that compare equal, hashable or not, and NaN: a
repeated object always leaves a repeated object in the output, and the
sort itself never relies on distinct keys to stay in bounds. The prefix
must ascend the same way, checked before the sort. A custom ``less`` is
trusted with the order (checking it would spend comparisons), and its
keys must be distinct values by hash, or distinct objects when
unhashable.

Under the default ``less`` every count is a function of ranks, so a sort
of at least ``_RANK_MIN`` (512) keys builds no chain: the native sort is
one numpy argsort (``_ranked``: of an int64 or float64 array when every
key is exactly an ``int`` in int64 range or exactly a ``float``, else of
the object array), which ranks the keys 0..n-1 in int32 (int64 from 2^31
keys on). Every level then works on such a dense permutation, the head
of ``combined_sort`` renumbered once to its own (``_renumbered``).
``_rank_levels`` counts every recursion level of the head, down to two
keys, with a few array calls, no sort or search among them, and one
dominance count (``_earlier_below``), and ``_one_two_count`` counts the whole
(1,2)-insertion of the rest with one more. From ``_OVERLAP_MIN`` (24576)
head keys on, level 0's dominance count runs on a worker thread beside
the deeper levels, but only when the process's CPU affinity mask holds
a second CPU; the counts, records and sorted items are the same either
way. Smaller sorts, and any sort under a custom ``less``, run the chain
sort and ``_insert_one_two``; they stay the reference the rank counts
are tested against.
"""

from __future__ import annotations

import operator
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat

import numpy as np

from .sequence import PosSequence
from .strategies import Strategy, Tally, _gap_depths, _not_a_strategy, binary_insert


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
                # plain indexing, not chain.get(p): a partner read is not a probe
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


# Fewest keys of a default-less sort counted from ranks; smaller sorts run
# the chain sort. Timing whole sorts of n random 63-bit keys from ranks
# against the chain sort on its plain-list chain, interleaved pairs of 20
# sorts (2 vCPU, Python 3.11, numpy 2.4): the chain sort was faster in 11
# of 15 pairs at n = 512 (medians 0.79 against 0.86 ms) and in 9 and 8 of
# 10 in two more runs, in 7 to 8 of 10 at 576 and 640, in 1 of 10 at 704
# and in none of 15 at 768 (1.20 against 1.07 ms). The crossover lies
# between 640 and 704, but below it the chain gains under 15% and loses
# about one pair in five, so the threshold stays at 512.
_RANK_MIN = 512


def _earlier_below(ranks: np.ndarray) -> np.ndarray:
    """out[t] = #{s < t : ranks[s] < ranks[t]} for ``ranks`` a permutation
    of 0..w-1 in time order; int32 counts, int64 from w = 2^31 on.

    Bottom-up merge ranks: at level L, ``order`` lists the times with each
    aligned block of 2^L times sorted by rank. A key's position inside its
    block, less its position inside its half at level L - 1, counts the
    keys of the other half below it; only keys of the right half, whose
    other half is earlier, keep it. Each level's order is a stable argsort
    of the previous one keyed by (block, rank), keys that already form two
    sorted runs per block, so ceil(log2 w) near-linear passes count all w
    times. The merge keys take 2 * ceil(log2 w) bits: uint32 up to
    w = 2^16, int64 beyond. Each key's count moves with it from order to
    order and goes back to time order once, at the end.
    """
    w = len(ranks)
    count = np.zeros(w, dtype=ranks.dtype)
    if w < 2:
        return count
    bits = (w - 1).bit_length()
    key = np.uint32 if 2 * bits <= 32 else np.int64
    rank = ranks.astype(key, copy=False)
    order = np.arange(w, dtype=key)
    position = np.arange(w, dtype=count.dtype)
    for level in range(1, bits + 1):
        step = np.argsort(order >> level << bits | rank, kind="stable")
        order = order[step]
        rank = rank[step]
        count = count[step]
        # (position - block start) - (step - half start), the half starting
        # 2^(L-1) into the block; kept by right-half keys only. Every
        # operand is in the counts' dtype, so no ufunc mixes dtypes
        below = position - step.astype(count.dtype)
        below += 1 << (level - 1)
        below *= (order >> (level - 1) & 1).astype(count.dtype)
        count += below
    out = np.empty_like(count)
    out[order] = count
    return out


def _rank_level(
    ranks: np.ndarray, schedule: Schedule, tally: Tally
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay out one level of the default-less sort of ``ranks``, a permutation
    of 0..w-1 (int32, or int64 from w = 2^31 on), building no chain, and
    add its pairing comparisons to ``tally``.

    Returns the ranks of the larger keys among themselves, which the next
    level sorts, each insertion's batch and search length in insertion
    order, and the two arrays ``_level_depths`` counts the insertions from:
    each inserted b's rank among them and its gap short of E(b_j).

    Under native order an insertion's count depends on ranks only:
    member b_j (partner a_j, inserted in batch order) lands in gap g = #{a_i < b_j} + [b_1 < b_j] + E(b_j) of a search over
    limit = j + E(a_j) keys, where E(v) counts the b's inserted earlier on
    this level that lie below v; the unpaired leftover's a_j is above all
    keys. No sort or search runs: the a's are the set bits of a presence
    mask, in ascending order, and its cumsum gives both #{a_i < v} and the
    next level's ranks. What is left of v's rank, v - g, is its rank among
    the inserted b's, which the dominance count (``_earlier_below``) takes
    to find E(b_j); E(a_j) needs none. The lo - 2 b's of the batches before
    batch [lo, hi] lie below their partners, so below a_j. Inside the
    batch, inserted from b_hi down, the a's fall as time runs on: member s,
    with T_s of the batch's a's above it, lies below a_j exactly at the
    times t with s < t < T_s. As T_s > s,
    limit = j + lo - 2 + t - #{s : T_s <= t}, and j + t = hi.
    """
    w = len(ranks)
    half = w // 2
    low, high = ranks[:half], ranks[half:2 * half]
    larger = np.maximum(low, high)
    is_a = np.zeros(w, dtype=bool)
    is_a[larger] = True
    partner = np.empty_like(ranks)
    partner[larger] = np.minimum(low, high)
    b = partner[np.flatnonzero(is_a)]
    if w % 2:
        b = np.append(b, ranks[-1])
    # a_below[v] = #{a_i <= v}, which is #{a_i < v} for every b
    a_below = np.cumsum(is_a, dtype=ranks.dtype)
    larger = a_below[larger] - 1
    del partner, is_a
    # one row per batch; a level of two keys has none
    k, lo, hi = np.array(list(schedule.batches(len(b))), dtype=ranks.dtype).reshape(-1, 3).T
    size = hi - lo + 1
    # batch [lo, hi] starts at time lo - 2, and each member's t + j is lo + hi - 2
    top = np.repeat(lo + hi - 2, size)
    lo = np.repeat(lo, size)
    values = b[top - 1 - np.arange(len(top), dtype=ranks.dtype)]
    below = a_below[values]
    gap = below + (values > b[0])
    del a_below, b
    values -= gap  # each inserted b's rank among them
    # T_s = hi - max(below, lo - 1) >= 1, counted at time lo - 2 + T_s; a
    # T_s equal to the batch size lands on the next batch's start, which
    # the difference taken there leaves out
    reached = np.cumsum(np.bincount(top - np.maximum(below, lo - 1), minlength=len(top) + 1))
    limit = top - (reached[:len(top)] - reached[lo - 2])
    tally.count += half
    return larger, np.repeat(k, size), limit, values, gap


def _level_depths(values: np.ndarray, gap: np.ndarray, limit: np.ndarray, strategy: Strategy) -> np.ndarray:
    """Each insertion's comparisons on one level laid out by ``_rank_level``:
    the dominance count over ``values`` adds E(b_j) to ``gap`` (in place),
    then the gap's depth in a search over ``limit`` keys."""
    gap += _earlier_below(values)
    return _gap_depths(limit, gap, strategy)


def _typed(data: list) -> np.ndarray | None:
    """``data`` as int64s when every key is exactly an ``int`` that fits, as
    float64s when every key is exactly a ``float``, else None.

    Everything else stays on the object sort: ``bool`` and other int
    subclasses, numpy scalars, and ints mixed with floats, since 2**53 + 1
    and 2.0**53 differ natively but not as float64s.
    """
    kinds = set(map(type, data))
    if kinds == {float}:
        return np.fromiter(data, dtype=np.float64, count=len(data))
    if kinds == {int}:
        try:
            return np.fromiter(data, dtype=np.int64, count=len(data))
        except OverflowError:
            return None
    return None


def _ranked(data: list) -> tuple[list, np.ndarray]:
    """``data`` in ascending native order, and each key's rank in it: int32,
    int64 from 2^31 keys on.

    Keys that ``_typed`` converts are argsorted as that array, the rest by
    a stable object argsort; either way the caller's objects come back,
    the object array taken in that order. Each sorted key must be below
    the next, or ValueError: on the sorted typed array, which rejects
    what native ``<`` does (NaN, -0.0 beside 0.0, equal keys) at a small
    share of ``_ascending``'s cost, else on the sorted objects. So the
    typed sort need not be stable: equal keys fail in any order.
    """
    typed = _typed(data)
    keys = np.fromiter(data, dtype=object, count=len(data))
    if typed is None:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order].tolist()
        if not _ascending(ordered):
            raise ValueError(_NOT_DISTINCT)
    else:
        order = np.argsort(typed)
        typed = typed[order]
        if not (typed[1:] > typed[:-1]).all():
            raise ValueError(_NOT_DISTINCT)
        del typed
        ordered = keys[order].tolist()
    del keys
    ranks = np.empty(len(data), dtype=np.int32 if len(data) < 1 << 31 else np.int64)
    ranks[order] = np.arange(len(data), dtype=ranks.dtype)
    return ordered, ranks


def _renumbered(ranks: np.ndarray, n: int) -> np.ndarray:
    """Each of ``ranks``, distinct values in 0..n-1, replaced by its rank
    among them: one cumsum of a presence mask, no sort."""
    present = np.zeros(n, dtype=bool)
    present[ranks] = True
    return (np.cumsum(present, dtype=ranks.dtype) - 1)[ranks]


# Fewest head keys whose level-0 count runs on a worker thread. Timing
# whole default-less sorts of n random 62-bit keys with the worker against
# without, interleaved in-process pairs (2 vCPU, Python 3.11, numpy 2.4):
# the worker lost at n = 8192 and 12288 (+24% and +15%, 2 and 6 of 41
# pairs), won 9 to 49 of 41 to 81 pairs from 14336 to 22528 (-9% to
# +16%), 35 to 65 of 61 to 81 at 24576 (-1% to -7%), and from 28672 on
# 45 of 61 up to 81 of 81 (-5% to -25%; -21% to -25% at 2^17 and 2^18).
_OVERLAP_MIN = 24576


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _LevelCount:
    """``_level_depths(*args)`` on a worker thread, started at once, or on
    the caller's thread when none can start (RuntimeError). It touches no
    tally or records; ``result`` waits for it and returns its depths or
    raises what the count raised."""

    def __init__(self, *args) -> None:
        self._args = args
        self._outcome = None
        self._thread = threading.Thread(target=self._run, name="merge-insertion level 0")
        try:
            self._thread.start()
        except RuntimeError:  # no thread to be had: count here
            self._thread = None
            self._run()

    def _run(self) -> None:
        try:
            self._outcome = _level_depths(*self._args)
        except BaseException as error:  # raised again in the caller by result()
            self._outcome = error
        self._args = None

    def wait(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def result(self) -> np.ndarray:
        self.wait()
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


def _rank_levels(
    ranks: np.ndarray,
    strategy: Strategy,
    schedule: Schedule,
    tally: Tally,
    records: list | None,
) -> None:
    """Count the default-less sort of ``ranks``, a permutation of 0..w-1, level by level.

    Every level, down to two keys, is one _rank_level pass of array calls
    and one _level_depths count. From ``_OVERLAP_MIN`` keys on, when the
    process may run on a second CPU, level 0's count runs on a worker
    thread (``_LevelCount``) while this one lays out and counts the deeper
    levels; each level's count reads only arrays its layout has finished.
    The depths are added and recorded here after the join, so the count
    and the records are the same either way. The records come out deepest
    level first, as the chain sort appends them.
    """
    kept = []  # (depth, batch, limit, used) per level, when collecting
    top = None  # level 0's count, when it runs on the worker
    depth = 0
    if len(ranks) >= _OVERLAP_MIN and _usable_cpus() > 1:
        ranks, batch, limit, values, gap = _rank_level(ranks, schedule, tally)
        top = _LevelCount(values, gap, limit, strategy)
        del values, gap
        if records is not None:
            kept.append((depth, batch, limit, None))
        depth += 1
    try:
        while len(ranks) > 1:
            ranks, batch, limit, values, gap = _rank_level(ranks, schedule, tally)
            used = _level_depths(values, gap, limit, strategy)
            del values, gap
            tally.count += int(used.sum())
            if records is not None:
                kept.append((depth, batch, limit, used))
            depth += 1
    finally:
        if top is not None:
            top.wait()
    if top is not None:
        used = top.result()
        tally.count += int(used.sum())
        if records is not None:
            kept[0] = (*kept[0][:3], used)
    if records is not None:
        for depth, batch, limit, used in reversed(kept):
            records.extend(zip(repeat(depth), batch.tolist(), limit.tolist(), used.tolist()))


# perfbench/workloads.py reads _prefer_pair.cache_info(), so the cache stays
@lru_cache(maxsize=None)
def _prefer_pair(m: int) -> bool:
    """Whether two fresh keys at chain length m go in as a pair: m < 2.

    The pair route costs one ordering comparison, a search of the whole
    chain for the larger key and a search below it for the smaller; two
    single insertions search m and then m + 1 keys. The whole-chain
    search is on both sides, and the larger of two fresh keys lands in
    gap g with probability 2(g + 1) / (N(N + 1)), N = m + 1, so with
    T(u) = ceil(log2 u) + 1 - 2^ceil(log2 u) / u, the uniform cost over u
    gaps, the pair wins (ties too) when
    1 + sum over u = 1..N of 2u T(u) / (N(N + 1)) <= T(N + 1).
    As log2 u <= T(u) <= log2 u + 0.0861 and the sum of u log2 u is at
    least the integral of x log2 x over [0, N], the left side is at least
    1 + N / (N + 1) (log2 N - 1 / (2 ln 2)), which beats
    log2(N + 1) + 0.0861 by at least 0.07 from N = 64 on. Below that the
    exact rationals (``tests/oracles.prefer_pair_table``) give true at
    m = 0 and m = 1 only.
    """
    return m < 2


def _insert_one_two(
    chain: PosSequence,
    rest: list,
    strategy: Strategy,
    tally: Tally,
    less: Callable,
) -> None:
    singles = iter(rest)
    if len(rest) > 1 and _prefer_pair(len(chain)):
        x, y = next(singles), next(singles)
        tally.count += 1
        small, big = (x, y) if less(x, y) else (y, x)
        pos = binary_insert(big, chain, 0, len(chain), strategy, tally, less=less)
        chain.insert(pos, big)
        chain.insert(binary_insert(small, chain, 0, pos, strategy, tally, less=less), small)
    for item in singles:
        chain.insert(binary_insert(item, chain, 0, len(chain), strategy, tally, less=less), item)


def _one_two_count(n: int, rest: np.ndarray, strategy: Strategy) -> int:
    """Comparisons _insert_one_two makes inserting the keys of ranks
    ``rest`` into the n - len(rest) other keys of a permutation of 0..n-1,
    those already sorted, under native order.

    Only the first two keys can go in as a pair, larger key first; then
    every key lands in gap g = #{prefix < v} + E(v), where E(v) counts the
    keys inserted earlier that lie below v. #{prefix < v} is v less v's
    rank among the rest, and E comes from the dominance count over those
    ranks. A single key and the larger of the pair search the whole chain,
    the smaller the larger's gap.
    """
    pair = len(rest) > 1 and _prefer_pair(n - len(rest))
    values = np.concatenate((np.sort(rest[:2])[::-1], rest[2:])) if pair else rest
    own = _renumbered(values, n)
    gap = values - own
    gap += _earlier_below(own)
    del own
    limit = n - len(rest) + np.arange(len(rest), dtype=rest.dtype)
    if pair:
        limit[1] = gap[0]
    return pair + int(_gap_depths(limit, gap, strategy).sum())


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
    native-order dispatch are here. Under the default ``less`` the prefix
    must ascend strictly, neighbour by neighbour, before the sort, and
    the sorted output must ascend the same way (both uncounted); a sort
    of at least ``_RANK_MIN`` keys counts both phases from the ranks of
    one argsort, whose output ``_ranked`` checks, a smaller one runs the
    chain sort and checks its output.
    """
    # checked before any work: a name such as "left" fails at the first
    # pivot only, and a sort below two keys makes none
    if not isinstance(strategy, Strategy):
        raise _not_a_strategy(strategy)
    # a bare factor such as 1.03 would fail deep in the sort, or pass below two keys
    if not isinstance(schedule, Schedule):
        raise ValueError(f"schedule must be a Schedule, got {schedule!r}; e.g. Schedule(Fraction('1.03'))")
    tally = Tally()
    native = less is operator.lt
    if native:
        if not _ascending(data, p):
            raise ValueError(_UNSORTED_PREFIX)
    else:
        _require_distinct(data)  # a custom less is trusted to find the prefix sorted
    if native and len(data) >= _RANK_MIN:
        items, ranks = _ranked(data)
        head = ranks if h == len(data) else _renumbered(ranks[p:p + h], len(data))
        _rank_levels(head, strategy, schedule, tally, records)
        del head
        if p + h < len(data):
            tally.count += _one_two_count(len(data), ranks[p + h:], strategy)
        return SortOutcome(items, tally.count, records)
    items = data[:p] + _merge_insertion_sort(data[p:p + h], strategy, schedule, less, tally, records, 0)
    if p + h < len(data):
        chain = PosSequence.from_items(items)
        _insert_one_two(chain, data[p + h:], strategy, tally, less)
        items = chain.to_list()
    if native and not _ascending(items):
        raise ValueError(_NOT_DISTINCT)
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

    The exact expected comparison counts decide each move: a single
    binary insertion, or a pair insertion (one comparison orders the two,
    the larger is binary-inserted into the whole chain, the smaller only
    into the part below it). Under two-layer search trees the pair pays
    off only at a chain of 0 or 1 keys (``_prefer_pair``), so at most the
    first two keys of ``rest`` go in as a pair, into a prefix of 0 or 1
    keys, and every other key goes in singly. The prefix may be any
    sorted iterable, a PosSequence too; it is copied, never changed.

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
    (1,2)-insertion of the remainder. No keys cost no comparisons. The
    sorted prefix holds at least 2 keys whenever a remainder is left, so
    the remainder goes in singly: no pair is ever taken.

    Under the default ``less``, from ``_RANK_MIN`` keys on, the keys are
    ranked once and both phases are counted from the ranks
    (``_rank_levels``, then ``_one_two_count``), building no chain.
    """
    data = list(items)
    return _sort(data, 0, combined_prefix_size(len(data)) if data else 0, strategy, schedule, less, None)
