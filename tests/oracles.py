"""Independent brute-force oracles used to validate the analytic code.

Everything here favours directness over speed: plain lists, exhaustive
enumeration, exact rationals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from mergeinsertion.sorter import batch_bound, _prefer_pair
from mergeinsertion.strategies import Strategy, decision_depths


def batch_outcomes(k: int) -> list[tuple[tuple, Fraction]]:
    """All final arrangements of one insertion batch, with probabilities.

    The batch members are inserted from the bottom of the batch upward;
    at each step every gap below the member's partner is equally likely.
    In that order the gap counts of later steps do not depend on earlier
    choices, so all final arrangements come out equally likely, which is
    exactly the uniform-random-input model.
    """
    t_prev = batch_bound(k - 1)
    t_cur = batch_bound(k)
    chain0 = tuple(("x", r) for r in range(1, 2 * t_prev + 1)) + tuple(
        ("a", i) for i in range(t_prev + 1, t_cur + 1)
    )
    outcomes: list[tuple[tuple, Fraction]] = []

    def insert(chain: tuple, i: int, weight: Fraction) -> None:
        if i > t_cur:
            outcomes.append((chain, weight))
            return
        limit = chain.index(("a", i))
        share = weight / (limit + 1)
        for gap in range(limit + 1):
            insert(chain[:gap] + (("b", i),) + chain[gap:], i + 1, share)

    insert(chain0, t_prev + 1, Fraction(1))
    return outcomes


def oracle_p_X(outcomes, k: int, i: int, j: int) -> Fraction:
    """P(member i rests in gap j) by counting non-batch elements below it."""
    t_prev = batch_bound(k - 1)
    total = Fraction(0)
    for chain, weight in outcomes:
        pos = chain.index(("b", t_prev + i))
        below = sum(1 for e in chain[:pos] if e[0] != "b")
        if below == j:
            total += weight
    return total


def oracle_p_Y(outcomes, k: int, i: int, j: int) -> Fraction:
    """P(member i was inserted into j elements).

    In the final arrangement everything below the member's partner except
    the i lower batch members was on the chain when the member went in.
    """
    t_prev = batch_bound(k - 1)
    total = Fraction(0)
    for chain, weight in outcomes:
        pos = chain.index(("a", t_prev + i))
        if pos - i == j:
            total += weight
    return total


def oracle_mean_Y(outcomes, k: int, i: int) -> Fraction:
    t_prev = batch_bound(k - 1)
    total = Fraction(0)
    for chain, weight in outcomes:
        total += (chain.index(("a", t_prev + i)) - i) * weight
    return total


_ids = itertools.count()


def brute_cost(segments: tuple[tuple, ...], strategy: Strategy) -> tuple[int, int]:
    """External path length and leaf count of a batch insertion, keeping
    full element identity (no collapsing of equivalent branches).

    ``segments[s]`` holds the identities settled between partners s and
    s + 1 (segment 0 sits below the lowest partner); one element is
    pending per segment and the highest goes in first.
    """
    r = len(segments)
    if r == 0:
        return (0, 1)
    m = r - 1 + sum(len(seg) for seg in segments)
    depths = decision_depths(m, strategy)
    new_id = next(_ids)
    path = 0
    leaves = 0
    index = 0
    for s, seg in enumerate(segments):
        for slot in range(len(seg) + 1):
            grown = seg[:slot] + (new_id,) + seg[slot:]
            child = (segments[:s] + (grown,) + segments[s + 1 :])[: r - 1]
            sub_path, sub_leaves = brute_cost(child, strategy)
            path += sub_path + depths[index] * sub_leaves
            leaves += sub_leaves
            index += 1
    return (path, leaves)


def initial_segments(s: int, e: int) -> tuple[tuple, ...]:
    """Starting segments for inserting b_(s+1) .. b_e over 2s settled elements."""
    base = tuple(("x", r) for r in range(2 * s))
    return (base,) + ((),) * (e - s - 1)


def urn_step(law: list[int], below: int, gaps: int) -> list[int]:
    """One Pólya draw into ``gaps`` gaps, ``below + n`` of them below the
    tracked element while ``law[n]`` holds; a draw there moves n up by one."""
    nxt = [0] * (len(law) + 1)
    for n, v in enumerate(law):
        b = below + n
        nxt[n] += v * (gaps - b)
        nxt[n + 1] += v * b
    return nxt


def rank_law(s: int, i: int) -> tuple[list[list[int]], int]:
    """``exact_analysis._rank_law(s, i)`` from scratch: each old element's
    N_c law is run through every lower member b_(s+1) .. b_(i-1) anew."""
    old = s + i - 1
    lower = i - s - 1
    den = 1
    for j in range(s + 1, i):
        den *= 2 * j - 1
    # cdfs[c][x] = den * P(N_c <= x)
    cdfs = [[den] * (lower + 1)]
    for c in range(1, old + 1):
        law = [1]
        for j in range(s + 1, i):
            gaps = 2 * j - 1
            # law[N] has c + N gaps below the element
            law = [0] + [v * gaps for v in law] if s + j <= c else urn_step(law, c, gaps)
        cdfs.append(list(accumulate(law)))
    cdfs.append([0] * lower + [den])
    columns = [[cdfs[c][x] - (cdfs[c + 1][x - 1] if x else 0) for c in range(old + 1)] for x in range(lower + 1)]
    return columns, (2 * i - 1) * den


def position_law(s: int, i: int, z: int) -> tuple[tuple[int, ...], int]:
    """The law ``exact_analysis._urn(s, i)`` yields at Z = z, from scratch:
    each column of ``rank_law(s, i)`` (one per X) runs through z higher
    members; the t-th (t = 1 .. z) lands in one of 2i + t - 1 gaps below
    a_i, below b_i in pos + X + 1 of them, and the law of pos sums the
    columns."""
    columns, den = rank_law(s, i)
    for gaps in range(2 * i, 2 * i + z):
        columns = [urn_step(column, x + 1, gaps) for x, column in enumerate(columns)]
        den *= gaps
    return tuple(map(sum, zip(*columns))), den


def prefer_pair_table(m_max: int) -> list[bool]:
    """The pair-or-single rule for chain lengths 0..m_max, in exact rationals.

    A search over u gaps puts its leaves on two levels, 2^d - u of them at
    depth d - 1 and the rest at depth d (d = ceil(log2 u)), so it costs
    T(u) = d + 1 - 2^d / u on average. The larger of two fresh keys lands
    in gap g of m + 1 with probability 2(g + 1) / ((m + 1)(m + 2)), and
    the smaller then searches the g + 1 gaps below it. The pair wins when
    1 + E[smaller's cost] <= T(m + 2), the second of two single searches.
    """

    def t(u: int) -> Fraction:
        d = (u - 1).bit_length()
        return Fraction(d + 1) - Fraction(1 << d, u)

    table = []
    weighted = Fraction(0)  # sum of u * T(u) over u = 1..m + 1
    for m in range(m_max + 1):
        weighted += (m + 1) * t(m + 1)
        e_small = 2 * weighted / ((m + 1) * (m + 2))
        table.append(1 + e_small <= t(m + 2))
    return table


def one_two_cost_by_values(prefix_vals: list, rest_vals: tuple, strategy: Strategy) -> int:
    """Comparison count of the one-or-two insertion procedure, replayed
    arithmetically on concrete values (no chain data structure)."""
    chain = sorted(prefix_vals)
    cost = 0
    i = 0
    while i < len(rest_vals):
        m = len(chain)
        if i + 1 < len(rest_vals) and _prefer_pair(m):
            x, y = rest_vals[i], rest_vals[i + 1]
            cost += 1
            small, big = (x, y) if x < y else (y, x)
            gap_big = bisect_left(chain, big)
            cost += decision_depths(m, strategy)[gap_big]
            gap_small = bisect_left(chain, small)
            cost += decision_depths(gap_big, strategy)[gap_small]
            chain.insert(gap_big, big)
            chain.insert(gap_small, small)
            i += 2
        else:
            v = rest_vals[i]
            gap = bisect_left(chain, v)
            cost += decision_depths(m, strategy)[gap]
            chain.insert(gap, v)
            i += 1
    assert chain == sorted(chain)
    return cost


def one_two_mean_oracle(prefix_size: int, rest_size: int, strategy: Strategy) -> Fraction:
    """Mean comparison count over every arrangement of which values are in
    the rest and in which order they arrive."""
    n = prefix_size + rest_size
    total = Fraction(0)
    count = 0
    for rest_vals in itertools.permutations(range(n), rest_size):
        prefix_vals = sorted(set(range(n)) - set(rest_vals))
        total += one_two_cost_by_values(prefix_vals, rest_vals, strategy)
        count += 1
    return total / count


def earlier_below(values: list) -> list[int]:
    """#{s < t : values[s] < values[t]} for each t, by a Fenwick tree over
    the values' ranks, filled in time order."""
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    tree = [0] * (len(values) + 1)
    out = []
    for v in values:
        i = rank[v] - 1  # prefix sum over ranks below v's
        below = 0
        while i > 0:
            below += tree[i]
            i -= i & -i
        out.append(below)
        i = rank[v]
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return out
