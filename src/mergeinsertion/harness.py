"""Seeded experiment runner and TSV emission for comparison-count studies.

Permutations come from a named, platform-independent generator (PCG64
seeded per (seed, n)), so the same configuration always reproduces the
same counts byte for byte. Means are accumulated in exact integer
arithmetic before the final division; the reported normalized mean is
(mean - n log2 n) / n.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .sorter import (
    Schedule,
    combined_sort,
    merge_insertion,
    one_two_insertion,
)
from .strategies import Strategy

GENERATOR = "pcg64"  # identity of the permutation stream, for output metadata

ALGORITHMS = ("mi", "one-two", "combined")

_EXHAUSTIVE_MAX = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """One comparison-count experiment: sizes, algorithm, and sampling."""

    ns: tuple[int, ...]
    algorithm: str = "mi"
    strategy: Strategy = Strategy.LEFT
    factor: Fraction = Fraction(1)
    trials: int | None = None
    seed: int = 0
    exhaustive: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "factor", Schedule(self.factor).factor)  # also checks the range
        if not self.ns:
            raise ValueError("need at least one input size")
        if any(n < 1 for n in self.ns):
            raise ValueError("input sizes must be at least 1")
        sort_fn(self.algorithm, self.strategy, self.factor)  # validates the algorithm
        _check_trials(self.trials)
        if self.exhaustive and any(n > _EXHAUSTIVE_MAX for n in self.ns):
            raise ValueError(f"exhaustive mode enumerates n! permutations; limited to n <= {_EXHAUSTIVE_MAX}")
        if self.exhaustive and self.trials is not None:
            raise ValueError("exhaustive mode enumerates all n! permutations; it takes no trial count")


@dataclass(frozen=True)
class TrialStats:
    """Aggregated counts for one input size."""

    n: int
    trials: int
    mean: float
    std: float
    normalized: float


def default_trials(n: int) -> int:
    """Trial schedule 10..10000, shrinking with n (10^7 / n in between)."""
    return max(10, min(10000, 10_000_000 // n))


def _check_trials(trials: int | None) -> None:
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")


def normalized_mean(mean: float, n: int) -> float:
    return (mean - n * math.log2(n)) / n


def sort_fn(algorithm: str, strategy: Strategy, factor: Fraction):
    """The sort named by ``algorithm`` (one of ALGORITHMS), as a callable
    from keys to SortOutcome.

    The sorts are looked up among this module's globals at call time, so
    a wrapper installed on ``harness.merge_insertion`` sees every call.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    schedule = Schedule(factor)
    if algorithm == "mi":
        return lambda keys: merge_insertion(keys, strategy, schedule)
    if algorithm == "one-two":
        return lambda keys: one_two_insertion([], keys, strategy)
    return lambda keys: combined_sort(keys, strategy, schedule)


def _count_fn(algorithm: str, strategy: Strategy, factor: Fraction):
    sort = sort_fn(algorithm, strategy, factor)
    return lambda perm: sort(perm).comparisons


def _rng(seed: int, n: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n))))


def paired_counts(n: int, trials: int | None, seed: int, counters) -> list[list[int]]:
    """One column of counts per counter, every counter seeing the same
    seeded permutations of range(n) in the same order; ``trials`` None
    means default_trials(n)."""
    rng = _rng(seed, n)
    columns: list[list[int]] = [[] for _ in counters]
    for _ in range(trials if trials is not None else default_trials(n)):
        perm = rng.permutation(n).tolist()
        for column, count in zip(columns, counters):
            column.append(count(perm))
    return columns


def _stats_from_counts(n: int, counts: list[int]) -> TrialStats:
    mean = Fraction(sum(counts), len(counts))
    std = float(statistics.stdev(counts)) if len(counts) > 1 else 0.0
    return TrialStats(n, len(counts), float(mean), std, normalized_mean(float(mean), n))


def exhaustive_counts(
    n: int,
    algorithm: str = "mi",
    strategy: Strategy = Strategy.LEFT,
    factor: Fraction = Fraction(1),
) -> list[int]:
    """Comparison counts over all n! input orders (n <= 8)."""
    if n > _EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive enumeration limited to n <= {_EXHAUSTIVE_MAX}")
    count = _count_fn(algorithm, strategy, factor)
    return [count(list(perm)) for perm in permutations(range(n))]


def exhaustive_mean(
    n: int,
    algorithm: str = "mi",
    strategy: Strategy = Strategy.LEFT,
    factor: Fraction = Fraction(1),
) -> Fraction:
    """Exact mean comparison count over all n! input orders (n <= 8)."""
    counts = exhaustive_counts(n, algorithm, strategy, factor)
    return Fraction(sum(counts), len(counts))


def run_experiment(cfg: ExperimentConfig) -> list[TrialStats]:
    """Sort seeded random permutations (or every permutation, in
    exhaustive mode) for each configured size and aggregate the counts."""
    count = _count_fn(cfg.algorithm, cfg.strategy, cfg.factor)
    results = []
    for n in cfg.ns:
        if cfg.exhaustive:
            counts = exhaustive_counts(n, cfg.algorithm, cfg.strategy, cfg.factor)
        else:
            (counts,) = paired_counts(n, cfg.trials, cfg.seed, [count])
        results.append(_stats_from_counts(n, counts))
    return results


@dataclass
class Table:
    """Rectangular result table: one header row plus data rows."""

    header: list[str]
    rows: list[list]


def _factor_label(factor) -> str:
    if isinstance(factor, str):
        return factor
    return repr(float(factor))


def _paired_table(header: list[str], counters, ns, trials: int | None, seed: int) -> Table:
    """Normalized mean count per counter (one column each) for every n,
    all counters sorting the same permutations."""
    _check_trials(trials)
    rows = []
    for n in ns:
        columns = paired_counts(n, trials, seed, counters)
        rows.append([n] + [normalized_mean(sum(column) / len(column), n) for column in columns])
    return Table(header, rows)


def sweep_factor(
    ns,
    factors,
    strategy: Strategy = Strategy.LEFT,
    trials: int | None = None,
    seed: int = 0,
) -> Table:
    """Normalized means of the batched sort under stretched schedules,
    one column per factor; every factor sees the same permutations."""
    header = ["num_elements"] + [_factor_label(f) for f in factors]
    counters = [_count_fn("mi", strategy, f) for f in factors]
    return _paired_table(header, counters, ns, trials, seed)


def compare_algorithms(
    ns,
    trials: int | None = None,
    seed: int = 0,
    strategy: Strategy = Strategy.LEFT,
    variant_factor: Fraction = Fraction("1.03"),
) -> Table:
    """Normalized means of the batched sort, the combined algorithm, and
    the combined algorithm under the stretched schedule, on shared
    permutations."""
    header = ["num_elements", "mi", "combined", f"combined-f{_factor_label(variant_factor)}"]
    counters = [
        _count_fn("mi", strategy, 1),
        _count_fn("combined", strategy, 1),
        _count_fn("combined", strategy, variant_factor),
    ]
    return _paired_table(header, counters, ns, trials, seed)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_tsv(table: Table, destination) -> int:
    """Write the table as UTF-8 TSV (header row first, '\\n' rows, '.'
    decimals); returns the number of bytes written.

    ``destination`` is a path or a binary file-like object.
    """
    lines = ["\t".join(table.header)]
    for row in table.rows:
        if len(row) != len(table.header):
            raise ValueError("table rows must match the header width")
        lines.append("\t".join(_cell(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        with open(destination, "wb") as fh:
            fh.write(data)
    return len(data)


def log_spaced_ns(lo: int, hi: int, points: int) -> tuple[int, ...]:
    """Geometrically spaced integer sizes from lo to hi inclusive."""
    if lo < 1 or hi < lo or points < 1:
        raise ValueError("need 1 <= lo <= hi and at least one point")
    if points == 1:
        return (lo,)
    ratio = (hi / lo) ** (1.0 / (points - 1))
    ns = sorted({max(lo, min(hi, round(lo * ratio ** i))) for i in range(points)})
    return tuple(ns)
