"""Command-line interface: sorting, experiments, exact analysis, and tables.

Every table-producing subcommand writes tab-separated UTF-8 with a
header row, suitable for any plotting tool; reproducibility metadata
(generator identity and seed) goes to stderr so the data stream stays
clean.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import exact_analysis, harness, probability
from .bounds import BOUND_N_MAX
from .exact_analysis import EXACT_N_MAX
from .harness import ExperimentConfig, Table, emit_tsv
from .strategies import Strategy


def _parse_ns(args) -> tuple[int, ...]:
    ns: list[int] = []
    if args.n:
        for part in args.n.split(","):
            ns.append(int(part))
    if getattr(args, "log_range", None):
        lo, hi, points = args.log_range
        ns.extend(harness.log_spaced_ns(lo, hi, points))
    if not ns:
        raise ValueError("no input sizes given; use --n or --log-range")
    if any(n < 1 for n in ns):
        raise ValueError("input sizes must be at least 1")
    return tuple(dict.fromkeys(ns))  # dedupe, keep order


def _strategy(args) -> Strategy:
    return Strategy.from_name(args.strategy)


def _factor(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"schedule factor {text!r} has a zero denominator") from None


def _emit(table: Table, args) -> None:
    if args.out:
        emit_tsv(table, args.out)
    else:
        emit_tsv(table, sys.stdout.buffer)


def _seed(args) -> int:
    # --seed defaults to None so an explicit --seed 0 can be refused where no seed applies
    return 0 if args.seed is None else args.seed


def _note_seed(args) -> None:
    print(f"# generator={harness.GENERATOR} seed={_seed(args)}", file=sys.stderr)


def cmd_sort(args) -> int:
    sort = harness.sort_fn(args.algorithm, _strategy(args), _factor(args.factor))
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    keys = [int(line) for line in text.split()]
    outcome = sort(keys)
    payload = "".join(f"{key}\n" for key in outcome.items).encode()
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    print(f"comparisons: {outcome.comparisons}", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    if args.exhaustive and args.seed is not None:
        raise ValueError("--exhaustive enumerates all n! permutations; it takes no --seed")
    cfg = ExperimentConfig(
        ns=_parse_ns(args),
        algorithm=args.algorithm,
        strategy=_strategy(args),
        factor=_factor(args.factor),
        trials=args.trials,
        seed=_seed(args),
        exhaustive=args.exhaustive,
    )
    _note_seed(args)
    stats = harness.run_experiment(cfg)
    table = Table(
        ["num_elements", "trials", "mean", "stddev", "normalized"],
        [[s.n, s.trials, s.mean, s.std, s.normalized] for s in stats],
    )
    _emit(table, args)
    return 0


def cmd_exact(args) -> int:
    import math

    if args.n_max is not None and args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.n_max is not None and (args.n or args.log_range):
        raise ValueError("--n-max cannot be combined with --n or --log-range")
    ns = range(1, args.n_max + 1) if args.n_max is not None else _parse_ns(args)
    if max(ns) > EXACT_N_MAX:
        raise ValueError(f"input sizes must be at most {EXACT_N_MAX} for the exact average, got {max(ns)}")
    strategy = _strategy(args)
    rows = []
    for n in ns:
        value = exact_analysis.exact_F(n, strategy)
        scaled = value * math.factorial(n)
        if scaled.denominator != 1:
            raise ValueError(f"F({n}) * {n}! = {scaled} is not an integer")
        rows.append([n, scaled.numerator, float(value), harness.normalized_mean(float(value), n)])
    table = Table(["n", "avg_times_factorial", "avg", "normalized"], rows)
    _emit(table, args)
    return 0


# dist tables have 2^k rows; at k = 14 the y table takes ~0.45 s at ~80 MB peak
# RSS, x ~0.5 s at ~48 MB and mean ~0.2 s (cold, 2 vCPU), and each step up
# roughly triples the y and x times and quadruples the y table's memory
DIST_K_MAX = 14


def cmd_dist(args) -> int:
    k = args.k
    if k < 2:
        raise ValueError("batch index --k must be at least 2")
    if k > DIST_K_MAX:
        raise ValueError(f"batch index --k must be at most {DIST_K_MAX}: the table has 2^k rows")
    width = probability.batch_width(k)
    if args.var == "mean":
        if args.i:
            raise ValueError("--i does not apply to --var mean, which lists every member")
        means = [float(mean) for mean in probability._means_Y(k)]  # members w down to 1
        rows = [[i, mean] for i, mean in enumerate(reversed(means), 1)]
        table = Table(["i", "EYi"], rows)
        _emit(table, args)
        return 0
    members = list(dict.fromkeys(args.i or (1, max(1, width // 2), width)))  # dedupe, keep order
    build = probability.distribution_Y if args.var == "y" else probability.distribution_X
    columns = []
    for i in members:
        table = build(k, i)
        columns.append((table.support.start, table.floats()))
        del table  # one exact table alive at a time
    lo = min(start for start, _ in columns)  # every column ends at gap 2^k - 1
    padded = [[0.0] * (start - lo) + floats for start, floats in columns]
    header = ["j"] + [f"{args.var.upper()}{i}" for i in members]
    rows = [[j, *values] for j, values in zip(range(lo, 1 << k), zip(*padded))]
    _emit(Table(header, rows), args)
    return 0


def cmd_bound(args) -> int:
    ns = _parse_ns(args)
    if max(ns) > BOUND_N_MAX:
        raise ValueError(f"input sizes must be at most {BOUND_N_MAX} for the numeric bound, got {max(ns)}")
    normalized = harness.normalized_mean
    rows = [
        [
            n,
            normalized(bounds_mod.lower_bound_log_factorial(n), n),
            normalized(bounds_mod.numeric_upper_bound_F(n), n),
            -bounds_mod.c_of_x(bounds_mod.frac_log2_3n(n)),
            normalized(bounds_mod.worst_case_W(n), n),
        ]
        for n in ns
    ]
    table = Table(["num_elements", "lower", "upper", "c_term", "worst_case"], rows)
    _emit(table, args)
    return 0


# sweep-factor and compare-algos note the seed once the table is built,
# so a bad argument, which the harness finds first, leaves only its error
def cmd_sweep_factor(args) -> int:
    factors = args.factors.split(",")
    for part in factors:
        _factor(part)  # the labels keep the spelling given, so only check it here
    table = harness.sweep_factor(
        _parse_ns(args), factors, _strategy(args), args.trials, _seed(args)
    )
    _note_seed(args)
    _emit(table, args)
    return 0


def cmd_compare_algos(args) -> int:
    table = harness.compare_algorithms(
        _parse_ns(args),
        trials=args.trials,
        seed=_seed(args),
        strategy=_strategy(args),
        variant_factor=_factor(args.factor),
    )
    _note_seed(args)
    _emit(table, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one small parent per option group, so each subcommand takes only the options it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default stdout)")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=None, help="experiment seed (default 0)")
    sampling.add_argument("--trials", type=int, default=None, help="trials per size (default: scaled 10..10000)")

    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument(
        "--strategy",
        default="left",
        choices=[s.value for s in Strategy],
        help="binary-insertion strategy (default left)",
    )

    factor = argparse.ArgumentParser(add_help=False)
    factor.add_argument("--factor", default="1", help="schedule stretch factor, e.g. 1.03 (default 1)")

    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--n", default=None, help="comma-separated input sizes")
    sizes.add_argument(
        "--log-range",
        type=int,
        nargs=3,
        metavar=("LO", "HI", "POINTS"),
        default=None,
        help="log-spaced input sizes from LO to HI",
    )

    parser = argparse.ArgumentParser(
        prog="mergeinsertion",
        description="MergeInsertion sorting, comparison-count experiments, and exact analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", parents=[strategy, factor, out], help="sort newline-separated integers")
    p.add_argument("input", nargs="?", default="-", help="input file ('-' for stdin)")
    p.add_argument("--algorithm", default="mi", choices=harness.ALGORITHMS)
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser(
        "count",
        parents=[sampling, strategy, factor, out, sizes],
        help="mean comparison counts over random permutations",
    )
    p.add_argument("--algorithm", default="mi", choices=harness.ALGORITHMS)
    p.add_argument("--exhaustive", action="store_true", help="enumerate all n! permutations (n <= 8)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "exact",
        parents=[strategy, out, sizes],
        help="exact average comparison counts",
        description=f"Exact average comparison counts for input sizes 1..{EXACT_N_MAX}.",
    )
    p.add_argument("--n-max", type=int, default=None, help=f"compute every size 1..N (N <= {EXACT_N_MAX})")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("dist", parents=[out], help="exact insertion distributions for one batch")
    p.add_argument("--k", type=int, required=True, help=f"batch index, 2..{DIST_K_MAX}")
    p.add_argument("--var", default="y", choices=["y", "x", "mean"], help="table to emit")
    p.add_argument("--i", type=int, action="append", help="batch member index (repeatable)")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "bound",
        parents=[out, sizes],
        help="normalized lower/upper bound table",
        description=f"Normalized lower/upper bound table for input sizes 1..{BOUND_N_MAX}.",
    )
    p.set_defaults(func=cmd_bound)

    # no abbreviations here: "--factor" would silently read as "--factors"
    p = sub.add_parser(
        "sweep-factor", parents=[sampling, strategy, out, sizes], allow_abbrev=False, help="schedule-stretch sweep"
    )
    p.add_argument("--factors", default="1.0,1.02,1.03,1.04,1.05", help="comma-separated factors")
    p.set_defaults(func=cmd_sweep_factor)

    p = sub.add_parser(
        "compare-algos", parents=[sampling, strategy, out, sizes], help="batched vs combined algorithm"
    )
    p.add_argument("--factor", default="1.03", help="schedule stretch factor of the variant column (default 1.03)")
    p.set_defaults(func=cmd_compare_algos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
