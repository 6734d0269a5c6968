"""One cold run of one benchmark workload, in the current interpreter.

``run.py`` starts this file as a fresh child interpreter for every run,
because every cache in the package (exact_F, _COST_CACHE,
numeric_upper_bound_F, _batch_cost_bound, _y_tilde, decision_depths,
_prefer_pair) is process-global and a command-line user pays them cold.
The child prints one JSON line with its raw measurements.

    PYTHONPATH=src python3 perfbench/workloads.py --workload sort-large --seed 1 [--trace] [--tiny]

The benchmark owns the seed; the package only sees the generated inputs
(the permutation seed of ``compare_algorithms`` is its input, and it
draws the permutations itself). ``exact`` and ``tables`` are pure
functions of their fixed sizes, so their seed changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import operator
import os
import random
import resource
import sys
import time
import traceback

from speedprobe import SpeedProbe

# An untraced child samples the core's speed from before the heavy imports
# on, so set-up is sampled too; a traced child is not probed, so its
# layer times hold nothing but the package and the tracer.
PROBE = SpeedProbe() if __name__ == "__main__" and "--trace" not in sys.argv else None
if PROBE is not None:
    PROBE.start()

import numpy as np  # noqa: E402

import mergeinsertion  # noqa: E402
from mergeinsertion import bounds, cli, exact_analysis, harness, probability, sequence, sorter, strategies  # noqa: E402

from tracer import Patcher, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
if not os.path.abspath(mergeinsertion.__file__).startswith(os.path.join(ROOT, "src", "")):
    raise SystemExit(f"mergeinsertion imported from {mergeinsertion.__file__}, not from this checkout's src/")

WORKLOADS = ("experiment", "sort-large", "exact", "tables")

SIZES = {
    "full": {
        "experiment": {"n": 16383, "trials": 2},
        "sort-large": {"n": 131072},
        "exact": {"n_max": 78},
        "tables": [
            ["bound", "--log-range", "64", "32768", "9"],
            ["dist", "--k", "10", "--var", "y"],
            ["dist", "--k", "10", "--var", "x"],
            ["dist", "--k", "9", "--var", "mean"],
        ],
    },
    "tiny": {
        "experiment": {"n": 200, "trials": 2},
        "sort-large": {"n": 2000},
        "exact": {"n_max": 20},
        "tables": [
            ["bound", "--log-range", "64", "1024", "3"],
            ["dist", "--k", "6", "--var", "y"],
            ["dist", "--k", "6", "--var", "x"],
            ["dist", "--k", "5", "--var", "mean"],
        ],
    },
}

# sha256 of the TSV bytes, recorded at the seed commit. The experiment
# table depends on the seed, so it has a digest only at seed 0.
DIGESTS = {
    "experiment/full/0": "cdd9932637d07690eaf8fd5609eb4ddf0c229be792b92a9faa5559309d581861",
    "experiment/tiny/0": "3a5e6dea76a99500b962596ff60243f2dbaa7b35ecff19c973c3eb3c9ff860a8",
    "exact/full": "a479c78cacd0f584e22034934a26b45dda38b675f4f5d6071604a6bcb900274d",
    "exact/tiny": "637737a6d82f13fc29f8493cd69cfe451d4316dbcc4568ca02c3c7becc04bb0d",
    "tables/full/bound": "cbc8f2e2cee04ca13579623ba7cb667cea43965c5a0fbe46d77be07e28c08f06",
    "tables/full/dist-y": "be31ee20178b2760c5788f4d14f10d63d54720528702cfa3ce6797a36ac784ac",
    "tables/full/dist-x": "73c69562a64d8d5bd3c84a8da75f69d0109d1c30a4761d0f5ac789c8423cdcd3",
    "tables/full/dist-mean": "1b95bc9fddb352dea35f6e01eef94fd9335eb469ee88b7432319410416f53a93",
    "tables/tiny/bound": "a8e259101ed620ff3bbd8a7cdce17529dba594b5685c6f7c418462da0d97ce1a",
    "tables/tiny/dist-y": "bcb9a3272579d8a94b20b56ea2b9586138f8dd6a73afd652c10871a48874a0cb",
    "tables/tiny/dist-x": "40d39f856e9f070e18daa4603f61988f14d290c951b536f8458adf35ea8f4e49",
    "tables/tiny/dist-mean": "5bece7e41e72ce1063deea3249d32a9da33dde6035ae77c39a17da8173d5fc88",
}

# the published F(n) * n! for n = 1..15
PUBLISHED_F_TIMES_FACTORIAL = (
    0, 2, 16, 112, 832, 6912, 62784, 623232, 6743808, 79292160,
    1013736960, 13921182720, 204489999360, 3199119114240, 53153472153600,
)

PACKAGE_MODULES = (mergeinsertion, sequence, strategies, sorter, exact_analysis, probability, bounds, harness, cli)

# (span name, owner, attribute names): wrapped in every module or class
# that holds the same function object, so imported aliases are caught.
COARSE = (
    ("harness.compare_algorithms", harness, ("compare_algorithms",)),
    ("sorter.combined_sort", sorter, ("combined_sort",)),
    ("sorter.one_two", sorter, ("_insert_one_two",)),
    ("exact_analysis.exact_F", exact_analysis, ("exact_F",)),
    ("bounds.numeric_upper_bound_F", bounds, ("numeric_upper_bound_F",)),
    ("probability.mean_Y", probability, ("mean_Y",)),
    ("cli.main", cli, ("main",)),
)
HOT = (
    ("sequence.get", sequence.PosSequence, ("get",)),
    ("sequence.insert", sequence.PosSequence, ("insert",)),
    ("strategies.binary_insert", strategies, ("binary_insert",)),
    ("sorter.fenwick", sorter._Fenwick, ("add", "prefix", "min_reaching")),
    ("exact_analysis.cost", exact_analysis, ("_cost",)),
    ("bounds.batch_cost_bound", bounds, ("_batch_cost_bound",)),
    ("bounds.closed_forms", bounds, ("lower_bound_log_factorial", "c_of_x", "frac_log2_3n", "worst_case_W")),
    ("probability.p_X", probability, ("p_X",)),
    ("probability.p_Y", probability, ("p_Y",)),
)
LAYERS = ("harness", "sorter", "strategies", "sequence", "exact_analysis", "probability", "bounds", "cli")


class Checks:
    """Operations attempted and failed; a failed check never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _replace_everywhere(patcher: Patcher, owners, orig, replacement) -> None:
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is orig:
                patcher.set(owner, attr, replacement)


def install_tracing(tracer: Tracer, patcher: Patcher, mi_outcomes: list) -> None:
    """Wrap each layer's entry points; merge_insertion also collects its
    per-insertion records so comparisons can be split by phase."""
    orig_mi = sorter.merge_insertion

    def merge_insertion(items, *args, **kwargs):
        kwargs["collect_insertions"] = True
        outcome = orig_mi(items, *args, **kwargs)
        mi_outcomes.append(outcome)
        return outcome

    _replace_everywhere(patcher, PACKAGE_MODULES, orig_mi, tracer.coarse("sorter.merge_insertion", merge_insertion))
    for table, wrap in ((COARSE, tracer.coarse), (HOT, tracer.hot_wrap)):
        for name, owner, attrs in table:
            owners = (owner,) if isinstance(owner, type) else PACKAGE_MODULES
            for attr in attrs:
                orig = getattr(owner, attr)
                _replace_everywhere(patcher, owners, orig, wrap(name, orig))

    orig_emit = cli.emit_tsv

    def emit_tsv(table, destination):
        written = orig_emit(table, destination)
        tracer.add("cli.emit_tsv.bytes", written)
        return written

    patcher.set(cli, "emit_tsv", tracer.coarse("cli.emit_tsv", emit_tsv))


def _cli(argv: list[str]) -> tuple[int, bytes]:
    """Run the command line in-process and capture the TSV it writes."""
    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8")
    old = sys.stdout
    sys.stdout = text
    try:
        code = cli.main(argv)
        text.flush()
    finally:
        sys.stdout = old
    data = buffer.getvalue()
    text.detach()
    return code, data


def _digest_ok(key: str, data: bytes) -> bool:
    return hashlib.sha256(data).hexdigest() == DIGESTS[key]


def _rows(data: bytes) -> list[list[str]]:
    return [line.split("\t") for line in data.decode().splitlines()[1:]]


# ---- workloads: setup(cfg, seed) -> inputs; timed(cfg, inputs, tracer) -> output;
# ---- check(cfg, size, seed, inputs, output, checks) -> (elements, cmp_per_elem)


def _experiment_setup(cfg, seed):
    return seed  # compare_algorithms draws its permutations from the seed


def _experiment_timed(cfg, seed, tracer):
    outcomes: list = []

    def recording(fn):
        def call(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        return call

    with Patcher() as patcher:
        patcher.set(harness, "merge_insertion", recording(harness.merge_insertion))
        patcher.set(harness, "combined_sort", recording(harness.combined_sort))
        table = harness.compare_algorithms([cfg["n"]], trials=cfg["trials"], seed=seed)
    return table, outcomes


def _experiment_check(cfg, size, seed, inputs, output, checks):
    table, outcomes = output
    n, trials = cfg["n"], cfg["trials"]
    expected = list(range(n))
    for outcome in outcomes:
        checks.op(outcome.items == expected, "experiment: a sort returned a wrong order")
    buffer = io.BytesIO()
    harness.emit_tsv(table, buffer)
    data = buffer.getvalue()
    key = f"experiment/{size}/{seed}"
    if key in DIGESTS:
        checks.op(_digest_ok(key, data), f"experiment: TSV digest differs from {key}")
    else:
        # self-consistency: the table's means are the sorts' own counts
        sums = [sum(o.comparisons for o in outcomes[col::3]) for col in range(3)]
        want = [str(n)] + [repr(harness.normalized_mean(s / trials, n)) for s in sums]
        checks.op(
            len(outcomes) == 3 * trials and _rows(data) == [want],
            "experiment: TSV means disagree with the sorts' comparison counts",
        )
    elements = sum(len(o.items) for o in outcomes)
    comparisons = sum(o.comparisons for o in outcomes)
    return elements, comparisons / max(elements, 1)


def _sort_large_setup(cfg, seed):
    rng = random.Random(seed)
    keys: list[int] = []
    seen: set[int] = set()
    while len(keys) < cfg["n"]:
        key = rng.getrandbits(63)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def _sort_large_timed(cfg, keys, tracer):
    if tracer is None:
        return sorter.merge_insertion(keys), None
    # a counting less: the traced run checks it saw exactly outcome.comparisons calls
    return sorter.merge_insertion(keys, less=tracer.hot_wrap("less", operator.lt)), tracer


def _sort_large_check(cfg, size, seed, keys, output, checks):
    outcome, tracer = output
    ok = outcome.items == sorted(keys)
    if tracer is not None:
        ok = ok and outcome.comparisons == tracer.calls("less")
    checks.op(ok, "sort-large: output not the sorted input, or comparison count differs from less() calls")
    return len(keys), outcome.comparisons / len(keys)


def _exact_timed(cfg, inputs, tracer):
    return _cli(["exact", "--n-max", str(cfg["n_max"])])


def _exact_check(cfg, size, seed, inputs, output, checks):
    code, data = output
    rows = _rows(data) if code == 0 else []
    checks.op(code == 0 and len(rows) == cfg["n_max"], f"exact: exit code {code}, {len(rows)} rows")
    for n, row in enumerate(rows, start=1):
        scaled = exact_analysis.exact_F(n) * math.factorial(n)
        ok = row[0] == str(n) and scaled.denominator == 1 and row[1] == str(scaled.numerator)
        if n <= len(PUBLISHED_F_TIMES_FACTORIAL):
            ok = ok and int(row[1]) == PUBLISHED_F_TIMES_FACTORIAL[n - 1]
        checks.op(ok, f"exact: row {n} is not the integer F(n)*n! (or not the published value)")
    checks.op(_digest_ok(f"exact/{size}", data), f"exact: TSV digest differs from exact/{size}")
    n_max = cfg["n_max"]
    return len(rows), float(exact_analysis.exact_F(n_max)) / n_max


def _tables_name(argv) -> str:
    return argv[0] if argv[0] == "bound" else f"dist-{argv[-1]}"


def _tables_timed(cfg, inputs, tracer):
    return [_cli(argv) for argv in cfg]


def _tables_check(cfg, size, seed, inputs, output, checks):
    rows_total = 0
    for argv, (code, data) in zip(cfg, output):
        name = _tables_name(argv)
        rows = _rows(data) if code == 0 else []
        rows_total += len(rows)
        ok = code == 0 and bool(rows) and _digest_ok(f"tables/{size}/{name}", data)
        if ok and name in ("dist-y", "dist-x"):
            # every column of an exact distribution sums to 1
            for col in range(1, len(rows[0])):
                ok = ok and abs(math.fsum(float(r[col]) for r in rows) - 1.0) < 1e-9
        if ok and name == "bound":
            ok = all(float(r[1]) <= float(r[2]) for r in rows)  # lower <= upper
        checks.op(ok, f"tables: {' '.join(argv)} failed its digest or consistency check")
    hi = int(cfg[0][3])
    return rows_total, bounds.numeric_upper_bound_F(hi) / hi


def _no_setup(cfg, seed):
    return None


WORKLOAD_FUNCS = {
    "experiment": (_experiment_setup, _experiment_timed, _experiment_check),
    "sort-large": (_sort_large_setup, _sort_large_timed, _sort_large_check),
    "exact": (_no_setup, _exact_timed, _exact_check),
    "tables": (_no_setup, _tables_timed, _tables_check),
}


def layer_metrics(tracer: Tracer, mi_outcomes: list) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    m: dict[str, float] = {}
    for name in ("sequence.get", "sequence.insert", "less"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
    m["strategies.binary_insert.calls"] = calls("strategies.binary_insert")
    m["strategies.binary_insert.s"] = incl("strategies.binary_insert")
    m["strategies.binary_insert.self_s"] = self_s("strategies.binary_insert")
    m["strategies.probes_per_insert"] = calls("sequence.get") / max(calls("strategies.binary_insert"), 1)
    m["strategies.decision_depths.entries"] = strategies.decision_depths.cache_info().currsize

    m["sorter.merge_insertion.calls"] = calls("sorter.merge_insertion")
    m["sorter.merge_insertion.self_s"] = self_s("sorter.merge_insertion")
    m["sorter.fenwick.s"] = incl("sorter.fenwick")
    elements = sum(len(o.items) for o in mi_outcomes)
    insert_cmp = sum(rec[3] for o in mi_outcomes for rec in o.insertions)
    all_cmp = sum(o.comparisons for o in mi_outcomes)
    probe_bound = sum(rec[2].bit_length() for o in mi_outcomes for rec in o.insertions)
    m["sorter.pair_cmp_per_elem"] = (all_cmp - insert_cmp) / max(elements, 1)
    m["sorter.insert_cmp_per_elem"] = insert_cmp / max(elements, 1)
    m["sorter.depth_max"] = max((rec[0] for o in mi_outcomes for rec in o.insertions), default=0)
    m["sorter.probe_fill"] = insert_cmp / max(probe_bound, 1)
    m["sorter.combined_sort.s"] = incl("sorter.combined_sort")
    m["sorter.one_two.s"] = incl("sorter.one_two")
    m["sorter.prefer_pair.entries"] = sorter._prefer_pair.cache_info().currsize

    m["harness.compare_algorithms.s"] = incl("harness.compare_algorithms")

    m["exact_analysis.exact_F.s"] = incl("exact_analysis.exact_F")
    m["exact_analysis.cost.calls"] = calls("exact_analysis.cost")
    m["exact_analysis.cost.s"] = incl("exact_analysis.cost")
    m["exact_analysis.states"] = len(exact_analysis._COST_CACHE)

    m["bounds.numeric_upper_bound_F.s"] = incl("bounds.numeric_upper_bound_F")
    m["bounds.batch_cost_bound.calls"] = calls("bounds.batch_cost_bound")
    m["bounds.batch_cost_bound.misses"] = bounds._batch_cost_bound.cache_info().misses
    m["bounds.batch_cost_bound.s"] = incl("bounds.batch_cost_bound")
    m["bounds.closed_forms.s"] = incl("bounds.closed_forms")

    for name in ("probability.p_X", "probability.p_Y"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
    m["probability.mean_Y.s"] = incl("probability.mean_Y")
    m["probability.y_tilde.entries"] = probability._y_tilde.cache_info().currsize

    m["cli.emit_tsv.s"] = incl("cli.emit_tsv")
    m["cli.emit_tsv.bytes"] = tracer.counters.get("cli.emit_tsv.bytes", 0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(agg[2] for name, agg in totals.items() if name.split(".")[0] == layer)
    m["trace.wall_s"] = incl("bench")
    m["trace.gap_s"] = self_s("bench")
    return m


def run_once(workload: str, seed: int, trace: bool, size: str = "full", spawned_at: float | None = None,
             setup_only: bool = False, probe: SpeedProbe | None = None) -> dict:
    """Set up, time and check one workload; returns the measurements.

    With a probe, ``setup_s`` and ``wall_s`` are reference-speed seconds
    (see speedprobe.py) and ``raw_setup_s`` and ``raw_wall_s`` the wall
    times; without one, both are the wall times."""
    setup, timed, check = WORKLOAD_FUNCS[workload]
    cfg = SIZES[size][workload]
    inputs = setup(cfg, seed)
    setup_end = time.perf_counter()
    result: dict = {"workload": workload, "seed": seed, "trace": trace, "size": size}
    if spawned_at is not None:
        spawned = spawned_at + (setup_end - time.monotonic())  # the parent's monotonic clock, on perf_counter
        result["raw_setup_s"] = setup_end - spawned
        result["setup_s"] = probe.ref_seconds(spawned, setup_end) if probe else result["raw_setup_s"]
    result["meta"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "package": mergeinsertion.__version__,
        "generator": harness.GENERATOR,
    }
    if setup_only:
        if probe is not None:
            probe.stop()
        return result

    checks = Checks()
    tracer = Tracer() if trace else None
    mi_outcomes: list = []
    output = None
    with Patcher() as patcher:
        if tracer is not None:
            install_tracing(tracer, patcher, mi_outcomes)
            timed = tracer.coarse("bench", timed)
        start = time.perf_counter()
        try:
            output = timed(cfg, inputs, tracer)
        except Exception:
            checks.op(False, f"{workload} raised:\n{traceback.format_exc()}")
        end = time.perf_counter()
        if probe is not None:
            probe.stop()
        result["raw_wall_s"] = end - start
        result["wall_s"] = probe.ref_seconds(start, end) if probe else result["raw_wall_s"]
        result["probe_s"] = probe.probe_seconds(start, end) if probe else 0.0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    elements, cmp_per_elem = 0, 0.0
    if output is not None:
        try:
            elements, cmp_per_elem = check(cfg, size, seed, inputs, output, checks)
        except Exception:
            checks.op(False, f"{workload} check raised:\n{traceback.format_exc()}")
    result["ns_per_elem"] = result["wall_s"] * 1e9 / max(elements, 1)
    result["raw_ns_per_elem"] = result["raw_wall_s"] * 1e9 / max(elements, 1)
    result["cmp_per_elem"] = cmp_per_elem
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    result["errors"] = checks.errors
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, mi_outcomes)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-{size}-seed{seed}.json"), result["meta"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help="stop after import and input generation")
    parser.add_argument("--spawned-at", type=float, default=None, help="time.monotonic() when the parent started us")
    args = parser.parse_args(argv)
    result = run_once(
        args.workload, args.seed, args.trace, "tiny" if args.tiny else "full", args.spawned_at, args.setup_only,
        PROBE,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
