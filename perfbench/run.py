"""Benchmark command: runs one workload in fresh child interpreters and
prints its metrics.

    python3 perfbench/run.py --workload sort-large --seed 1 --seconds 30 --trace 0

Every child (``workloads.py``) is a new interpreter, started one after
another, because every cache in the package is process-global and a
command-line user pays them cold on every run. Each child is a closed
loop: one caller, no worker threads, BLAS thread counts pinned to 1 so
the numpy products in ``bounds`` measure the program, not the scheduler.

--trace 0  a few set-up-only children, then full children while the
           next one still fits in --seconds (at least one); prints the
           medians of the end-to-end metrics named in BENCHMARK.json.
           Their times are reference-speed seconds (speedprobe.py): the
           host's speed changes every few seconds, and each untraced
           child samples it while it works.
--trace 1  one traced child, then untraced children as above; prints the
           per-layer metrics, and the tracing overhead as traced wall
           time minus the untraced median wall time less its probes.

Human-readable lines (run metadata, every metric with its unit, and
error_rate) come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The raw child results
are also written to .bench_out/. If a child cannot run at all (no
package under src/, a crash, a timeout) the command exits 1 without a
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_ONLY_CHILDREN = 8
# wall-clock medians, printed next to the reference-speed metrics
RAW = {"raw_setup_s": "s", "raw_wall_s": "s", "raw_ns_per_elem": "ns", "probe_s": "s"}
DEADLINE_S = 170  # the whole command must finish within 180 s
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, extra: list[str], env: dict, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--spawned-at", repr(spawned_at), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(lines[-1])


def _measure(args, env: dict) -> tuple[list[dict], list[dict]]:
    """(set-up-only results, full results) of one run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setups: list[dict] = []
    full: list[dict] = []
    if args.trace:
        full.append(_spawn(args, ["--trace"], env, deadline))
    else:
        setups = [_spawn(args, ["--setup-only"], env, deadline) for _ in range(SETUP_ONLY_CHILDREN)]
    # untraced children until the next one would overrun --seconds; at least one
    took: list[float] = []
    while not took or time.monotonic() - start + statistics.median(took) <= args.seconds:
        spawned = time.monotonic()
        full.append(_spawn(args, [], env, deadline))
        took.append(time.monotonic() - spawned)
    return setups, full


def _metrics(args, setups: list[dict], full: list[dict], spec: dict, error_rate: float) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    untraced = [r for r in full if not r["trace"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        values = dict(next(r for r in full if r["trace"])["layers"])
        # the traced child is not probed: compare it with the untraced wall times less their probes
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            r["raw_wall_s"] - r["probe_s"] for r in untraced)
        values["error_rate"] = error_rate
        names = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in setups + full), "wall_s": wall}
        for key in ("ns_per_elem", "cmp_per_elem", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in untraced)
        names = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=("experiment", "sort-large", "exact", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for about this long (at least one child)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "mergeinsertion", "__init__.py")):
        print("error: no package at src/mergeinsertion in this checkout", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        setups, full = _measure(args, _child_env())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in full)
    failed = sum(r["failed"] for r in full)
    error_rate = failed / attempted if attempted else 1.0
    metrics = _metrics(args, setups, full, spec, error_rate)
    meta = dict(full[0]["meta"], nproc=len(os.sched_getaffinity(0)), commit=_git_commit(),
                workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
                size="tiny" if args.tiny else "full", children=len(full), setup_only_children=len(setups))
    for result in full:
        for error in result["errors"]:
            print(f"check failed: {error}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"run-{args.workload}-{meta['size']}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "setup_only": setups, "children": full}, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, metric in metrics.items():
        print(f"{name}\t{metric['value']!r}\t{metric['unit']}")
    if not args.trace:
        print(f"error_rate\t{error_rate!r}\tratio")
        for key in RAW:
            children = setups + full if key == "raw_setup_s" else full
            print(f"{key}\t{statistics.median(r[key] for r in children)!r}\t{RAW[key]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
