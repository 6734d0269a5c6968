"""Self-test of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

1. Runs run.py on every workload, untraced and traced, and checks that
   the last line holds exactly the metrics BENCHMARK.json names, with
   their units and no failed operation, and that the traced layer self
   times plus the gap add up to the traced wall time.
2. Injects a wrong sort or a wrong count into the package, in this
   process, and checks that each one shows up as a failed operation,
   that is, as a nonzero error_rate.

Exits 1 and lists what went wrong if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from mergeinsertion import bounds, exact_analysis, harness, sorter  # noqa: E402

import workloads  # noqa: E402
from tracer import Patcher  # noqa: E402

# less has no traced children, so its self time is less.s
LAYER_SELF = [f"{layer}.self_s" for layer in workloads.LAYERS] + ["less.s", "trace.gap_s"]

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_every_metric_is_emitted(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0, f"{label}: failed operations\n{proc.stderr}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            if not trace:
                # without a probe, the reference-speed set-up time is the wall time
                raw = [line.split("\t")[1] for line in proc.stdout.splitlines() if line.startswith("raw_setup_s\t")]
                expect(raw != [repr(result["metrics"]["setup_s"]["value"])], f"{label}: the speed probe never ran")
            named = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            expect(list(got) == [m["name"] for m in named], f"{label}: metric names differ from BENCHMARK.json")
            for m in named:
                value = got.get(m["name"], {})
                expect(value.get("unit") == m["unit"], f"{label}: {m['name']} unit {value.get('unit')}")
                expect(isinstance(value.get("value"), (int, float)), f"{label}: {m['name']} has no number")
            if trace and all(name in got for name in LAYER_SELF + ["trace.wall_s"]):
                total = sum(got[name]["value"] for name in LAYER_SELF)
                wall = got["trace.wall_s"]["value"]
                expect(math.isclose(total, wall, rel_tol=1e-6), f"{label}: self times sum to {total}, wall {wall}")


def _wrong_sort(fn):
    def call(*args, **kwargs):
        outcome = fn(*args, **kwargs)
        items = list(outcome.items)
        items[0], items[-1] = items[-1], items[0]
        return dataclasses.replace(outcome, items=items)

    return call


def _wrong_count(fn):
    def call(*args, **kwargs):
        outcome = fn(*args, **kwargs)
        return dataclasses.replace(outcome, comparisons=outcome.comparisons + 1)

    return call


def _wrong_exact(fn):
    def call(n, *args):
        return fn(n, *args) + Fraction(1, math.factorial(n))

    return call


def _wrong_bound(fn):
    def call(n):
        return fn(n) + 1.0

    return call


FAULTS = (
    ("sort-large", False, sorter, "merge_insertion", _wrong_sort),
    ("sort-large", True, sorter, "merge_insertion", _wrong_count),
    ("experiment", False, harness, "combined_sort", _wrong_sort),
    ("experiment", False, harness, "merge_insertion", _wrong_count),
    ("exact", False, exact_analysis, "exact_F", _wrong_exact),
    ("tables", False, bounds, "numeric_upper_bound_F", _wrong_bound),
)


def check_faults_are_counted() -> None:
    for workload, trace, module, attr, fault in FAULTS:
        label = f"{workload} trace={trace} with {fault.__name__} in {module.__name__}.{attr}"
        with Patcher() as patcher:
            patcher.set(module, attr, fault(getattr(module, attr)))
            result = workloads.run_once(workload, 0, trace, "tiny")
        expect(result["attempted"] >= 1 and result["failed"] > 0, f"{label}: error_rate stayed 0")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_every_metric_is_emitted(spec)
    check_faults_are_counted()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
