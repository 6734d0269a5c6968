"""The names and caches the benchmark reads from outside must keep their meaning.

``perfbench/workloads.py`` traces the package by replacing functions and
methods by name (its ``COARSE`` and ``HOT`` tables, plus
``sorter.merge_insertion``) and reads a few caches after a run. A rename
in the package would only surface as a crash of the traced benchmark
run; these tests catch it in the ordinary suite instead. The
``exact_analysis.cost`` metrics wrap the collapsed tree's ``_cost`` and
the ``exact_analysis.states`` metric is ``len(_COST_CACHE)``, so that
cache must hold exactly one entry per ``(q, strategy)`` state
``cost_insert`` visits.
"""

from __future__ import annotations

import importlib.util
import json
import operator
import sys
from pathlib import Path

import pytest

from mergeinsertion import (
    InsertionState,
    PosSequence,
    Strategy,
    combined_sort,
    cost_insert,
    exact_analysis,
    harness,
    merge_insertion,
)
from mergeinsertion.sorter import batch_bound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_names_exist(workloads):
    hooks = [(owner, attr) for _, owner, attrs in workloads.COARSE + workloads.HOT for attr in attrs]
    hooks += [
        (workloads.sorter, "merge_insertion"),
        (workloads.harness, "merge_insertion"),
        (workloads.harness, "combined_sort"),
        (workloads.cli, "emit_tsv"),
    ]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in hooks if not hasattr(owner, attr)]
    assert not missing, f"benchmark hooks missing from the package: {missing}"


def test_layer_metrics_name_every_per_layer_metric(workloads):
    # layer_metrics reads caches by name, such as sorter._prefer_pair.cache_info();
    # run.py adds error_rate and trace.overhead_s itself
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = {metric["name"] for metric in spec["per_layer"]} - {"error_rate", "trace.overhead_s"}
    metrics = workloads.layer_metrics(workloads.Tracer(), [])
    assert not wanted - set(metrics)


def test_sorts_reached_through_harness_globals(monkeypatch):
    # the experiment workload checks every sort by wrapping these two
    # harness globals, so the harness must look them up at call time
    calls = {"merge_insertion": 0, "combined_sort": 0}

    def recording(name):
        orig = getattr(harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(harness, name, recording(name))
    harness.compare_algorithms([50], trials=2)
    assert calls == {"merge_insertion": 2, "combined_sort": 4}
    for algorithm in ("mi", "combined"):
        outcome = harness.sort_fn(algorithm, Strategy.LEFT, 1)(list(range(50, 0, -1)))
        assert outcome.items == list(range(1, 51))
    assert calls == {"merge_insertion": 3, "combined_sort": 5}


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_probes_read_chain_blocks(monkeypatch, strategy):
    # with a custom less (as the traced sort-large run has), binary_insert
    # reads each probe through PosSequence.get, one call per insertion
    # comparison; the benchmark's sequence.get metrics and probes_per_insert
    # count these calls
    calls = {"get": 0, "less": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(PosSequence, "get", counting("get", PosSequence.get))
    less = counting("less", operator.lt)
    keys = list(range(500, 0, -1))

    outcome = merge_insertion(keys, strategy, less=less, collect_insertions=True)
    assert outcome.items == sorted(keys)
    assert calls["less"] == outcome.comparisons
    assert calls["get"] == sum(rec[3] for rec in outcome.insertions) > 0

    calls.update(get=0, less=0)
    outcome = combined_sort(keys[:400], strategy, less=less)
    assert outcome.items == sorted(keys[:400])
    assert calls["less"] == outcome.comparisons
    assert 0 < calls["get"] <= outcome.comparisons


def test_get_alone_holds_the_probe_read():
    # the benchmark wraps every PosSequence attribute holding this function,
    # so an alias such as __getitem__ = get would count partner reads as probes
    probe_read = PosSequence.get
    assert [name for name, value in vars(PosSequence).items() if value is probe_read] == ["get"]


def _root_states(n: int) -> set[tuple[int, ...]]:
    """The tree states of the batches exact_F(n) costs, from the halving recurrence."""
    roots = set()
    while n > 1:
        m = (n + 1) // 2
        k = 2
        while batch_bound(k - 1) < m:
            start, end = batch_bound(k - 1), min(batch_bound(k), m)
            roots.add((2 * start,) + (0,) * (end - start - 1))
            k += 1
        n //= 2
    return roots


def _reachable_states(roots) -> set[tuple[int, ...]]:
    seen = set()
    stack = list(roots)
    while stack:
        q = stack.pop()
        if not q or q in seen:
            continue
        seen.add(q)
        r = len(q)
        stack.append(q[: r - 1])
        stack.extend(q[:s] + (q[s] + 1,) + q[s + 1 : r - 1] for s in range(r - 1))
    return seen


def test_cost_cache_holds_one_entry_per_state():
    # exact_F sums member costs and never walks the tree, so the tree is
    # driven directly from the batch states exact_F(30) evaluates
    saved = dict(exact_analysis._COST_CACHE)
    exact_analysis._COST_CACHE.clear()
    try:
        roots = _root_states(30)
        for q in roots:
            cost_insert(InsertionState(q))
        assert len(exact_analysis._COST_CACHE) == len(_reachable_states(roots))
    finally:
        exact_analysis._COST_CACHE.clear()
        exact_analysis._COST_CACHE.update(saved)

