"""The names the benchmark wraps from outside must keep existing.

``perfbench/workloads.py`` traces the package by replacing functions and
methods by name (its ``COARSE`` and ``HOT`` tables, plus
``sorter.merge_insertion``) and reads a few caches after a run. A rename
in the package would only surface as a crash of the traced benchmark
run; these tests catch it in the ordinary suite instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from mergeinsertion import PosSequence, merge_insertion

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


def test_probes_go_through_chain_get(monkeypatch):
    # the benchmark's probes_per_insert counts PosSequence.get calls, so
    # every insertion comparison must read the chain through get
    calls = 0
    orig = PosSequence.get

    def get(self, pos):
        nonlocal calls
        calls += 1
        return orig(self, pos)

    monkeypatch.setattr(PosSequence, "get", get)
    outcome = merge_insertion(range(500, 0, -1), collect_insertions=True)
    assert calls == sum(rec[3] for rec in outcome.insertions) > 0
