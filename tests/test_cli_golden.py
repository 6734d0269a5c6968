"""Golden CLI test: the stdout bytes of every table subcommand, pinned.

Each case runs ``cli.main`` in-process and compares the sha256 of the
bytes it writes to stdout with a digest recorded before the closed forms,
batch loops, paired-permutation loops and algorithm dispatch were each
reduced to a single copy. A refactor must leave every digest as it is;
``sort`` additionally pins its ``comparisons:`` line on stderr.

``python tests/test_cli_golden.py`` (with ``src`` on ``PYTHONPATH``)
prints the current values in the same source form, for a change that is
meant to alter them.
"""

from __future__ import annotations

import hashlib
import io
import sys

import pytest

from mergeinsertion.cli import main

# a fixed 200-key input for ``sort``: 1009 is prime, so the keys are distinct
SORT_KEYS = [(i * 7919) % 1009 for i in range(200)]

TABLE_CASES = {
    "bound-log-range": ("bound", "--log-range", "64", "4096", "5"),
    "dist-y": ("dist", "--k", "7", "--var", "y"),
    "dist-x": ("dist", "--k", "7", "--var", "x"),
    "dist-mean": ("dist", "--k", "7", "--var", "mean"),
    "bound-log-range-large": ("bound", "--log-range", "64", "32768", "9"),
    "dist-y-k10": ("dist", "--k", "10", "--var", "y"),
    "dist-x-k10": ("dist", "--k", "10", "--var", "x"),
    "exact": ("exact", "--n-max", "30"),
    "count": ("count", "--n", "100,1000", "--trials", "5"),
    "count-exhaustive": ("count", "--n", "6", "--exhaustive"),
    "sweep-factor": ("sweep-factor", "--n", "500", "--trials", "3"),
    "compare-algos": ("compare-algos", "--n", "500", "--trials", "3"),
}

TABLE_DIGESTS = {
    "bound-log-range": "60a9cf3f9ab099c2888b1cbbb2978a39e2d432371eb61980268c9a2d36db1f77",
    "dist-y": "25d96a9a232ebdd51442df12a22c2d453f3f18d0956dc419a42aabb5ee58041d",
    "dist-x": "2835e8415c4812e93b1cd5438bb6ad827f154ce81248d327cb176e15f424ae3a",
    "dist-mean": "96f2b083e6a94d44b4aeef17afce54206c9831b08146e274c14ad22b8bca5422",
    "bound-log-range-large": "cbc8f2e2cee04ca13579623ba7cb667cea43965c5a0fbe46d77be07e28c08f06",
    "dist-y-k10": "be31ee20178b2760c5788f4d14f10d63d54720528702cfa3ce6797a36ac784ac",
    "dist-x-k10": "73c69562a64d8d5bd3c84a8da75f69d0109d1c30a4761d0f5ac789c8423cdcd3",
    "exact": "c15c7cc82801c83d41b4b72bf4f23456c28c06375d735f7bd2d02cb09e730458",
    "count": "2f43c4f1877d63973d5342d00fdb8f2737d6e14b46beb710b52b2df4bc6f12b3",
    "count-exhaustive": "2666cd49ef46d55ac4fc5ba1ca58e0d62b3217260b16f481a15ba1be2b4f0732",
    "sweep-factor": "c71b39eb62824bddc218b2ed9cca48f35a4f8f666231872a31e87dd75a8fc05c",
    "compare-algos": "aabb1b805fc4197d8301e171a5eae90a0a2648b9d4baac3c91b141fbcf955561",
}

# the largest ``dist`` tables (k = DIST_K_MAX), in the ``slow`` tier; recorded
# from the ``Fraction``-valued columns, before the tables became integer counts
SLOW_TABLE_CASES = {
    "dist-y-k14": ("dist", "--k", "14", "--var", "y"),
    "dist-x-k14": ("dist", "--k", "14", "--var", "x"),
}

SLOW_TABLE_DIGESTS = {
    "dist-y-k14": "670677793240e524e54c0a5bed51be5a0f637f43b4ee7bb6aa700eaa265f8bf3",
    "dist-x-k14": "f9aa969e59fe498d7e91fc3bf0085ed7cb83dc4003f6fcb3b49307951a478f52",
}

SORT_GOLDEN = {
    "mi": ("f39283ad0b2bb186ccd79535df76471076ac3d00522fe82f2a58c1fe95693e7f", 1253),
    "one-two": ("f39283ad0b2bb186ccd79535df76471076ac3d00522fe82f2a58c1fe95693e7f", 1248),
    "combined": ("f39283ad0b2bb186ccd79535df76471076ac3d00522fe82f2a58c1fe95693e7f", 1249),
}


def _run(argv, stdin_text: str | None = None) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of one in-process run."""
    out, err = io.BytesIO(), io.StringIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        wrapper.flush()
        wrapper.detach()  # keep ``out`` open when the wrapper is collected
    return code, out.getvalue(), err.getvalue().encode()


def table_digest(argv) -> str:
    code, out, _err = _run(argv)
    assert code == 0
    return hashlib.sha256(out).hexdigest()


def sort_golden(algorithm: str) -> tuple[str, int]:
    text = "".join(f"{key}\n" for key in SORT_KEYS)
    code, out, err = _run(("sort", "--algorithm", algorithm, "-"), text)
    assert code == 0
    assert out.decode().split() == [str(key) for key in sorted(SORT_KEYS)]
    lines = [line for line in err.decode().splitlines() if line.startswith("comparisons: ")]
    assert len(lines) == 1
    return hashlib.sha256(out).hexdigest(), int(lines[0].split()[1])


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_bytes_unchanged(case):
    assert table_digest(TABLE_CASES[case]) == TABLE_DIGESTS[case]


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_TABLE_CASES)
def test_largest_dist_tables_unchanged(case):
    assert table_digest(SLOW_TABLE_CASES[case]) == SLOW_TABLE_DIGESTS[case]


@pytest.mark.parametrize("algorithm", SORT_GOLDEN)
def test_sort_output_and_count_unchanged(algorithm):
    assert sort_golden(algorithm) == SORT_GOLDEN[algorithm]


if __name__ == "__main__":
    print("TABLE_DIGESTS = {")
    for case in TABLE_CASES:
        print(f'    "{case}": "{table_digest(TABLE_CASES[case])}",')
    print("}")
    print()
    print("SLOW_TABLE_DIGESTS = {")
    for case in SLOW_TABLE_CASES:
        print(f'    "{case}": "{table_digest(SLOW_TABLE_CASES[case])}",')
    print("}")
    print()
    print("SORT_GOLDEN = {")
    for algorithm in SORT_GOLDEN:
        digest, comparisons = sort_golden(algorithm)
        print(f'    "{algorithm}": ("{digest}", {comparisons}),')
    print("}")
