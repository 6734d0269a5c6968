"""Golden differential test: the comparator sorter's exact behaviour, pinned.

For seeded permutations this pins, per algorithm, the comparison count,
the sha256 of the ``collect_insertions`` records and the sha256 of the
exact sequence of ``(x, y)`` argument pairs that ``less`` receives. A
change to the sorter's internals (its chain container, its recursion)
must leave all three untouched: equal totals are not enough, the caller
must see the very same calls in the very same order.

The default ``less`` reaches the same counts and records without calling
a Python comparator (C bisection plus decision-tree depths); the ``mi/*``
cases pin it to the same table.

The table was recorded before the sorter moved to keys and a block-list
chain. ``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``)
prints the current values in the same source form, for a change that is
meant to alter them.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from mergeinsertion import Schedule, Strategy, combined_sort, merge_insertion, one_two_insertion
from mergeinsertion.harness import _rng

SEED = 2019
SIZES = (1000, 3001)
FACTORS = ("1", "1.03")

CASES = [
    (n, f"mi/{strategy.value}/{factor}") for n in SIZES for strategy in Strategy for factor in FACTORS
] + [(n, algo) for n in SIZES for algo in ("combined", "one-two")]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def run_case(n: int, case: str) -> tuple[int, str | None, str]:
    """(comparisons, records digest or None, less-argument digest)."""
    perm = _rng(SEED, n).permutation(n).tolist()
    pairs: list[tuple[int, int]] = []

    def less(x, y):
        pairs.append((x, y))
        return x < y

    records = None
    if case.startswith("mi/"):
        _, strategy, factor = case.split("/")
        outcome = merge_insertion(
            perm, Strategy.from_name(strategy), Schedule(Fraction(factor)), less=less, collect_insertions=True
        )
        records = _sha(outcome.insertions)
    elif case == "combined":
        outcome = combined_sort(perm, less=less)
    else:
        outcome = one_two_insertion([], perm, less=less)
    assert outcome.items == list(range(n))
    assert outcome.comparisons == len(pairs)
    return outcome.comparisons, records, _sha(pairs)


EXPECTED: dict[tuple[int, str], tuple[int, str | None, str]] = {
    (1000, 'mi/center-left/1'): (8553, 'd9f9885a451f0d2246148532f35eeedd1f06a7037dd48f8aa8a62b5a2b251a4c', '5f5c49da5770bcb0fb94a0758e0eb00556bd2af08e323d714e5eebaf23c7d505'),
    (1000, 'mi/center-left/1.03'): (8563, '08d33f925663b1d8a27e2c4e833828fcd02618713752c323c40e61f2bbe5941d', 'a21d3fbd23677fd2f6379400d4f10923c0fd49611a562e37d63f98bcd2689130'),
    (1000, 'mi/center-right/1'): (8558, '4554ea38ffd1a190a7dbd2e8eb5b959a93fc33266ed0c8ebcf3e54eb9484d744', 'eda56ec32b282021263fa61545b0d8400441b1ad2f33cf9376653ed13ee960a3'),
    (1000, 'mi/center-right/1.03'): (8558, '7b77875afdaef3cee1ac4e73ba2314530c1914ad217696a73ca061a26f9016f8', '348def0d077174d170c8e01ed7d55f62b72364ce5800c6865b934cf81377d492'),
    (1000, 'mi/left/1'): (8550, '5d1f453d39fbe6a9d349ce541209a0d277ee4593a0d8f011b3baa103852d5004', '9c942dbc818a8448da4a8827ba491ad23ce3e06d07f63bbe6684a7ce88060157'),
    (1000, 'mi/left/1.03'): (8552, 'd2057750fbb5443410c67c53c69b264506460f5fcfc1928d5f72f1d986e6e1ab', '43cd166be6132b1474e827a68330b5c5272dcde093a6cb6666c39b453464f786'),
    (1000, 'mi/right/1'): (8565, '23f19241c8d99c2d878f993c4b94a2ee4e5c852c1e74e30c81eb692063c38539', '487e81cbca1aaf64d18ae70b8d46011128be76b3502bd3e7de5a096f7ea785a8'),
    (1000, 'mi/right/1.03'): (8567, '0fe47726bdee3f7fa99e7f5908c2e417beb4a987d1e874417bd880575750e867', '81aba55f29a466d5aca26cf0039370d66476d283b9c9539d1ecde096ecdc0acc'),
    (3001, 'mi/center-left/1'): (30375, '2b403439a2d1f025f2cf2eeee83ca40d8890a743386587610606e38e7f3448cc', '57fec618daf911143278005412dc254f04b647fc2a5a2abe22c14dd44ae7512b'),
    (3001, 'mi/center-left/1.03'): (30390, '9c19e378d52b8ec12bfe81f30f3bcf8b13a3ee236550225e224c02b5b53e50aa', '3ceb0618638ac47d0a4b67a8f14102e387a940a86137bf5eacfe318e87bbeae9'),
    (3001, 'mi/center-right/1'): (30389, 'c4da1cd0f66b919d060ae9e8bdab99acae36008a2b6337247c45aca47192379e', '06b8e5f2f4955f357c3cb6d05d94da889aadef90884ee6ef66b081e5ab4d163e'),
    (3001, 'mi/center-right/1.03'): (30395, '343c0d6447563a2893e7ed9387a8ee67075dd1bb9ea5effbc61990ef9b4ba5df', '93fd4fdf98fcf8f0852a7b819ee4d9f51809561d3c6896d807c4355a7faf0092'),
    (3001, 'mi/left/1'): (30384, 'dbcd8ee5acad2c5266a5d8c6fa168a547091c5aaf6a733b807e58d2b50510f36', '8e47c559164ba4abf57f5ffb1d600b9879c4b7b90849659824c440341f2d64b2'),
    (3001, 'mi/left/1.03'): (30386, 'ebf6db8871d39ecc8f35ba9179d14f8f82a11610e14ea09a2798b0918de7d9dd', '5b4734f2d1559d4852e4bc3412fea3b509415084aa501b04765a10fa38b22cda'),
    (3001, 'mi/right/1'): (30395, '8c0914c20ed335b15152ab3ac19b3775f83cce8957540639a3d04f78c66db414', '37c4ffe7ac46058b25bcd423ffa585bc31612540965cde310a3a761b56740288'),
    (3001, 'mi/right/1.03'): (30408, '31f94438d85fa36ad972629f9c3c146f527ff9f1e4a30e6730064535f5567778', '502253e6148e1abfc7fe6bf551dc27d7daac205213bc5c26200cb2cb607f2fa7'),
    (1000, 'combined'): (8571, None, '596b77ae9cefa60cfbc48431a619cbc66fc7bda9bce6a59b2d9d75184305f4aa'),
    (1000, 'one-two'): (8604, None, '5f3a6f3639ee271c842fb7ecbd63df25e8f1a5ed6de08df69d4951a81078f589'),
    (3001, 'combined'): (30377, None, '961798b3a44765e5719b7e0a6240738b8c32d701fe6cfda712e282175de93dfe'),
    (3001, 'one-two'): (30551, None, 'c6e65501acb2d7cd0c56faea507b0ae006f293005c22e991fe09ea878f76e861'),
}


@pytest.mark.parametrize("n,case", CASES)
def test_sorter_calls_match_golden(n, case):
    assert run_case(n, case) == EXPECTED[(n, case)]


@pytest.mark.parametrize("n,case", [(n, case) for n, case in CASES if case.startswith("mi/")])
def test_native_order_matches_golden(n, case):
    # the default less: no Python comparator, the same counts and records
    _, strategy, factor = case.split("/")
    perm = _rng(SEED, n).permutation(n).tolist()
    outcome = merge_insertion(perm, Strategy.from_name(strategy), Schedule(Fraction(factor)), collect_insertions=True)
    assert outcome.items == list(range(n))
    assert (outcome.comparisons, _sha(outcome.insertions)) == EXPECTED[(n, case)][:2]


if __name__ == "__main__":
    print("EXPECTED = {")
    for n, case in CASES:
        print(f"    ({n}, {case!r}): {run_case(n, case)!r},")
    print("}")
