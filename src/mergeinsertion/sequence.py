"""Positional sequence backed by a flat list of blocks.

Items are addressed by zero-based position. The container compares
items in one place only, ``bisect_right``, which finds a gap by native
``<`` for callers whose order is the keys' own. The items live in a
list of blocks (plain lists), and ``_starts[i]`` is the position of
block i's first item. A lookup (``get``) is one bisection of
``_starts`` and one subscript of the block it lands in. An insertion is
one in-block ``list.insert`` plus a bump of every later start, and a
block is split in half once it outgrows a bound that grows like the
square root of the size. No block is empty unless the whole sequence
is.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain
from math import isqrt
from operator import itemgetter
from typing import Any


def _block_bound(size: int) -> int:
    """Largest block length allowed once the sequence holds ``size`` items."""
    # an insertion bumps the start of every later block (a Python loop)
    # and moves part of one block (a memmove), so blocks of ~16 sqrt(size)
    # items keep the two costs balanced
    return max(512, isqrt(size) << 4)


_head = itemgetter(0)


class PosSequence:
    """Ordered container with indexed insert, lookup and iteration."""

    __slots__ = ("_blocks", "_starts", "_size", "_bound")

    def __init__(self) -> None:
        self._blocks: list[list] = [[]]
        self._starts: list[int] = [0]
        self._size = 0
        # _block_bound of some earlier size: bounds grow with the size, so
        # a block within it needs no split, and insert recomputes the bound
        # only when a block outgrows it
        self._bound = _block_bound(0)

    @classmethod
    def from_items(cls, items: Iterable[Any]) -> "PosSequence":
        """Build a sequence holding ``items`` in iteration order, its blocks half full."""
        seq = cls()
        data = list(items)
        if data:
            seq._bound = _block_bound(len(data))
            step = seq._bound >> 1
            seq._blocks = [data[i:i + step] for i in range(0, len(data), step)]
            seq._starts = list(range(0, len(data), step))
            seq._size = len(data)
        return seq

    def __len__(self) -> int:
        return self._size

    def get(self, pos: int) -> Any:
        """Item at ``pos``; raises IndexError outside [0, len)."""
        if not 0 <= pos < self._size:
            raise IndexError(f"position {pos} out of range for length {self._size}")
        starts = self._starts
        i = bisect_right(starts, pos) - 1
        return self._blocks[i][pos - starts[i]]

    __getitem__ = get

    def bisect_right(self, x: Any, lo: int = 0, hi: int | None = None) -> int:
        """Position in [lo, hi] after every item of self[lo:hi] that is not above ``x``.

        Like ``bisect.bisect_right(self.to_list(), x, lo, hi)``: self[lo:hi]
        must be sorted by native ``<``, and every test is ``x < item``. One
        bisection of the block heads inside the range finds the block, a
        second one searches that block. This is the only method that
        compares items. Raises IndexError unless 0 <= lo <= hi <= len.
        """
        if hi is None:
            hi = self._size
        if not 0 <= lo <= hi <= self._size:
            raise IndexError(f"invalid range [{lo}, {hi}) for length {self._size}")
        if lo == hi:
            return lo
        starts, blocks = self._starts, self._blocks
        first = bisect_right(starts, lo) - 1 if lo else 0
        # the heads of blocks first+1 .. last-1 all lie inside [lo, hi)
        last = bisect_right(starts, hi - 1, first)
        i = bisect_right(blocks, x, first + 1, last, key=_head) - 1
        block, start = blocks[i], starts[i]
        # the part of block i inside the range: all of it, except in the
        # blocks holding lo (block first) and hi - 1 (block last - 1)
        b_lo = lo - start if i == first else 0
        b_hi = hi - start if i == last - 1 else len(block)
        return start + bisect_right(block, x, b_lo, b_hi)

    def insert(self, pos: int, item: Any) -> None:
        """Place ``item`` at ``pos``, shifting later items right by one.

        ``pos`` may equal the current length (append); anything outside
        [0, len] raises IndexError.
        """
        if not 0 <= pos <= self._size:
            raise IndexError(f"insert position {pos} out of range for length {self._size}")
        starts = self._starts
        i = bisect_right(starts, pos) - 1
        block = self._blocks[i]
        block.insert(pos - starts[i], item)
        self._size += 1
        for j in range(i + 1, len(starts)):
            starts[j] += 1
        if len(block) > self._bound:
            self._bound = _block_bound(self._size)
            if len(block) > self._bound:
                mid = len(block) >> 1
                self._blocks.insert(i + 1, block[mid:])
                del block[mid:]
                starts.insert(i + 1, starts[i] + mid)

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self._blocks)

    def to_list(self) -> list:
        return list(self)

    def __repr__(self) -> str:
        return f"PosSequence(len={self._size})"
