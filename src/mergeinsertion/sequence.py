"""The main chain: a list addressed by position, range-checked.

``PosSequence`` is a plain ``list`` with two checked methods. ``get``
is the only read the pivot walk in ``strategies.binary_insert`` makes,
so a tracer that wraps it counts search probes and nothing else; the
sorter's partner walk indexes the list directly, and native-order gap
searches run ``bisect.bisect_right`` on it. ``insert`` raises where
``list.insert`` would silently clamp an out-of-range position.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any


class PosSequence(list):
    """Ordered list with range-checked lookup and insertion."""

    __slots__ = ()

    @classmethod
    def from_items(cls, items: Iterable[Any]) -> "PosSequence":
        """Build a sequence holding ``items`` in iteration order."""
        return cls(items)

    def get(self, pos: int) -> Any:
        """Item at ``pos``; raises IndexError outside [0, len)."""
        if not 0 <= pos < len(self):
            raise IndexError(f"position {pos} out of range for length {len(self)}")
        return self[pos]

    def insert(self, pos: int, item: Any) -> None:
        """Place ``item`` at ``pos``, shifting later items right by one.

        ``pos`` may equal the current length (append); anything outside
        [0, len] raises IndexError.
        """
        if not 0 <= pos <= len(self):
            raise IndexError(f"insert position {pos} out of range for length {len(self)}")
        list.insert(self, pos, item)

    def to_list(self) -> list:
        return list(self)
