"""Secondary indexes for the relational engine.

Two index flavours are provided, mirroring what the system relies on in
PostgreSQL:

* :class:`HashIndex` — exact-match lookups on one column (entity ids, names,
  operation types).
* :class:`SortedIndex` — a sorted-key index supporting range scans, used for
  the event ``starttime``/``endtime`` columns so time-window filters do not
  scan the whole event table.

Indexes store row positions (offsets into the table's row list), not row
copies, so they stay cheap to maintain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from typing import Any, Iterable, Iterator, Sequence

#: Shared empty bucket handed out by :meth:`HashIndex.bucket` for misses.
_EMPTY: tuple[int, ...] = ()


class HashIndex:
    """Exact-match index: value → list of row positions."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, list[int]] = defaultdict(list)
        self._size = 0

    def insert(self, value: Any, position: int) -> None:
        """Register that ``position`` holds ``value`` in the indexed column."""
        self._buckets[value].append(position)
        self._size += 1

    def lookup(self, value: Any) -> list[int]:
        """Row positions whose indexed column equals ``value``.

        Returns a fresh list: handing out the internal bucket would let
        callers mutate index state through the return value.
        """
        bucket = self._buckets.get(value)
        return list(bucket) if bucket else []

    def bucket(self, value: Any) -> Sequence[int]:
        """Internal zero-copy variant of :meth:`lookup` for the executor's hot
        path.  The returned sequence aliases index state: callers must treat
        it as read-only.
        """
        return self._buckets.get(value, _EMPTY)

    def lookup_many(self, values: Iterable[Any]) -> list[int]:
        """Row positions matching any of ``values`` (deduplicated, ordered)."""
        seen: set[int] = set()
        positions: list[int] = []
        for value in values:
            for position in self._buckets.get(value, ()):
                if position not in seen:
                    seen.add(position)
                    positions.append(position)
        positions.sort()
        return positions

    def __len__(self) -> int:
        return self._size

    def distinct_values(self) -> int:
        """Number of distinct keys, used for selectivity estimation."""
        return len(self._buckets)


class SortedIndex:
    """Sorted-key index supporting range scans on one column.

    Keys are kept in a sorted list of ``(value, position)`` pairs; range scans
    bisect into the list.  ``None`` values are not indexed (SQL NULL
    semantics: they never match range predicates).
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[Any, int]] = []

    def insert(self, value: Any, position: int) -> None:
        """Insert one (value, position) pair keeping the index sorted."""
        if value is None:
            return
        insort(self._entries, (value, position))

    def _span(self, low: Any, high: Any) -> tuple[int, int]:
        """``[start, stop)`` of the entries whose value lies in ``[low, high]``.

        Raises ``TypeError`` when a bound does not compare with the indexed
        values (e.g. a string bound on an int column).
        """
        start = 0 if low is None else bisect_left(self._entries, (low,))
        # (high, +inf) — any position sorts before it for finite positions.
        stop = (
            len(self._entries)
            if high is None
            else bisect_right(self._entries, (high, float("inf")))
        )
        return start, max(start, stop)

    def range(self, low: Any = None, high: Any = None) -> Iterator[int]:
        """Yield row positions whose value lies in ``[low, high]`` (inclusive),
        in value order.

        Either bound may be ``None`` for an open-ended range.
        """
        start, stop = self._span(low, high)
        for value, position in self._entries[start:stop]:
            yield position

    def count(self, low: Any = None, high: Any = None) -> int:
        """Exact number of positions :meth:`range` yields, from two bisects."""
        start, stop = self._span(low, high)
        return stop - start

    def lookup(self, value: Any) -> list[int]:
        """Row positions whose value equals ``value`` exactly."""
        return list(self.range(value, value))

    def min_value(self) -> Any:
        """Smallest indexed value, or ``None`` for an empty index."""
        return self._entries[0][0] if self._entries else None

    def max_value(self) -> Any:
        """Largest indexed value, or ``None`` for an empty index."""
        return self._entries[-1][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)
