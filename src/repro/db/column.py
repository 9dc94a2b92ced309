"""A single compressed, indexed column.

``CompressedColumn`` wraps one Wavelet Trie and exposes the vocabulary a
database developer expects: value access, equality and prefix filters
(returning row positions), counts, distinct values and per-range group-by.
The column can be *static* (bulk loaded, most compact), *appendable*
(rows arrive over time, the log/OLTP case) or *tiered* (the LSM composition
of :mod:`repro.core.tiers`: sustained writes absorbed by a small mutable
tail with budgeted background compaction into frozen RRR tiers); all
support the same reads.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bitvector.base import validate_select_indexes
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.interface import (
    IndexedStringSequence,
    check_select_index,
    check_select_prefix_index,
    validate_select_prefix_indexes,
)
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import InvalidOperationError, OutOfBoundsError, ValueNotFoundError
from repro.tries.binarize import StringCodec

__all__ = ["ColumnSnapshot", "CompressedColumn"]


class ColumnSnapshot(IndexedStringSequence):
    """A read-only view of a column pinned at a fixed row count.

    The snapshot shares the column's index -- creating one is O(1) and copies
    nothing -- and answers every read as of the pinned length ``version``:
    positions are validated against the pinned length, ranks are taken at
    clamped positions, and select indexes are validated against the
    occurrence count *within the pinned prefix*, which for an append-only
    column guarantees the answer never observes a row appended after the pin
    (row ``i < version`` is immutable, and the ``idx``-th occurrence for
    ``idx < rank(value, version)`` lies below ``version``).

    This is the single-writer/many-reader primitive the serving layer builds
    on: the writer keeps appending to (and compacting) the live index while
    readers hold a consistent frozen view, with no cross-tier copying --
    compaction only changes the physical tier layout, never the logical
    prefix a snapshot pins.  The handle is only sound under the column's
    append-only mutation discipline; structures mutated in the middle
    (:class:`~repro.core.dynamic.DynamicWaveletTrie` used directly) shift
    positions and need a real frozen copy instead
    (:func:`~repro.core.tiers.freeze_trie`).
    """

    def __init__(self, index: Any, version: Optional[int] = None) -> None:
        size = len(index)
        if version is None:
            version = size
        if not 0 <= version <= size:
            raise OutOfBoundsError(
                f"snapshot version {version} out of range for length {size}"
            )
        self._index = index
        self._version = version

    @property
    def version(self) -> int:
        """The pinned row count (also the snapshot's logical length)."""
        return self._version

    def is_current(self) -> bool:
        """True while no row has been appended since the pin."""
        return len(self._index) == self._version

    # ------------------------------------------------------------------
    # Scalar reads, all answered as of the pinned prefix
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._version

    def _check_position(self, pos: int) -> None:
        if not 0 <= pos < self._version:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._version}"
            )

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= self._version:
            raise OutOfBoundsError(
                f"rank position {pos} out of range for length {self._version}"
            )

    def access(self, pos: int) -> Any:
        """Value at ``pos`` as of the pin (rows below ``version`` are immutable)."""
        self._check_position(pos)
        return self._index.access(pos)

    def rank(self, value: Any, pos: int) -> int:
        """Occurrences of ``value`` in the pinned prefix ``[0, pos)``."""
        self._check_rank_pos(pos)
        return self._index.rank(value, pos)

    def select(self, value: Any, idx: int) -> int:
        """Position of the ``idx``-th occurrence within the pinned prefix."""
        total = self._index.rank(value, self._version)
        if total == 0:
            raise ValueNotFoundError(
                f"value {value!r} does not occur in the sequence"
            )
        check_select_index(value, idx, total)
        return self._index.select(value, idx)

    def rank_prefix(self, prefix: Any, pos: int) -> int:
        """Prefix matches in the pinned prefix ``[0, pos)``."""
        self._check_rank_pos(pos)
        return self._index.rank_prefix(prefix, pos)

    def select_prefix(self, prefix: Any, idx: int) -> int:
        """Position of the ``idx``-th prefix match within the pinned prefix."""
        matches = self._index.rank_prefix(prefix, self._version)
        if matches == 0:
            raise ValueNotFoundError(f"no element has prefix {prefix!r}")
        check_select_prefix_index(prefix, idx, matches)
        return self._index.select_prefix(prefix, idx)

    # ------------------------------------------------------------------
    # Batch reads: validate against the pin, then one delegated batch walk
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[Any]:
        """Values at each position; amortised by the index's one batch walk
        after an O(q) pin check."""
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_position(pos)
        return self._index.access_many(positions)

    def rank_many(self, value: Any, positions: Sequence[int]) -> List[int]:
        """Rank at each position; amortised by the index's one batch walk
        after an O(q) pin check."""
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_rank_pos(pos)
        return self._index.rank_many(value, positions)

    def select_many(self, value: Any, indexes: Sequence[int]) -> List[int]:
        """Positions of the requested occurrences; amortised by the index's
        one batch walk after one pinned-count rank + O(q) validation."""
        indexes = [int(idx) for idx in indexes]
        if not indexes:
            return []
        total = self._index.rank(value, self._version)
        if total == 0:
            raise ValueNotFoundError(
                f"value {value!r} does not occur in the sequence"
            )
        indexes = validate_select_indexes(indexes, total, value)
        return self._index.select_many(value, indexes)

    def rank_prefix_many(self, prefix: Any, positions: Sequence[int]) -> List[int]:
        """Prefix rank at each position; amortised by the index's one batch
        walk after an O(q) pin check."""
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_rank_pos(pos)
        return self._index.rank_prefix_many(prefix, positions)

    def select_prefix_many(self, prefix: Any, indexes: Sequence[int]) -> List[int]:
        """Positions of the requested prefix matches; amortised by the
        index's one batch walk after one pinned-count rank + O(q) validation."""
        indexes = [int(idx) for idx in indexes]
        if not indexes:
            return []
        matches = self._index.rank_prefix(prefix, self._version)
        if matches == 0:
            raise ValueNotFoundError(f"no element has prefix {prefix!r}")
        indexes = validate_select_prefix_indexes(indexes, matches, prefix)
        return self._index.select_prefix_many(prefix, indexes)

    # ------------------------------------------------------------------
    def iter_range(self, start: int, stop: int) -> Iterator[Any]:
        """Rows ``[start, stop)`` of the pinned prefix, in row order."""
        if not (0 <= start <= stop <= self._version):
            raise OutOfBoundsError(
                f"range [{start}, {stop}) invalid for sequence of length "
                f"{self._version}"
            )
        return self._index.iter_range(start, stop)

    def size_in_bits(self) -> int:
        """Footprint of the shared index (the snapshot itself owns nothing)."""
        return self._index.size_in_bits()


class CompressedColumn:
    """One named, compressed, indexed column of string values."""

    def __init__(
        self,
        name: str,
        values: Iterable[Any] = (),
        appendable: bool = True,
        codec: Optional[StringCodec] = None,
        tiered: bool = False,
    ) -> None:
        self.name = name
        if tiered:
            self._appendable = True
            self._index = TieredWaveletTrie(values, codec=codec)
        elif appendable:
            self._appendable = True
            self._index = AppendOnlyWaveletTrie(values, codec=codec)
        else:
            self._appendable = False
            self._index = WaveletTrie(values, codec=codec)

    @classmethod
    def from_index(
        cls, name: str, index: Any, appendable: Optional[bool] = None
    ) -> "CompressedColumn":
        """Wrap an existing Wavelet Trie as a column (shares it, copies nothing).

        This is how a persisted index (``repro.storage.load``) becomes
        servable: the CLI ``serve`` command loads the file and wraps it.
        ``appendable`` defaults to False over a static :class:`WaveletTrie`
        and to True over a growable one; a static index cannot be made
        appendable (:class:`InvalidOperationError`), the rule the image
        loader enforces.
        """
        static = isinstance(index, WaveletTrie)
        if appendable and static:
            raise InvalidOperationError(
                f"column {name!r} cannot be appendable over a static index"
            )
        column = cls.__new__(cls)
        column.name = name
        column._appendable = not static if appendable is None else bool(appendable)
        column._index = index
        return column

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    @property
    def appendable(self) -> bool:
        """True if rows can still be appended."""
        return self._appendable

    @property
    def index(self):
        """The underlying Wavelet Trie (for advanced queries)."""
        return self._index

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Append one value (one new row) at the end of the column."""
        if not self._appendable:
            raise InvalidOperationError(
                f"column {self.name!r} was loaded statically and cannot grow"
            )
        self._index.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        """Append many values (the index's bulk path: one buffered descent
        per distinct key, and budgeted compaction for tiered columns)."""
        if not self._appendable:
            raise InvalidOperationError(
                f"column {self.name!r} was loaded statically and cannot grow"
            )
        self._index.extend(values)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> ColumnSnapshot:
        """A read-only view pinned at the current row count, in O(1).

        The snapshot shares the index: later :meth:`append`/:meth:`extend`
        calls (and tiered compaction) do not change any answer it gives.
        This is the read side of the serving layer's single-writer rule.
        """
        return ColumnSnapshot(self._index)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value_at(self, row: int) -> Any:
        """The value stored at row ``row``."""
        return self._index.access(row)

    def count_eq(self, value: Any, end_row: Optional[int] = None) -> int:
        """Rows equal to ``value`` among the first ``end_row`` rows (default all)."""
        end_row = len(self._index) if end_row is None else end_row
        return self._index.rank(value, end_row)

    def count_prefix(self, prefix: Any, end_row: Optional[int] = None) -> int:
        """Rows whose value starts with ``prefix`` among the first ``end_row`` rows."""
        end_row = len(self._index) if end_row is None else end_row
        return self._index.rank_prefix(prefix, end_row)

    def rows_eq(self, value: Any, limit: Optional[int] = None) -> Iterator[int]:
        """Row positions holding exactly ``value`` (ascending), up to ``limit``."""
        total = self._index.count(value)
        if limit is not None:
            total = min(total, limit)
        for idx in range(total):
            yield self._index.select(value, idx)

    def rows_prefix(self, prefix: Any, limit: Optional[int] = None) -> Iterator[int]:
        """Row positions whose value starts with ``prefix`` (ascending)."""
        total = self._index.count_prefix(prefix)
        if limit is not None:
            total = min(total, limit)
        for idx in range(total):
            yield self._index.select_prefix(prefix, idx)

    def distinct(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple[Any, int]]:
        """Distinct values (with counts) in the row range ``[start, stop)``."""
        stop = len(self._index) if stop is None else stop
        return self._index.distinct_in_range(start, stop)

    def group_by_count(
        self, start: int = 0, stop: Optional[int] = None, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """GROUP BY value with COUNT(*), restricted to a row range and optional prefix."""
        stop = len(self._index) if stop is None else stop
        return self._index.distinct_in_range(start, stop, prefix)

    def top_values(
        self, k: int, start: int = 0, stop: Optional[int] = None, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """The ``k`` most frequent values in a row range."""
        stop = len(self._index) if stop is None else stop
        return self._index.top_k_in_range(start, stop, k, prefix)

    def values(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Any]:
        """Scan the column values in row order."""
        stop = len(self._index) if stop is None else stop
        return self._index.iter_range(start, stop)

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Measured size of the column's compressed index."""
        return self._index.size_in_bits()
