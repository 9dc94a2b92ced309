"""Common interface for all rank/select bitvectors.

Every bitvector in the package -- static or dynamic -- implements the
*Fully Indexable Dictionary* interface of the paper's Section 2:

* ``access(pos)`` -- the bit at position ``pos``;
* ``rank(bit, pos)`` -- occurrences of ``bit`` in positions ``[0, pos)``;
* ``select(bit, idx)`` -- position of the ``idx``-th (0-based) occurrence of
  ``bit``.

The base class provides argument validation, convenience wrappers
(``rank1``, ``select0``, iteration, equality against a list of bits) and a
uniform ``size_in_bits()`` space-accounting hook used by
:mod:`repro.analysis.space`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Tuple

from repro.bits.kernel import as_int_list
from repro.exceptions import OutOfBoundsError

__all__ = [
    "BitVector",
    "StaticBitVector",
    "check_select_index",
    "validate_select_indexes",
]


def check_select_index(value, idx: int, occurrences: int) -> None:
    """Range-check a ``select`` index, a negative one included, against the
    occurrence count of ``value``.

    Raises the **canonical** out-of-range error -- one exception type
    (:class:`OutOfBoundsError`) and one message naming the value -- of every
    ``select`` and ``select_many``: the bitvectors' (whose values are the
    bits), the Wavelet Tries', the column snapshots', the oracle's and the
    served frames', so the differential tests can assert them
    byte-for-byte.  Sequence callers raise
    :class:`~repro.exceptions.ValueNotFoundError` for an absent value first;
    :mod:`repro.core.interface` re-exports this check beside
    ``check_select_prefix_index``.
    """
    if not 0 <= idx < occurrences:
        raise OutOfBoundsError(
            f"select({value!r}, {idx}) out of range: only {occurrences} occurrences"
        )


def validate_select_indexes(indexes, total: int, value, keep_arrays=False):
    """Normalise and range-check a ``select_many`` index batch of ``value``.

    Returns ``indexes`` as a list of plain ints; raises the canonical
    :func:`check_select_index` error naming the first offending index, in
    input order, if any falls outside ``[0, total)``.  With
    ``keep_arrays=True`` a backend-native index array passes through
    unchanged (vectorised validation only) -- reserved for callers whose
    batch path is array-aware, such as ``PlainBitVector``.  Shared by every
    ``select_many`` implementation so the batch contract (all-or-nothing
    validation, uniform error message) cannot drift between encodings.
    """
    indexes = normalize_batch(indexes)
    if len(indexes):
        lo, hi = batch_min_max(indexes)
        if lo < 0 or hi >= total:
            bad = next(i for i in indexes if not 0 <= i < total)
            check_select_index(value, bad, total)
    if not isinstance(indexes, (list, tuple)):
        # A backend-native index array: keep it (read-only per the kernel
        # contract) only for callers whose batch path is array-aware;
        # everyone else gets the historical plain-int list.
        if keep_arrays:
            return indexes
        return as_int_list(indexes)
    return list(indexes)


def normalize_batch(queries):
    """Normalise a batch-query container for the shared `*_many` paths.

    Lists and tuples pass through; a backend-native index array (anything
    exposing both ``min`` and ``__getitem__``, e.g. ``np.ndarray``) passes
    through unchanged so the kernel's vectorised paths keep it; every other
    iterable (generators, sets, dict views, ranges) is drained into a list.
    One definition shared by every batch entry point so the
    container-detection heuristic cannot drift between call sites.
    """
    if isinstance(queries, (list, tuple)):
        return queries
    if hasattr(queries, "min") and hasattr(queries, "__getitem__"):
        return queries
    return list(queries)


def batch_min_max(queries):
    """Bounds of a :func:`normalize_batch`-normalised non-empty batch, using
    the container's native vectorised reduction when it has one."""
    if isinstance(queries, (list, tuple)):
        return min(queries), max(queries)
    return queries.min(), queries.max()


class BitVector(ABC):
    """Abstract rank/select bitvector."""

    # ------------------------------------------------------------------
    # Abstract core
    # ------------------------------------------------------------------
    @abstractmethod
    def __len__(self) -> int:
        """Number of bits stored."""

    @abstractmethod
    def access(self, pos: int) -> int:
        """Return the bit at position ``pos`` (0-based)."""

    @abstractmethod
    def rank(self, bit: int, pos: int) -> int:
        """Number of occurrences of ``bit`` in positions ``[0, pos)``."""

    @abstractmethod
    def select(self, bit: int, idx: int) -> int:
        """Position of the ``idx``-th (0-based) occurrence of ``bit``."""

    @abstractmethod
    def size_in_bits(self) -> int:
        """Space used by the encoding, in bits (payload + directories)."""

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    @property
    def ones(self) -> int:
        """Total number of 1 bits."""
        return self.rank(1, len(self))

    @property
    def zeros(self) -> int:
        """Total number of 0 bits."""
        return len(self) - self.ones

    def count(self, bit: int) -> int:
        """Total number of occurrences of ``bit``."""
        return self.ones if bit else self.zeros

    def rank0(self, pos: int) -> int:
        """Occurrences of 0 in ``[0, pos)``."""
        return self.rank(0, pos)

    def rank1(self, pos: int) -> int:
        """Occurrences of 1 in ``[0, pos)``."""
        return self.rank(1, pos)

    def select0(self, idx: int) -> int:
        """Position of the ``idx``-th 0."""
        return self.select(0, idx)

    def select1(self, idx: int) -> int:
        """Position of the ``idx``-th 1."""
        return self.select(1, idx)

    def rank_range(self, bit: int, start: int, stop: int) -> int:
        """Occurrences of ``bit`` in ``[start, stop)``."""
        if start > stop:
            raise OutOfBoundsError(f"invalid range [{start}, {stop})")
        return self.rank(bit, stop) - self.rank(bit, start)

    # ------------------------------------------------------------------
    # Batch query paths
    # ------------------------------------------------------------------
    def access_many(self, positions) -> List[int]:
        """Bits at each of ``positions``.

        Implementations with a cheaper amortised path (e.g. the word-level
        kernel of :class:`~repro.bitvector.plain.PlainBitVector`) override
        this; the default simply loops.
        """
        return [self.access(pos) for pos in positions]

    def rank_many(self, bit: int, positions) -> List[int]:
        """``rank(bit, pos)`` for each of ``positions`` (batch-amortised)."""
        return [self.rank(bit, pos) for pos in positions]

    def access_rank_many(self, positions) -> Tuple[List[int], List[int]]:
        """``(bits, ranks)``: the bit at each position and ``rank(bit, pos)``.

        The pair a wavelet descent needs at every node: the bit routes the
        query to a child and the rank is its position there.  Encodings
        with a fused kernel path override this; the default asks for one
        ``access_many`` and one ``rank_many(1)``, since ``rank(0, pos)``
        is ``pos - rank(1, pos)``.
        """
        positions = as_int_list(normalize_batch(positions))
        bits = as_int_list(self.access_many(positions))
        ones = as_int_list(self.rank_many(1, positions))
        return bits, [
            count if bit else pos - count
            for pos, bit, count in zip(positions, bits, ones)
        ]

    def select_many(self, bit: int, indexes) -> List[int]:
        """``select(bit, idx)`` for each of ``indexes``, in input order.

        Batch convention (see docs/API.md): ``indexes`` need not be sorted --
        implementations sort internally and restore input order -- and the
        amortised cost is that of one shared directory walk plus the sort,
        O(D + q log q) where D is the directory span touched, instead of q
        independent O(select) descents.  This default simply loops.
        """
        return [self.select(bit, idx) for idx in indexes]

    def __getitem__(self, pos: int) -> int:
        if pos < 0:
            pos += len(self)
        return self.access(pos)

    def __iter__(self) -> Iterator[int]:
        for pos in range(len(self)):
            yield self.access(pos)

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        """Iterate over the bits in ``[start, stop)``.

        Subclasses with cheaper sequential decoding override this; it is the
        building block of the Section 5 sequential-access algorithm.
        """
        self._check_range(start, stop)
        for pos in range(start, stop):
            yield self.access(pos)

    def to_list(self) -> List[int]:
        """Materialise the bits as a Python list (testing helper)."""
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(length={len(self)}, ones={self.ones})"

    # ------------------------------------------------------------------
    # Validation helpers for subclasses
    # ------------------------------------------------------------------
    def _check_pos(self, pos: int) -> None:
        if not 0 <= pos < len(self):
            raise OutOfBoundsError(
                f"position {pos} out of range for length {len(self)}"
            )

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= len(self):
            raise OutOfBoundsError(
                f"rank position {pos} out of range for length {len(self)}"
            )

    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= len(self)):
            raise OutOfBoundsError(
                f"range [{start}, {stop}) invalid for length {len(self)}"
            )

    @staticmethod
    def _check_bit(bit: int) -> int:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return bit


class StaticBitVector(BitVector):
    """Marker base class for immutable bitvectors built once from their bits."""

    def drop_batch_handle(self) -> None:
        """Forget the kernel batch handle a batch call prepared, if any; the
        next batch call that needs one prepares it again."""
