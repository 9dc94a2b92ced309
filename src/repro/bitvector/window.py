"""A node's bitvector as a window onto one shared static bitvector.

The static Wavelet Trie of Theorem 3.7 concatenates the bitvectors of its
internal nodes, in preorder, into one bitvector and delimits them with
partial sums.  :class:`BitvectorWindow` is one node's piece of that
concatenation: a start offset, a length and the number of ones before the
start.  Each query becomes one query on the shared vector, shifted by the
start and corrected by the ones before it, so a node costs three integers
instead of its own encoding, sample directories and image sections (the
layout sdsl-lite's wavelet trees use; Gog et al., SEA 2014, PAPERS.md).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.bitvector.base import (
    StaticBitVector,
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.exceptions import OutOfBoundsError

__all__ = ["BitvectorWindow"]


class BitvectorWindow(StaticBitVector):
    """Bits ``[start, start + length)`` of a shared static bitvector.

    ``start`` (the window's first bit in the shared vector) and
    ``ones_before`` (``vector.rank(1, start)``) are attributes, which a
    descent over the shared vector reads; ``ones`` counts the ones inside
    the window.  All are fixed when the window is made, so
    ``count`` needs no query.  Every operation is one offset call into the
    shared vector (its ``*_many`` forms one batch call), so a window answers
    exactly what a bitvector built over its bits would.
    """

    __slots__ = ("_vector", "start", "_length", "ones_before", "_ones")

    def __init__(
        self, vector, start: int, length: int, ones_before: int, ones: int
    ) -> None:
        self._vector = vector
        self.start = start
        self._length = length
        self.ones_before = ones_before
        self._ones = ones

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return self._ones

    def count(self, bit: int) -> int:
        """Occurrences of ``bit`` in the window, fixed at construction."""
        return self._ones if bit else self._length - self._ones

    def size_in_bits(self) -> int:
        """Zero: a window owns no storage.  The trie charges the shared
        vector once, plus the partial sums that delimit the windows."""
        return 0

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        if not 0 <= pos < self._length:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._length}"
            )
        return self._vector.access(self.start + pos)

    def rank(self, bit: int, pos: int) -> int:
        if not 0 <= pos <= self._length:
            raise OutOfBoundsError(
                f"rank position {pos} out of range for length {self._length}"
            )
        if bit not in (0, 1):
            self._check_bit(bit)
        ones = self._vector.rank(1, self.start + pos) - self.ones_before
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        if bit not in (0, 1):
            self._check_bit(bit)
        total = self._ones if bit else self._length - self._ones
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        return self._vector.select(bit, idx + self._before(bit)) - self.start

    def _before(self, bit: int) -> int:
        """Occurrences of ``bit`` in the shared vector before the window."""
        return self.ones_before if bit else self.start - self.ones_before

    # ------------------------------------------------------------------
    # Batch queries: one shared-vector batch call each
    # ------------------------------------------------------------------
    def _shifted(self, positions, limit: int):
        """``positions`` checked against ``[0, limit]`` and moved to the
        shared vector's coordinates, keeping the container kind."""
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi > limit:
            bad = next(p for p in positions if not 0 <= p <= limit)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {self._length}"
            )
        start = self.start
        if isinstance(positions, (list, tuple)):
            return [start + pos for pos in positions]
        return positions + start

    def access_many(self, positions) -> List[int]:
        """Bits at each of ``positions``: one shared ``access_many`` call,
        so the amortised cost is the shared vector's batch access plus
        O(q) for the shift."""
        positions = normalize_batch(positions)
        if not len(positions):
            return []
        return self._vector.access_many(self._shifted(positions, self._length - 1))

    def rank_many(self, bit: int, positions):
        """``rank(bit, pos)`` per position: one shared ``rank_many`` of the
        ones, amortised the shared vector's batch rank plus O(q).  Lists
        come back as lists, arrays as arrays."""
        if bit not in (0, 1):
            self._check_bit(bit)
        positions = normalize_batch(positions)
        if not len(positions):
            return []
        ranks = self._vector.rank_many(1, self._shifted(positions, self._length))
        before = self.ones_before
        if isinstance(ranks, list):
            if bit:
                return [rank - before for rank in ranks]
            return [pos - rank + before for pos, rank in zip(positions, ranks)]
        ones = ranks - before
        return ones if bit else positions - ones

    def access_rank_many(self, positions):
        """``(bits, ranks)``: the bit at each position and ``rank(bit, pos)``.

        One shared ``access_rank_many`` call, amortised the shared
        vector's batch pair plus O(q) to correct each rank by the
        occurrences of its bit before the window.  Lists come back as
        lists, arrays as arrays."""
        positions = normalize_batch(positions)
        if not len(positions):
            return [], []
        bits, ranks = self._vector.access_rank_many(
            self._shifted(positions, self._length - 1)
        )
        ones_before, zeros_before = self.ones_before, self.start - self.ones_before
        if isinstance(ranks, list):
            return bits, [
                rank - ones_before if bit else rank - zeros_before
                for bit, rank in zip(bits, ranks)
            ]
        return bits, ranks - zeros_before - bits * (ones_before - zeros_before)

    def select_many(self, bit: int, indexes) -> List[int]:
        """``select(bit, idx)`` per index, in input order: one shared
        ``select_many``, amortised the shared vector's batch select (one
        directory walk plus the sort) plus O(q) for the shifts."""
        if bit not in (0, 1):
            self._check_bit(bit)
        indexes = validate_select_indexes(indexes, self.count(bit), bit)
        if not indexes:
            return []
        before, start = self._before(bit), self.start
        found = self._vector.select_many(bit, [idx + before for idx in indexes])
        return [pos - start for pos in found]

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        self._check_range(start, stop)
        return self._vector.iter_range(self.start + start, self.start + stop)
