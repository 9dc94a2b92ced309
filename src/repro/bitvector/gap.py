"""Gap-encoded dynamic bitvector (the related-work design of Makinen & Navarro).

Section 4.2 of the paper starts from this structure -- gaps between 1s encoded
with Elias delta codes inside a balanced tree -- and replaces the encoding
with RLE + gamma because gap encoding cannot support ``Init(b, n)`` in
sub-linear time when ``b = 1`` (the number of codes is the number of 1s,
Remark 4.2).  This implementation exists for exactly that comparison: it
shares the balanced-tree machinery of :class:`~repro.bitvector.dynamic.
DynamicBitVector` but stores *gaps*, and its ``init_run`` genuinely degrades
to linear work for runs of ones, which
``tests/bitvector/test_gap.py::TestGapEncodedBitVector::test_init_run_asymmetry``
checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.bits.codes import delta_code_length
from repro.bitvector.base import BitVector
from repro.bitvector.dynamic import DynamicBitVector
from repro.exceptions import OutOfBoundsError

__all__ = ["GapEncodedBitVector"]


class GapEncodedBitVector(BitVector):
    """Dynamic bitvector compressed by the gaps between consecutive 1 bits.

    Internally the positions of the 1s are maintained in a balanced structure
    (reusing the run-length treap keyed by gaps); the exposed behaviour is the
    usual FID interface plus insert/delete/append.  Space is proportional to
    the number of 1s (``m log(n/m)`` bits of delta codes), which is excellent
    for sparse bitvectors but rules out a cheap ``Init(1, n)``.
    """

    __slots__ = ("_length", "_one_positions")

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._length = 0
        # A dynamic bitvector over "is this position a 1" used as the ordered
        # container of one-positions; every operation below maps to O(log n)
        # operations on it.  (The point of this class is the *encoding size*
        # model and the Init comparison, not a second tree implementation.)
        self._one_positions = DynamicBitVector()
        self.extend(bits)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return self._one_positions.ones

    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        self._check_pos(pos)
        return self._one_positions.access(pos)

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        return self._one_positions.rank(bit, pos)

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        return self._one_positions.select(bit, idx)

    # ------------------------------------------------------------------
    # Batch query paths (delegate to the run-treap's single-pass batches)
    # ------------------------------------------------------------------
    def access_many(self, positions: Iterable[int]) -> List[int]:
        """Bits at each position, amortised O(r + q log q) (one runs pass)."""
        return self._one_positions.access_many(positions)

    def rank_many(self, bit: int, positions: Iterable[int]) -> List[int]:
        """``rank(bit, pos)`` per position, amortised O(r + q log q)."""
        self._check_bit(bit)
        return self._one_positions.rank_many(bit, positions)

    def select_many(self, bit: int, indexes: Iterable[int]) -> List[int]:
        """``select(bit, idx)`` per index, amortised O(r + q log q)."""
        self._check_bit(bit)
        return self._one_positions.select_many(bit, indexes)

    # ------------------------------------------------------------------
    def append(self, bit: int) -> None:
        """Append one bit."""
        self._one_positions.append(1 if bit else 0)
        self._length += 1

    def extend(self, bits: Iterable[int]) -> None:
        """Append every bit (bulk ``Append``, via the RLE container's runs path)."""
        self._one_positions.extend(bits)
        self._length = len(self._one_positions)

    def insert(self, pos: int, bit: int) -> None:
        """Insert ``bit`` at position ``pos``."""
        if not 0 <= pos <= self._length:
            raise OutOfBoundsError(f"insert position {pos} out of range")
        self._one_positions.insert(pos, 1 if bit else 0)
        self._length += 1

    def delete(self, pos: int) -> int:
        """Delete and return the bit at position ``pos``."""
        self._check_pos(pos)
        self._length -= 1
        return self._one_positions.delete(pos)

    def delete_many(self, positions: Iterable[int]) -> List[int]:
        """Delete the bits at ``positions``; values come back in input order.

        Delegates to the RLE container's bulk
        :meth:`~repro.bitvector.dynamic.DynamicBitVector.delete_many` (one
        split + linear run surgery + merge), amortised O(log r + r_span +
        k log k) for k deletions instead of k O(log r) walks.
        """
        removed = self._one_positions.delete_many(positions)
        self._length -= len(removed)
        return removed

    @classmethod
    def init_run(cls, bit: int, length: int) -> "GapEncodedBitVector":
        """``Init(b, n)``.

        For ``b = 0`` this is cheap (no 1s, hence no gaps to encode); for
        ``b = 1`` the gap encoding must materialise one code per 1 bit, i.e.
        Omega(n) work -- the Remark 4.2 limitation this class demonstrates.
        """
        vector = cls()
        if bit == 0:
            vector._one_positions = DynamicBitVector.init_run(0, length)
            vector._length = length
            return vector
        for _ in range(length):
            vector.append(1)
        return vector

    # ------------------------------------------------------------------
    def gaps(self) -> Iterator[int]:
        """The gaps ``g_i`` between consecutive 1s (the encoded payload).

        One in-order pass over the underlying runs (O(r + m)) instead of one
        ``select(1, idx)`` tree walk per 1 bit (O(m log r)): within a 1-run of
        length ``k`` the first gap is the preceding 0-run and the remaining
        ``k - 1`` gaps are zero.
        """
        previous = -1
        position = 0
        for bit, length in self._one_positions.runs():
            if bit:
                yield position - previous - 1
                for _ in range(length - 1):
                    yield 0
                previous = position + length - 1
            position += length

    def size_in_bits(self) -> int:
        """Size of the gap + Elias delta encoding (the space model of [18]).

        Computed from the runs in O(r): a 1-run of length ``k`` preceded by a
        gap ``g`` contributes ``delta(g + 1) + (k - 1) * delta(1)`` bits.
        """
        total = 64
        unit = delta_code_length(1)
        previous = -1
        position = 0
        for bit, length in self._one_positions.runs():
            if bit:
                total += delta_code_length(position - previous)
                total += (length - 1) * unit
                previous = position + length - 1
            position += length
        return total

    def to_list(self) -> List[int]:
        return self._one_positions.to_list()
