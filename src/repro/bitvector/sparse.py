"""Elias-Fano monotone sequences and sparse bitvectors.

The static Wavelet Trie (paper Section 3) delimits the concatenated node
labels ``L`` and the concatenated RRR encodings with the partial-sum structure
of Raman, Raman & Rao, which costs ``B(e, |L| + e) + o(...)`` bits.  The
quasi-succinct Elias-Fano representation achieves the same bound up to lower
order terms and is the standard engineering choice, so it is what we build
here:

* :class:`EliasFanoSequence` stores a non-decreasing sequence of integers with
  ``n (2 + log(u / n))`` bits and O(1) ``select`` (access by index);
* :class:`SparseBitVector` exposes the positions of the 1s of a sparse
  bitvector through the same machinery, with full rank/select support.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.kernel import as_int_list, one_positions, pack_value
from repro.bits.packed import PackedIntVector
from repro.bitvector.base import (
    StaticBitVector,
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.bitvector.plain import PlainBitVector
from repro.exceptions import OutOfBoundsError

__all__ = ["EliasFanoSequence", "SparseBitVector"]

# Below this many queries the batch paths loop the scalar queries instead of
# paying for kernel batch calls.
_SMALL_BATCH = 32


class EliasFanoSequence:
    """Quasi-succinct encoding of a monotone non-decreasing integer sequence.

    Each value is split into ``low_width`` low-order bits, stored verbatim in a
    packed array, and high-order bits, stored as a unary-coded sequence of
    bucket gaps in a plain bitvector with rank/select support.
    """

    __slots__ = ("_n", "_universe", "_low_width", "_low", "_high")

    def __init__(self, values: Sequence[int], universe: int | None = None) -> None:
        values = list(values)
        for earlier, later in zip(values, values[1:]):
            if later < earlier:
                raise ValueError("EliasFanoSequence requires a non-decreasing input")
        if values and values[0] < 0:
            raise ValueError("values must be non-negative")
        self._n = len(values)
        self._universe = universe if universe is not None else (values[-1] + 1 if values else 1)
        if values and values[-1] >= self._universe:
            raise ValueError("universe must exceed the largest value")
        if self._n == 0:
            self._low_width = 0
            self._low = PackedIntVector(0)
            self._high = PlainBitVector()
            return
        # Choose the textbook low-part width floor(log2(u / n)).
        ratio = max(1, self._universe // self._n)
        self._low_width = max(0, ratio.bit_length() - 1)
        low = PackedIntVector(self._low_width)
        high_bits = BitBuffer()
        previous_bucket = 0
        mask = (1 << self._low_width) - 1
        for value in values:
            low.append(value & mask if self._low_width else 0)
            bucket = value >> self._low_width
            high_bits.append_run(0, bucket - previous_bucket)
            high_bits.append(1)
            previous_bucket = bucket
        self._low = low
        self._high = PlainBitVector(high_bits.to_bits())

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the low words and the high bitvector into an image sink.

        One ``low`` section holds the packed low halves; the high bitvector
        contributes its own sections under ``prefix + "high."``.  Returns
        the meta dict :meth:`from_words_image` needs.
        """
        sink.add_u64(prefix + "low", self._low._words)
        return {
            "n": self._n,
            "universe": self._universe,
            "low_width": self._low_width,
            "high": self._high.to_words_image(sink, prefix + "high."),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "EliasFanoSequence":
        """Open from a frozen image; low and high halves alias the buffer."""
        self = cls.__new__(cls)
        self._n = int(meta["n"])
        self._universe = int(meta["universe"])
        self._low_width = int(meta["low_width"])
        self._low = PackedIntVector.from_words(
            self._low_width, self._n, image.words(prefix + "low")
        )
        self._high = PlainBitVector.from_words_image(
            image, prefix + "high.", meta["high"]
        )
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def universe(self) -> int:
        """Exclusive upper bound on the stored values."""
        return self._universe

    def __getitem__(self, index: int) -> int:
        return self.select(index)

    def select(self, index: int) -> int:
        """The ``index``-th value (0-based)."""
        if not 0 <= index < self._n:
            raise OutOfBoundsError(f"index {index} out of range for {self._n} values")
        high = self._high.select1(index) - index
        low = self._low[index] if self._low_width else 0
        return (high << self._low_width) | low

    def rank(self, value: int) -> int:
        """Number of stored values strictly smaller than ``value``.

        The textbook Elias-Fano rank: ``select0`` on the high part finds
        where ``value``'s bucket (its high bits) starts and ends, and a
        binary search over that bucket's low bits finishes -- two selects
        plus O(log bucket) low reads.
        """
        if value <= 0 or self._n == 0:
            return 0
        bucket = value >> self._low_width
        last_bucket = len(self._high) - self._n  # zeros of the high part
        if bucket > last_bucket:
            return self._n
        start = self._high.select0(bucket - 1) - bucket + 1 if bucket else 0
        if bucket == last_bucket:
            stop = self._n
        else:
            stop = self._high.select0(bucket) - bucket
        if not self._low_width:
            return start
        mask = (1 << self._low_width) - 1
        return bisect_left(self._low, value & mask, start, stop)

    def select_many(self, indexes: Sequence[int]) -> List[int]:
        """The ``index``-th value for each of ``indexes``, in input order.

        One kernel ``select_many`` over the high part gives every bucket,
        one ``fields_many`` gather the low bits: amortised O(1) per index
        beyond the two batch calls.  Small list batches loop :meth:`select`.
        """
        if isinstance(indexes, (list, tuple)) and len(indexes) < _SMALL_BATCH:
            return [self.select(index) for index in indexes]
        indexes = as_int_list(normalize_batch(indexes))
        if not indexes:
            return []
        if min(indexes) < 0 or max(indexes) >= self._n:
            bad = next(i for i in indexes if not 0 <= i < self._n)
            raise OutOfBoundsError(f"index {bad} out of range for {self._n} values")
        highs = self._high.select_many(1, indexes)
        lows = self._low.get_many(indexes)
        width = self._low_width
        return [
            ((high - index) << width) | low
            for high, index, low in zip(highs, indexes, lows)
        ]

    def rank_many(self, values: Sequence[int]):
        """``rank(value)`` for each of ``values``, in input order.

        Under numpy the textbook rank runs batch-wide: two kernel
        ``select_many(0, .)`` calls bound every value's bucket and a
        vectorised binary search over ``fields_many`` low-bit gathers
        finishes, O(log max-bucket) gathers per batch -- amortised O(1)
        array work per value.  Under the python backend, and for small list
        batches, this is the scalar :meth:`rank` loop.
        """
        values = normalize_batch(values)
        np = kernel.array_module()
        if np is None or (
            isinstance(values, (list, tuple)) and len(values) < _SMALL_BATCH
        ):
            return [self.rank(value) for value in values]
        if len(values) == 0:
            return []
        try:
            query = np.asarray(values, dtype=np.int64)
        except OverflowError:  # values past int64: only the scalar rank fits
            return [self.rank(value) for value in values]
        out = np.zeros(query.size, dtype=np.int64)
        if self._n:
            width = self._low_width
            last_bucket = len(self._high) - self._n
            bucket = query >> width
            out[bucket > last_bucket] = self._n
            inside = np.flatnonzero((query > 0) & (bucket <= last_bucket))
            bucket = bucket[inside]
            after = np.flatnonzero(bucket > 0)
            lo = np.zeros(inside.size, dtype=np.int64)
            lo[after] = (
                self._high.select_many(0, bucket[after] - 1) - bucket[after] + 1
            )
            hi = np.full(inside.size, self._n, dtype=np.int64)
            before = np.flatnonzero(bucket < last_bucket)
            hi[before] = self._high.select_many(0, bucket[before]) - bucket[before]
            if width:
                target = query[inside] & ((1 << width) - 1)
                live = np.flatnonzero(lo < hi)
                while live.size:
                    mid = (lo[live] + hi[live]) >> 1
                    less = self._low.get_many(mid) < target[live]
                    lo[live] = np.where(less, mid + 1, lo[live])
                    hi[live] = np.where(less, hi[live], mid)
                    live = live[lo[live] < hi[live]]
            out[inside] = lo
        return out if isinstance(values, np.ndarray) else out.tolist()

    def predecessor(self, value: int) -> int:
        """Largest index ``i`` with ``self[i] <= value``; raises if none exists."""
        count = self.rank(value + 1)
        if count == 0:
            raise OutOfBoundsError(f"no value <= {value}")
        return count - 1

    def __iter__(self) -> Iterator[int]:
        for index in range(self._n):
            yield self.select(index)

    def to_list(self) -> List[int]:
        """Materialise the sequence."""
        return list(self)

    def size_in_bits(self) -> int:
        """Total encoded size in bits."""
        return self._low.size_in_bits() + self._high.size_in_bits() + 2 * 64


class SparseBitVector(StaticBitVector):
    """A bitvector represented by the Elias-Fano encoding of its 1 positions.

    Efficient when the density of 1s is low, e.g. block delimiters; supports
    the full FID interface.
    """

    __slots__ = ("_length", "_positions")

    def __init__(self, length: int, one_positions: Iterable[int]) -> None:
        positions = sorted(one_positions)
        if positions and (positions[0] < 0 or positions[-1] >= length):
            raise OutOfBoundsError("a 1-position is outside [0, length)")
        for earlier, later in zip(positions, positions[1:]):
            if earlier == later:
                raise ValueError("duplicate 1-position")
        self._length = length
        self._positions = EliasFanoSequence(positions, universe=max(length, 1))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "SparseBitVector":
        """Build from a :class:`Bits` payload or an explicit iterable of bits."""
        if isinstance(bits, Bits):
            # Kernel path: extract the 1-positions bytewise from packed words.
            words = pack_value(bits.value, len(bits))
            return cls(len(bits), as_int_list(one_positions(words)))
        ones = []
        length = 0
        for position, bit in enumerate(bits):
            if bit:
                ones.append(position)
            length += 1
        return cls(length, ones)

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return len(self._positions)

    def access(self, pos: int) -> int:
        self._check_pos(pos)
        rank_after = self._positions.rank(pos + 1)
        rank_before = self._positions.rank(pos)
        return rank_after - rank_before

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        ones = self._positions.rank(pos)
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        if bit:
            if not 0 <= idx < len(self._positions):
                raise OutOfBoundsError(
                    f"select(1, {idx}) out of range: only {len(self._positions)} ones"
                )
            return self._positions.select(idx)
        zeros = self._length - len(self._positions)
        if not 0 <= idx < zeros:
            raise OutOfBoundsError(
                f"select(0, {idx}) out of range: only {zeros} zeros"
            )
        # Binary search over positions: zeros before position p = p - rank1(p).
        lo, hi = 0, self._length - 1
        while lo < hi:
            mid = (lo + hi) // 2
            zeros_through_mid = (mid + 1) - self._positions.rank(mid + 1)
            if zeros_through_mid <= idx:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rank_many(self, bit: int, positions: Sequence[int]):
        """``rank(bit, pos)`` per position via the batched Elias-Fano rank.

        Range-checked all-or-nothing, then one
        :meth:`EliasFanoSequence.rank_many` (amortised O(1) array work per
        position under numpy, the scalar loop otherwise).  Array inputs come
        back as arrays under the numpy backend.
        """
        if isinstance(positions, (list, tuple)) and len(positions) < _SMALL_BATCH:
            return [self.rank(bit, pos) for pos in positions]
        self._check_bit(bit)
        positions = normalize_batch(positions)
        if len(positions) == 0:
            return []
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi > self._length:
            bad = next(p for p in positions if not 0 <= p <= self._length)
            raise OutOfBoundsError(
                f"rank position {bad} out of range for length {self._length}"
            )
        ones = self._positions.rank_many(positions)
        if bit:
            return ones
        if isinstance(ones, list):
            return [pos - one for pos, one in zip(positions, ones)]
        return positions - ones

    def select_many(self, bit: int, indexes: Sequence[int]):
        """``select(bit, idx)`` for each index, in input order.

        Ones are the stored positions themselves: one
        :meth:`EliasFanoSequence.select_many` (a kernel high-part select
        plus a low-bit gather, amortised O(1) per index).  Zeros are an
        unamortised loop of the scalar binary-search :meth:`select`.
        """
        self._check_bit(bit)
        total = len(self._positions) if bit else self._length - len(self._positions)
        indexes = validate_select_indexes(indexes, total, bit)
        if not bit:
            return [self.select(0, idx) for idx in indexes]
        return self._positions.select_many(indexes)

    def size_in_bits(self) -> int:
        return self._positions.size_in_bits() + 64
