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

Batched ranks and accesses, and batched zero selects from ``SMALL_BATCH``
queries up, answer from one sorted search (kernel ``sorted_search_many``)
over the values decoded once per kernel backend on first batch use; the
scalar queries keep the textbook high-part ``select`` paths.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.kernel import SMALL_BATCH, as_int_list, one_positions, pack_value
from repro.bits.packed import PackedIntVector
from repro.bitvector.base import (
    StaticBitVector,
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.bitvector.plain import PlainBitVector
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["EliasFanoSequence", "SparseBitVector"]


class EliasFanoSequence:
    """Quasi-succinct encoding of a monotone non-decreasing integer sequence.

    Each value is split into ``low_width`` low-order bits, stored verbatim in a
    packed array, and high-order bits, stored as a unary-coded sequence of
    bucket gaps in a plain bitvector with rank/select support.
    """

    __slots__ = (
        "_n",
        "_universe",
        "_low_width",
        "_low",
        "_high",
        "_searches",
        "_searches_backend",
    )

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
        self._searches = {}
        self._searches_backend = None
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
        self._searches = {}
        self._searches_backend = None
        if (
            not 0 <= self._low_width <= 64
            or self._n < 0
            or len(self._low._words) != -(-self._n * self._low_width // 64)
            or self._high.ones != self._n
            or (self._n and self.select(self._n - 1) >= self._universe)
        ):
            raise SerializationError(
                f"image meta for {prefix} does not match its sections"
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
        if isinstance(indexes, (list, tuple)) and len(indexes) < SMALL_BATCH:
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

    def _handle(self, shifted: bool = False):
        """The kernel backend's sorted-search handle over the values, or
        with ``shifted`` over ``value_i - i`` (sorted when the values
        strictly increase, as a bitvector's one positions do, where it
        counts the zeros before each one).  Each is prepared from one
        :meth:`to_list` on first use and again after a backend switch."""
        backend = kernel.active_backend()
        if self._searches_backend != backend:
            self._searches = {}
            self._searches_backend = backend
        handle = self._searches.get(shifted)
        if handle is None:
            values = self.to_list()
            if shifted:
                values = [value - index for index, value in enumerate(values)]
            handle = self._searches[shifted] = kernel.prepare_sorted(values)
        return handle

    def rank_many(self, values: Sequence[int]):
        """``rank(value)`` for each of ``values``, in input order.

        Each value's insertion point in the values decoded once per kernel
        backend: one ``np.searchsorted`` (numpy) or one ``bisect`` per
        value (python) over the whole batch, O(log n) per value amortised
        over that one decode.  Values past int64 are ranked exactly.  Array
        inputs come back as arrays under the numpy backend.
        """
        return kernel.sorted_search_many(self._handle(), normalize_batch(values))[0]

    def predecessor(self, value: int) -> int:
        """Largest index ``i`` with ``self[i] <= value``; raises if none exists."""
        count = self.rank(value + 1)
        if count == 0:
            raise OutOfBoundsError(f"no value <= {value}")
        return count - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def to_list(self) -> List[int]:
        """Every value in order, from one pass over each half: the
        ``i``-th one of the high part sits at its bucket plus ``i``, and
        one kernel gather reads every low field.  No batch handle of
        either half is left cached."""
        width = self._low_width
        highs = as_int_list(one_positions(self._high.to_words()))
        lows = as_int_list(
            kernel.fields_many(kernel.prepare_fields(self._low._words, width), range(self._n))
        )
        return [
            ((high - index) << width) | low
            for index, (high, low) in enumerate(zip(highs, lows))
        ]

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

    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the Elias-Fano one positions into an image sink."""
        return {
            "length": self._length,
            "positions": self._positions.to_words_image(sink, prefix + "pos."),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "SparseBitVector":
        """Open from a frozen image; the one positions alias it."""
        self = cls.__new__(cls)
        self._length = int(meta["length"])
        self._positions = EliasFanoSequence.from_words_image(
            image, prefix + "pos.", meta["positions"]
        )
        ones = len(self._positions)
        if self._positions.universe != max(self._length, 1) or (
            ones and self._positions[ones - 1] >= self._length
        ):
            raise SerializationError(
                f"image meta for {prefix} says {self._length} bits, its one "
                "positions do not fit"
            )
        return self

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

    # The access and rank batch paths below have no small-batch cut-over:
    # with the handle built, the sorted search beat the scalar access/rank
    # loop at every width of a sweep over the FM-index marks of the
    # 3,000-URL store (3,361 ones in 107,547 rows, list batches of random
    # rows, two runs, 2-vCPU host), in µs per item:
    #
    #   width         1        2      4        8       32       256     1024
    #   numpy    8.4-11.3  5.1-5.8  2.7-3.0  1.4-1.7  0.55-0.66  0.28-0.31  0.30-0.36
    #   python   3.2-5.6   2.8-3.4  2.3      1.0-1.7  0.76-1.15  0.85-1.01  0.93-0.99
    #   scalar   9-18 at every width on both backends
    #
    # The first batch on a backend also builds the handle: 1.7-2.1 ms
    # (numpy) and 3.2-4.1 ms (python) for those marks in two runs of seven,
    # the cost of 100-270 scalar pairs, paid once per index since every
    # later locate reuses it.  The zero select was not swept and keeps
    # ``SMALL_BATCH``.
    def _checked(self, positions, stop: int, label: str):
        """``positions`` normalised, each checked to lie in ``[0, stop)``
        before any is answered (all-or-nothing)."""
        positions = normalize_batch(positions)
        if len(positions):
            lo, hi = batch_min_max(positions)
            if lo < 0 or hi >= stop:
                bad = next(p for p in positions if not 0 <= p < stop)
                raise OutOfBoundsError(
                    f"{label} {bad} out of range for length {self._length}"
                )
        return positions

    def access_many(self, positions: Sequence[int]) -> List[int]:
        """Bits at each position: a position is a one when the one position
        at its insertion point equals it.

        One sorted search of the one positions over the whole batch,
        O(log m) per position amortised over the one decode per backend.
        Always a list.
        """
        positions = self._checked(positions, self._length, "position")
        return as_int_list(
            kernel.sorted_search_many(self._positions._handle(), positions)[1]
        )

    def access_rank_many(self, positions: Sequence[int]):
        """``(bits, ranks)``: the bit at each position and ``rank(bit, pos)``.

        One sorted search gives both: the insertion point is ``rank(1,
        pos)`` and the position is a one when the one position there equals
        it.  O(log m) per position; the locate step of the FM-index asks
        this of its marked rows.  Array inputs come back as arrays under
        the numpy backend.
        """
        positions = self._checked(positions, self._length, "position")
        ones, bits = kernel.sorted_search_many(self._positions._handle(), positions)
        if isinstance(ones, list):
            return bits, [
                one if bit else pos - one
                for pos, bit, one in zip(positions, bits, ones)
            ]
        return bits, bits * ones + (1 - bits) * (positions - ones)

    def rank_many(self, bit: int, positions: Sequence[int]):
        """``rank(bit, pos)`` per position from one sorted search.

        Range-checked all-or-nothing, then one
        :meth:`EliasFanoSequence.rank_many`: O(log m) per position
        amortised over the one decode per backend.  Array inputs come back
        as arrays under the numpy backend.
        """
        self._check_bit(bit)
        positions = self._checked(positions, self._length + 1, "rank position")
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
        plus a low-bit gather, amortised O(1) per index).  Zeros take one
        sorted search: ``p_i - i`` zeros precede the ``i``-th one, so the
        ``j``-th zero sits at ``j`` plus the number of ones with ``p_i - i
        <= j``, O(log m) per index (amortised over one decode per backend).
        Small list batches loop the scalar binary-search :meth:`select`.
        """
        self._check_bit(bit)
        small = isinstance(indexes, (list, tuple)) and len(indexes) < SMALL_BATCH
        total = len(self._positions) if bit else self._length - len(self._positions)
        indexes = validate_select_indexes(indexes, total, bit)
        if bit:
            return self._positions.select_many(indexes)
        if small:
            return [self.select(0, idx) for idx in indexes]
        ones_before, _ = kernel.sorted_search_many(
            self._positions._handle(shifted=True), [idx + 1 for idx in indexes]
        )
        return [idx + ones for idx, ones in zip(indexes, ones_before)]

    def size_in_bits(self) -> int:
        return self._positions.size_in_bits() + 64
