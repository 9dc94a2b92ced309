"""RRR compressed bitvector (Raman, Raman & Rao).

The encoding splits the input into fixed-size blocks; each block is stored as
a pair ``(class, offset)`` where ``class`` is the block popcount and ``offset``
is the index of the block in the lexicographic enumeration of all blocks with
that popcount.  The total payload is ``B(m, n) + o(n)`` bits (paper Section 2),
and with sampled superblock directories ``rank``/``select``/``access`` run in
time proportional to the sampling rate (a constant).

This is the static bitvector used inside the static Wavelet Trie
(Theorem 3.7) and as the frozen-block representation inside the append-only
bitvector (Theorem 4.5).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.codes import (
    combinatorial_bit_at,
    combinatorial_prefix_popcount,
    combinatorial_rank,
    combinatorial_unrank,
    offset_width_table,
)
from repro.bits.kernel import (
    SMALL_BATCH,
    extract_bits_value,
    invert_word,
    iter_word_bits,
    pack_value,
    select_in_word,
    select_in_word_many,
)
from repro.bitvector.base import (
    StaticBitVector,
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["RRRBitVector", "IncrementalRRRBuilder"]

_DEFAULT_BLOCK = 63
_DEFAULT_SAMPLE = 8


class RRRBitVector(StaticBitVector):
    """Static compressed bitvector with (class, offset) block encoding.

    Parameters
    ----------
    bits:
        The payload, as a :class:`Bits` value or any iterable of 0/1.
    block_size:
        Bits per block; 63 keeps every offset within a machine word.
    sample_rate:
        Number of blocks per superblock sample.  Larger values compress the
        directory further at the cost of a longer sequential scan per query.
    """

    __slots__ = (
        "_length",
        "_block_size",
        "_sample_rate",
        "_class_list",
        "_offset_words",
        "_offset_len",
        "_sample_rank",
        "_sample_offset_pos",
        "_ones",
        "_width_by_class",
        "_batch_handle",
        "_batch_backend",
    )

    def __init__(
        self,
        bits: Union[Bits, Iterable[int]] = (),
        block_size: int = _DEFAULT_BLOCK,
        sample_rate: int = _DEFAULT_SAMPLE,
    ) -> None:
        if not isinstance(bits, Bits):
            bits = Bits.from_iterable(bits)
        # Pack once into 64-bit words so per-block extraction is O(1) instead
        # of one O(n / 64) big-int slice per block.
        words = pack_value(bits.value, len(bits))
        IncrementalRRRBuilder(words, len(bits), block_size, sample_rate).finish(
            into=self
        )

    @classmethod
    def from_words(
        cls,
        words: List[int],
        length: int,
        block_size: int = _DEFAULT_BLOCK,
        sample_rate: int = _DEFAULT_SAMPLE,
    ) -> "RRRBitVector":
        """Build from a kernel packed word sequence (list or word array).

        The array-aware construction path: bulk producers hand the words
        straight to the block encoder, skipping any big-int or per-bit
        round trip.
        """
        return IncrementalRRRBuilder(
            kernel.as_int_list(words), length, block_size, sample_rate
        ).finish()

    def _set_blocks(
        self,
        length: int,
        block_size: int,
        sample_rate: int,
        classes: List[int],
        offsets: BitBuffer,
    ) -> None:
        """Take the per-block classes and the offset stream of a finished
        :class:`IncrementalRRRBuilder` and sample the directories from the
        classes: O(blocks), no block encoded or decoded."""
        self._length = length
        self._block_size = block_size
        self._sample_rate = sample_rate
        # Per-class offset widths: the pure-Python stand-in for the
        # four-Russians tables, kept per instance for hot-path list lookups.
        self._width_by_class = widths = offset_width_table(block_size)
        blocks = len(classes)
        ones_before = list(accumulate(classes, initial=0))
        offset_before = list(
            accumulate(map(widths.__getitem__, classes), initial=0)
        )
        # Flat per-block classes: block walks index the list directly (all
        # class values are CPython-cached small ints, so this costs one
        # pointer per block); the space accounting still charges the packed
        # width, see _classes_bits.
        self._class_list = classes
        # The offset stream is kept word-packed: per-query decodes slice two
        # words in O(1) instead of shifting one huge big-int payload.
        self._offset_words = offsets.words()
        self._offset_len = len(offsets)
        self._sample_rank = ones_before[0:blocks:sample_rate]
        self._sample_offset_pos = offset_before[0:blocks:sample_rate]
        self._ones = ones_before[-1]
        self._batch_handle = None
        self._batch_backend = None

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write classes, offset words and the sampled directories to a sink.

        Sections: ``cls`` (one byte per block), ``off`` (the packed offset
        stream), ``srank``/``spos`` (the superblock samples).  The per-class
        width table is recomputed on load (it only depends on the block
        size), so no derived state is stored.  Returns the meta dict
        :meth:`from_words_image` needs.
        """
        sink.add_bytes(prefix + "cls", bytes(self._class_list))
        sink.add_u64(prefix + "off", self._offset_words)
        sink.add_i64(prefix + "srank", self._sample_rank)
        sink.add_i64(prefix + "spos", self._sample_offset_pos)
        return {
            "length": self._length,
            "block_size": self._block_size,
            "sample_rate": self._sample_rate,
            "ones": self._ones,
            "offset_len": self._offset_len,
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "RRRBitVector":
        """Open from a frozen image; no block is re-encoded or decoded.

        The class bytes, offset words and sample directories alias the
        image's mapped bytes read-only; only the O(block_size) width table
        is recomputed.  The views yield python ints, so every combinatorial
        decode path works unchanged.

        The meta is checked against the mapped arrays, since a rewritten
        header passes its own CRC: the block count against ``length`` and
        ``block_size``, the sample count against ``sample_rate``, the
        offset words against ``offset_len``, and ``ones`` and
        ``offset_len`` against the last sample plus the classes after it --
        O(sample_rate) per vector, no block decoded.
        """
        self = cls.__new__(cls)
        self._length = int(meta["length"])
        self._block_size = int(meta["block_size"])
        self._sample_rate = int(meta["sample_rate"])
        self._ones = int(meta["ones"])
        self._offset_len = int(meta["offset_len"])
        if self._length < 0 or not 1 <= self._block_size <= 63 or self._sample_rate < 1:
            raise SerializationError(
                f"image meta for {prefix} has length {self._length}, block "
                f"size {self._block_size} and sample rate {self._sample_rate}"
            )
        self._width_by_class = offset_width_table(self._block_size)
        self._class_list = image.section(prefix + "cls")
        blocks = -(-self._length // self._block_size)
        if len(self._class_list) != blocks:
            raise SerializationError(
                f"image section {prefix}cls holds {len(self._class_list)} "
                f"block classes, the vector has {blocks} blocks"
            )
        self._offset_words = image.words(prefix + "off")
        self._sample_rank = image.int64(prefix + "srank")
        self._sample_offset_pos = image.int64(prefix + "spos")
        samples = -(-blocks // self._sample_rate)
        if len(self._sample_rank) != samples or len(self._sample_offset_pos) != samples:
            raise SerializationError(
                f"image sections {prefix}srank/spos hold "
                f"{len(self._sample_rank)}/{len(self._sample_offset_pos)} "
                f"samples, {blocks} blocks at sample rate {self._sample_rate} "
                f"need {samples}"
            )
        if len(self._offset_words) != -(-self._offset_len // 64):
            raise SerializationError(
                f"image section {prefix}off holds {len(self._offset_words)} "
                f"words for {self._offset_len} offset bits"
            )
        ones = offset_len = 0
        if samples:
            tail = self._class_list[(samples - 1) * self._sample_rate :]
            if max(tail) > self._block_size:
                raise SerializationError(
                    f"image section {prefix}cls holds a class above the "
                    f"block size {self._block_size}"
                )
            ones = self._sample_rank[-1] + sum(tail)
            offset_len = self._sample_offset_pos[-1] + sum(
                self._width_by_class[cls] for cls in tail
            )
        if (ones, offset_len) != (self._ones, self._offset_len):
            raise SerializationError(
                f"image meta for {prefix} says {self._ones} ones and "
                f"{self._offset_len} offset bits, its sections hold {ones} "
                f"and {offset_len}"
            )
        self._batch_handle = None
        self._batch_backend = None
        return self

    @property
    def block_size(self) -> int:
        """Bits per block."""
        return self._block_size

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return self._ones

    def _handle(self):
        """The kernel backend's batch-rank handle, re-prepared on backend switch."""
        backend = kernel.active_backend()
        if self._batch_backend != backend:
            self._batch_handle = kernel.prepare_rrr(
                self._class_list,
                self._offset_words,
                self._sample_rank,
                self._sample_offset_pos,
                self._length,
                self._block_size,
                self._sample_rate,
            )
            self._batch_backend = backend
        return self._batch_handle

    def drop_batch_handle(self) -> None:
        """Forget the kernel batch handle; the next batch call re-prepares it."""
        self._batch_handle = None
        self._batch_backend = None

    # ------------------------------------------------------------------
    def _decode_block(self, block_index: int, offset_pos: int) -> int:
        """Decode block ``block_index`` given the bit position of its offset."""
        cls = self._class_list[block_index]
        off_w = self._width_by_class[cls]
        if off_w == 0:
            # The block is all zeros or all ones.
            return ((1 << self._block_size) - 1) if cls == self._block_size else 0
        offset_value = extract_bits_value(
            self._offset_words, offset_pos, offset_pos + off_w
        )
        return combinatorial_unrank(offset_value, self._block_size, cls)

    def _walk_to_block(self, block_index: int):
        """Return ``(rank_before, offset_pos)`` for the given block."""
        sample_index = block_index // self._sample_rate
        rank_before = self._sample_rank[sample_index]
        offset_pos = self._sample_offset_pos[sample_index]
        widths = self._width_by_class
        classes = self._class_list
        for current in range(sample_index * self._sample_rate, block_index):
            cls = classes[current]
            rank_before += cls
            offset_pos += widths[cls]
        return rank_before, offset_pos

    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        self._check_pos(pos)
        block_index, offset = divmod(pos, self._block_size)
        _, offset_pos = self._walk_to_block(block_index)
        cls = self._class_list[block_index]
        off_w = self._width_by_class[cls]
        if off_w == 0:
            return 1 if cls == self._block_size else 0
        offset_value = extract_bits_value(
            self._offset_words, offset_pos, offset_pos + off_w
        )
        # Truncated enumeration descent: O(offset) instead of decoding the
        # whole block.
        return combinatorial_bit_at(offset_value, self._block_size, cls, offset)

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        if pos == 0:
            return 0
        block_index, offset = divmod(pos, self._block_size)
        if block_index >= len(self._class_list):
            # pos == length and length is a multiple of block_size
            ones = self._ones
            return ones if bit else pos - ones
        rank_before, offset_pos = self._walk_to_block(block_index)
        ones = rank_before
        if offset:
            cls = self._class_list[block_index]
            off_w = self._width_by_class[cls]
            if off_w == 0:
                # All-zeros or all-ones block: the prefix popcount is free.
                ones += offset if cls == self._block_size else 0
            else:
                offset_value = extract_bits_value(
                    self._offset_words, offset_pos, offset_pos + off_w
                )
                ones += combinatorial_prefix_popcount(
                    offset_value, self._block_size, cls, offset
                )
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        total = self._ones if bit else self._length - self._ones
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        # Binary search the superblock sample, then scan blocks.
        if bit:
            sample_index = bisect_right(self._sample_rank, idx) - 1
            seen = self._sample_rank[sample_index]
        else:
            lo, hi = 0, len(self._sample_rank) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                zeros_before = (
                    mid * self._sample_rate * self._block_size
                    - self._sample_rank[mid]
                )
                if zeros_before <= idx:
                    lo = mid
                else:
                    hi = mid - 1
            sample_index = lo
            seen = (
                sample_index * self._sample_rate * self._block_size
                - self._sample_rank[sample_index]
            )
        block_index = sample_index * self._sample_rate
        offset_pos = self._sample_offset_pos[sample_index]
        classes = self._class_list
        n_blocks = len(classes)
        while block_index < n_blocks:
            cls = classes[block_index]
            block_start = block_index * self._block_size
            block_len = min(self._block_size, self._length - block_start)
            in_block = cls if bit else block_len - cls
            if seen + in_block > idx:
                value = self._decode_block(block_index, offset_pos)
                # Left-align the block into a 64-bit word and finish with the
                # kernel's table-driven in-word select (no per-bit scan).
                word = value << (64 - self._block_size)
                if not bit:
                    word = invert_word(word, block_len)
                return block_start + select_in_word(word, idx - seen)
            seen += in_block
            offset_pos += self._width_by_class[cls]
            block_index += 1
        raise AssertionError("select directory inconsistent")  # pragma: no cover

    # ------------------------------------------------------------------
    # Batch query paths
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[int]:
        """Bits at each position: the bits of :meth:`access_rank_many`.

        One kernel ``rrr_access_rank_many`` call, which decodes each
        query's block once (amortised O(q log q + B) over B touched blocks
        on the python backend, a few whole-array passes under numpy).
        Small list batches loop the scalar :meth:`access`.  Always a list.
        """
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
            return [self.access(pos) for pos in positions]
        return kernel.as_int_list(self.access_rank_many(positions)[0])

    def _access_rank(self, pos: int):
        """``(bit, rank(bit, pos))`` from one block walk and one decode."""
        block_index, offset = divmod(pos, self._block_size)
        rank_before, offset_pos = self._walk_to_block(block_index)
        block = self._decode_block(block_index, offset_pos)
        shifted = block >> (self._block_size - 1 - offset)
        ones = rank_before + (shifted >> 1).bit_count()
        bit = shifted & 1
        return bit, ones if bit else pos - ones

    def access_rank_many(self, positions: Sequence[int]):
        """``(bits, ranks)``: the bit at each position and ``rank(bit, pos)``.

        One kernel ``rrr_access_rank_many`` call: one superblock walk,
        offset read and set-bit jump per query give the prefix ones and the
        bit together, so the pair costs what :meth:`rank_many` costs on
        ``q`` positions (an access/rank pair of calls ranks ``2 q``).
        Amortised O(q log q + B) over B touched blocks on the python
        backend; small list batches loop one scalar block decode per
        position.  Array inputs come back as arrays under the numpy
        backend.
        """
        positions = normalize_batch(positions)
        if len(positions) == 0:
            return [], []
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi >= self._length:
            bad = next(p for p in positions if not 0 <= p < self._length)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {self._length}"
            )
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
            pairs = [self._access_rank(pos) for pos in positions]
            return [bit for bit, _ in pairs], [rank for _, rank in pairs]
        return kernel.rrr_access_rank_many(self._handle(), positions)

    def rank_many(self, bit: int, positions: Sequence[int]):
        """``rank(bit, pos)`` per position via the kernel's batched RRR rank.

        One ``rrr_rank_many`` call answers the batch: a sorted block walk
        decoding each touched block once on the python backend (amortised
        O(q log q + B) over B touched blocks), a vectorised superblock walk
        plus set-bit-jumping block decode under numpy.  Small list batches
        loop the scalar :meth:`rank`.  Array inputs come back as arrays
        under the numpy backend, as lists under python.
        """
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
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
        return kernel.rrr_rank_many(self._handle(), bit, positions)

    def _sample_count_before(self, bit: int, sample_index: int) -> int:
        """Occurrences of ``bit`` before sample ``sample_index``."""
        if bit:
            return self._sample_rank[sample_index]
        return (
            sample_index * self._sample_rate * self._block_size
            - self._sample_rank[sample_index]
        )

    def _sample_before_count(self, bit: int, idx: int, lo: int = 0) -> int:
        """Largest sample whose ``bit``-count before it is <= ``idx``."""
        if bit:
            return bisect_right(self._sample_rank, idx, lo) - 1
        hi = len(self._sample_rank) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._sample_count_before(0, mid) <= idx:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def select_many(self, bit: int, indexes) -> List[int]:
        """``select(bit, idx)`` for each index, batch-amortised.

        The indexes are sorted once and the block directory is walked
        monotonically: sample jumps only happen when the next query overshoots
        the current sample's region, each touched block is class/offset
        decoded exactly once, and all queries inside a block are finished by
        the kernel's sorted in-word multi-select.  Amortised O(q log q + B)
        where B is the number of touched blocks, against one directory search
        plus block scan *per query* for the scalar loop.
        """
        self._check_bit(bit)
        total = self._ones if bit else self._length - self._ones
        indexes = validate_select_indexes(indexes, total, bit)
        if not indexes:
            return []
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        out = [0] * len(indexes)
        classes = self._class_list
        widths = self._width_by_class
        block_size = self._block_size
        sample_rate = self._sample_rate
        n_samples = len(self._sample_rank)
        block_index = seen = offset_pos = 0
        jump_needed = True
        at = 0
        n_queries = len(order)
        while at < n_queries:
            idx = indexes[order[at]]
            next_sample = block_index // sample_rate + 1
            if jump_needed or (
                next_sample < n_samples
                and self._sample_count_before(bit, next_sample) <= idx
            ):
                sample_index = self._sample_before_count(bit, idx)
                block_index = sample_index * sample_rate
                seen = self._sample_count_before(bit, sample_index)
                offset_pos = self._sample_offset_pos[sample_index]
                jump_needed = False
            while True:
                cls = classes[block_index]
                block_start = block_index * block_size
                block_len = min(block_size, self._length - block_start)
                in_block = cls if bit else block_len - cls
                if seen + in_block > idx:
                    break
                seen += in_block
                offset_pos += widths[cls]
                block_index += 1
            group_end = at + 1
            while (
                group_end < n_queries
                and indexes[order[group_end]] < seen + in_block
            ):
                group_end += 1
            word = self._decode_block(block_index, offset_pos) << (
                64 - block_size
            )
            if not bit:
                word = invert_word(word, block_len)
            offsets = select_in_word_many(
                word,
                [indexes[order[i]] - seen for i in range(at, group_end)],
            )
            for i, offset in zip(range(at, group_end), offsets):
                out[order[i]] = block_start + offset
            seen += in_block
            offset_pos += widths[cls]
            block_index += 1
            at = group_end
        return out

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        self._check_range(start, stop)
        if start >= stop:
            return
        block_index, offset = divmod(start, self._block_size)
        _, offset_pos = self._walk_to_block(block_index)
        pos = start
        while pos < stop:
            value = self._decode_block(block_index, offset_pos)
            block_start = block_index * self._block_size
            block_len = min(self._block_size, self._length - block_start)
            upper = min(stop - block_start, block_len)
            yield from iter_word_bits(
                value << (64 - self._block_size), pos - block_start, upper
            )
            pos = block_start + upper
            offset_pos += self._width_by_class[self._class_list[block_index]]
            block_index += 1

    def to_words(self) -> List[int]:
        """The payload as a kernel packed word list (zero-padded at the
        end): one batched decode of every block (``rrr_decode_words``)."""
        return kernel.as_int_list(
            kernel.rrr_decode_words(self._handle(), 0, len(self._class_list))
        )

    # ------------------------------------------------------------------
    def _classes_bits(self) -> int:
        """Size the class array is charged at: packed width, word-rounded."""
        width = max(1, self._block_size.bit_length())
        return ((len(self._class_list) * width + 63) // 64) * 64

    def size_in_bits(self) -> int:
        """Total encoded size: classes + offsets + sampled directories."""
        classes = self._classes_bits()
        offsets = self._offset_len
        samples = (len(self._sample_rank) + len(self._sample_offset_pos)) * 64
        return classes + offsets + samples

    def payload_bits(self) -> int:
        """Bits of the (class, offset) payload only, the ``B(m, n)`` part."""
        return self._classes_bits() + self._offset_len

    def compressed_payload_bits(self) -> int:
        """The offset stream alone (the entropy-proportional part)."""
        return self._offset_len


class IncrementalRRRBuilder:
    """The RRR encoder: de-amortised construction over a packed-word payload.

    Every RRR vector is encoded here: :class:`RRRBitVector` and its
    ``from_words`` run a builder to the end in one :meth:`finish` call.  The
    paper de-amortises the append-only bitvector's tail freeze (Lemma 4.7
    -> Theorem 4.5 worst case) by running the compression of the previous
    tail *incrementally* while new bits accumulate in a fresh one.  This
    builder is that mechanism: it owns a frozen payload (kernel packed words)
    and encodes a *bounded* number of RRR blocks per :meth:`encode_blocks`
    call, so the caller can spread the combinatorial work over many appends
    instead of paying one O(payload) stop-the-world pass.

    While the build is in flight the raw payload stays queryable through
    :attr:`words` / :attr:`length`.
    """

    __slots__ = (
        "words",
        "length",
        "_block_size",
        "_sample_rate",
        "_cursor",
        "_classes",
        "_offsets",
        "_width_by_class",
    )

    def __init__(
        self,
        words: List[int],
        length: int,
        block_size: int = _DEFAULT_BLOCK,
        sample_rate: int = _DEFAULT_SAMPLE,
    ) -> None:
        if not 1 <= block_size <= 63:
            raise ValueError("block_size must be between 1 and 63")
        if sample_rate < 1:
            raise ValueError("sample_rate must be positive")
        self.words = words
        self.length = length
        self._block_size = block_size
        self._sample_rate = sample_rate
        self._cursor = 0
        self._classes: List[int] = []
        self._offsets = BitBuffer()
        self._width_by_class = offset_width_table(block_size)

    @property
    def done(self) -> bool:
        """True once every block of the payload has been encoded."""
        return self._cursor >= self.length

    @property
    def pending_bits(self) -> int:
        """Payload bits not yet encoded."""
        return max(0, self.length - self._cursor)

    def encode_blocks(self, max_blocks: int, available: Optional[int] = None) -> int:
        """Encode up to ``max_blocks`` further RRR blocks; returns how many.

        Each block costs one O(1)-word extraction plus one combinatorial
        rank -- the bounded unit of freeze work per append.  A producer
        still filling :attr:`words` passes ``available``, the payload bits
        written so far: only blocks wholly inside it are encoded.
        """
        block_size, length = self._block_size, self.length
        end = length if available is None else min(length, available - block_size + 1)
        starts = range(self._cursor, end, block_size)[: max(max_blocks, 0)]
        words, widths = self.words, self._width_by_class
        classes, offsets = self._classes, self._offsets
        for start in starts:
            stop = min(start + block_size, length)
            # Right-pad the final partial block with zeros to full width.
            value = extract_bits_value(words, start, stop) << (block_size + start - stop)
            block_class = value.bit_count()
            classes.append(block_class)
            width = widths[block_class]
            if width:
                offsets.append_int(combinatorial_rank(value, block_size, block_class), width)
        if starts:
            self._cursor = min(starts[-1] + block_size, length)
        return len(starts)

    def finish(self, into: Optional[RRRBitVector] = None) -> RRRBitVector:
        """Encode any remaining blocks and assemble the static vector: into
        ``into`` when given (a vector under construction), else a new one."""
        self.encode_blocks(-(-self.pending_bits // self._block_size))
        vector = RRRBitVector.__new__(RRRBitVector) if into is None else into
        vector._set_blocks(
            self.length,
            self._block_size,
            self._sample_rate,
            self._classes,
            self._offsets,
        )
        return vector
