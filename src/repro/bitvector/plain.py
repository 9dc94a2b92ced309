"""Uncompressed bitvector with a two-level rank directory.

:class:`PlainBitVector` stores the raw bits packed into 64-bit words plus the
kernel's two-level rank directory -- cumulative popcounts per 8-word
superblock and per-word popcount bytes -- giving O(1) ``rank`` and O(log n)
``select``.  All word-level work is delegated to :mod:`repro.bits.kernel`, so
no query path ever scans bit by bit.  It is the uncompressed baseline among
the static trie's node bitvectors (compared with RRR by
``tests/core/test_static_trie.py::TestSpaceAccounting``) and the workhorse
inside other encodings.

CPython dispatch note
---------------------
The superblock/byte layout is the compact directory of record, and scalar
``rank`` runs on it.  ``select`` and the small-batch paths additionally use
flat per-word cumulative lists *derived* from that directory at construction
(via the kernel's ``cumulative_popcounts``): in CPython a single C-level
``bisect``/list index beats any multi-step Python arithmetic, and the
derived lists cost O(n / 64) integers.  The zeros directories are derived
from the ones counts (``zeros before w = positions before w - ones before
w``), so 0- and 1-select share one code path with no independent zero
structure to keep in sync.  Large batches go through the kernel backend's
``*_many_packed`` functions over a lazily cached backend handle.  Under the
numpy backend those are whole-array gathers and the results mirror the
input container (list in, list out; array in, array out); the python
backend accepts arrays too but always answers with plain lists (its native
container).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Sequence, Union

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bits.kernel import (
    SMALL_BATCH,
    SUPERBLOCK_WORDS,
    WORD,
    WORD_MASK,
    invert_word,
    select_in_word,
)
from repro.bitvector.base import (
    StaticBitVector,
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["PlainBitVector"]


class PlainBitVector(StaticBitVector):
    """Packed, uncompressed bits with a superblock/word rank directory."""

    __slots__ = (
        "_words",
        "_pad_words",
        "_length",
        "_super_cum",
        "_word_pop",
        "_word_cum",
        "_word_abs_cum",
        "_word_abs_zero_cum",
        "_batch_handle",
        "_batch_backend",
    )

    def __init__(self, bits: Union[Bits, Iterable[int]] = ()) -> None:
        if isinstance(bits, Bits):
            # O(n / 8): one big-int -> bytes conversion, no repeated shifts.
            length = len(bits)
            words: List[int] = kernel.pack_value(bits.value, length)
        else:
            words, length = kernel.pack_bits(bits)
            words = kernel.as_int_list(words)
        self._init_from_words(words, length)

    def _init_from_words(self, words: List[int], length: int) -> None:
        self._words = words
        self._length = length
        super_cum, word_pop, word_cum = kernel.build_rank_directory(words)
        self._super_cum = kernel.as_int_list(super_cum)
        self._word_pop = word_pop
        self._word_cum = kernel.as_int_list(word_cum)
        # One zero-padded shadow word so rank at pos == length needs no branch
        # (shifting by a full word yields 0).
        self._pad_words = words + [0]
        # Flat per-word absolute cumulatives (see the module docstring).
        abs_cum, zero_cum = kernel.cumulative_popcounts(word_pop, length)
        self._word_abs_cum = kernel.as_int_list(abs_cum)
        self._word_abs_zero_cum = kernel.as_int_list(zero_cum)
        self._batch_handle = None
        self._batch_backend = None

    def _handle(self):
        """The kernel backend's batch handle, re-prepared on backend switch."""
        backend = kernel.active_backend()
        if self._batch_backend != backend:
            self._batch_handle = kernel.prepare_rank_select(
                self._words,
                self._length,
                self._word_abs_cum,
                self._word_abs_zero_cum,
            )
            self._batch_backend = backend
        return self._batch_handle

    def drop_batch_handle(self) -> None:
        """Forget the kernel batch handle; the next batch call re-prepares it."""
        self._batch_handle = None
        self._batch_backend = None

    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, bits: Bits) -> "PlainBitVector":
        """Build directly from a :class:`Bits` payload."""
        return cls(bits)

    @classmethod
    def from_words(cls, words: Sequence[int], length: int) -> "PlainBitVector":
        """Build from a kernel packed word sequence (list or word array).

        The array-aware construction path: bulk producers (wavelet builders,
        backend packers) hand the words straight in, skipping any big-int or
        per-bit round trip.
        """
        self = cls.__new__(cls)
        self._init_from_words(kernel.as_int_list(words), length)
        return self

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the payload words and every directory into an image sink.

        Sections (all little-endian, named ``prefix`` + suffix): ``words``
        is the padded word payload *including* the rank shadow sentinel;
        ``super``/``wpop``/``wcum`` are the two-level directory and
        ``acum``/``zcum`` the flat per-word absolute cumulatives.  Returns
        the meta dict :meth:`from_words_image` needs.
        """
        sink.add_u64(prefix + "words", self._pad_words)
        sink.add_i64(prefix + "super", self._super_cum)
        sink.add_bytes(prefix + "wpop", bytes(self._word_pop))
        sink.add_u16(prefix + "wcum", self._word_cum)
        sink.add_i64(prefix + "acum", self._word_abs_cum)
        sink.add_i64(prefix + "zcum", self._word_abs_zero_cum)
        return {"length": self._length}

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "PlainBitVector":
        """Open from a frozen image; every field is a zero-copy buffer view.

        Nothing is rebuilt: the words and all five directories alias the
        image's mapped bytes read-only.  The views yield plain python ints,
        so scalar paths work unchanged under every backend, and the numpy
        batch handles wrap the same bytes without copying.
        """
        self = cls.__new__(cls)
        pad = image.words(prefix + "words")
        self._pad_words = pad
        self._words = pad[:-1]
        self._length = int(meta["length"])
        self._super_cum = image.int64(prefix + "super")
        self._word_pop = image.section(prefix + "wpop")
        self._word_cum = image.uint16(prefix + "wcum")
        self._word_abs_cum = image.int64(prefix + "acum")
        self._word_abs_zero_cum = image.int64(prefix + "zcum")
        words = len(self._words)
        if len(self._word_pop) != words or len(self._word_cum) != words + 1:
            raise SerializationError(
                f"image sections {prefix}wpop/wcum do not match the "
                f"vector's {words} words"
            )
        # The meta's length against the arrays: the word count, and the
        # final ones and zeros sentinels, which sum to the length exactly.
        if (
            words != -(-self._length // 64)
            or len(self._word_abs_cum) != words + 1
            or len(self._word_abs_zero_cum) != words + 1
            or self._word_abs_cum[-1] + self._word_abs_zero_cum[-1] != self._length
        ):
            raise SerializationError(
                f"image meta for {prefix} says {self._length} bits, its "
                f"sections hold {words} words"
            )
        # One superblock sample per SUPERBLOCK_WORDS words, then the total
        # that ``ones`` reads, which must be the flat cumulative's.
        if (
            len(self._super_cum) != -(-words // SUPERBLOCK_WORDS) + 1
            or self._super_cum[-1] != self._word_abs_cum[-1]
        ):
            raise SerializationError(
                f"image section {prefix}super does not match the vector's "
                f"{words} words and {self._word_abs_cum[-1]} ones"
            )
        self._batch_handle = None
        self._batch_backend = None
        return self

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return self._super_cum[-1]

    def access(self, pos: int) -> int:
        self._check_pos(pos)
        return (self._words[pos >> 6] >> (WORD - 1 - (pos & 63))) & 1

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        index = pos >> 6
        offset = pos & 63
        # Two-level directory: superblock sample + in-superblock byte + one
        # shifted popcount.
        ones = self._super_cum[index // SUPERBLOCK_WORDS] + self._word_cum[index]
        if offset:
            ones += (self._words[index] >> (WORD - offset)).bit_count()
        return ones if bit else pos - ones

    def select(
        self,
        bit: int,
        idx: int,
        _bisect=bisect_right,
        _select_in_word=select_in_word,
    ) -> int:
        """Word-skipping select; 0 and 1 share one directory-driven code path.

        One C-speed binary search over the flat per-word cumulative (ones, or
        the zeros list derived from it) locates the word; the kernel's
        table-driven ``select_in_word`` finishes inside it.  No per-bit
        scanning anywhere.
        """
        if bit == 1:
            cum = self._word_abs_cum
        elif bit == 0:
            cum = self._word_abs_zero_cum
        else:
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        total = cum[-1]
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        index = _bisect(cum, idx) - 1
        rel = idx - cum[index]
        words = self._words
        word = words[index]
        if not bit:
            # Complement within the word's valid width; the padded tail of
            # the final word must not surface as zeros.
            if index != len(words) - 1:
                word = ~word & WORD_MASK
            else:
                word = invert_word(word, self._length - (index << 6))
        return (index << 6) + _select_in_word(word, rel)

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        self._check_range(start, stop)
        return kernel.broadword_iter_words(self._words, start, stop)

    # ------------------------------------------------------------------
    # Batch query paths (amortise attribute lookups and validation)
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]):
        """Bits at each position, amortised O(1) each.

        Validation is one min/max pass; small batches run a direct word-probe
        comprehension, larger ones one backend ``access_many_packed`` call
        (whole-array gathers under the numpy backend).  Array inputs come
        back as arrays under the numpy backend, as lists under python.
        """
        positions = normalize_batch(positions)
        if len(positions) == 0:
            return []
        length = self._length
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi >= length:
            bad = next(p for p in positions if not 0 <= p < length)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {length}"
            )
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
            words = self._words
            return [
                (words[pos >> 6] >> (WORD - 1 - (pos & 63))) & 1
                for pos in positions
            ]
        return kernel.access_many_packed(self._handle(), positions)

    def rank_many(self, bit: int, positions: Sequence[int]):
        """``rank(bit, pos)`` per position, amortised O(1) each.

        One flat cumulative lookup plus one shifted popcount per query,
        batched: small batches in a single list comprehension, larger ones
        through one backend ``rank_many_packed`` call (one gather + one
        vectorised popcount under the numpy backend).  Array inputs come
        back as arrays under the numpy backend, as lists under python.
        """
        self._check_bit(bit)
        positions = normalize_batch(positions)
        if len(positions) == 0:
            return []
        length = self._length
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi > length:
            bad = next(p for p in positions if not 0 <= p <= length)
            raise OutOfBoundsError(
                f"rank position {bad} out of range for length {length}"
            )
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
            words = self._pad_words
            abs_cum = self._word_abs_cum
            if bit:
                return [
                    abs_cum[index := pos >> 6]
                    + (words[index] >> (WORD - (pos & 63))).bit_count()
                    for pos in positions
                ]
            return [
                pos
                - abs_cum[index := pos >> 6]
                - (words[index] >> (WORD - (pos & 63))).bit_count()
                for pos in positions
            ]
        return kernel.rank_many_packed(self._handle(), bit, positions)

    def access_rank_many(self, positions: Sequence[int]):
        """``(bits, ranks)``: the bit at each position and ``rank(bit, pos)``.

        One word probe per query gives both, amortised O(1) each: small
        list batches in one loop, larger ones through one backend
        ``access_rank_many_packed`` call (one gather, one shift and one
        popcount under the numpy backend).  Array inputs come back as
        arrays under the numpy backend, as lists under python.
        """
        positions = normalize_batch(positions)
        if len(positions) == 0:
            return [], []
        length = self._length
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi >= length:
            bad = next(p for p in positions if not 0 <= p < length)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {length}"
            )
        if isinstance(positions, (list, tuple)) and len(positions) < SMALL_BATCH:
            words = self._words
            abs_cum = self._word_abs_cum
            bits, ranks = [], []
            for pos in positions:
                index = pos >> 6
                shifted = words[index] >> (WORD - 1 - (pos & 63))
                ones = abs_cum[index] + (shifted >> 1).bit_count()
                bit = shifted & 1
                bits.append(bit)
                ranks.append(ones if bit else pos - ones)
            return bits, ranks
        return kernel.access_rank_many_packed(self._handle(), positions)

    def select_many(self, bit: int, indexes: Sequence[int]):
        """``select(bit, idx)`` for each index, batch-amortised.

        Small batches loop the scalar directory select; larger ones go
        through one backend ``select_many_packed`` call -- a monotone shared
        directory walk plus sorted in-word multi-select on the python
        backend, one ``searchsorted`` plus a vectorised byte-table select
        under the numpy backend.  Amortised O(q log n) with shared directory
        work, input order preserved; array inputs come back as arrays under
        the numpy backend, as lists under python.
        """
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        cum = self._word_abs_cum if bit else self._word_abs_zero_cum
        indexes = validate_select_indexes(indexes, cum[-1], bit, keep_arrays=True)
        if len(indexes) == 0:
            return []
        if isinstance(indexes, (list, tuple)) and len(indexes) < SMALL_BATCH:
            return [self.select(bit, idx) for idx in indexes]
        return kernel.select_many_packed(self._handle(), bit, indexes)

    # ------------------------------------------------------------------
    def to_words(self) -> List[int]:
        """The payload as its kernel packed word list."""
        return kernel.as_int_list(self._words)

    def size_in_bits(self) -> int:
        payload = len(self._words) * WORD
        directory = (
            len(self._super_cum) * WORD
            + len(self._word_pop) * 8
            + len(self._word_cum) * 16
            + (len(self._word_abs_cum) + len(self._word_abs_zero_cum)) * WORD
        )
        return payload + directory + WORD  # + the rank shadow sentinel word

    def payload_bits(self) -> int:
        """Bits used by the raw payload only (no rank directory)."""
        return len(self._words) * WORD

    def to_bits(self) -> Bits:
        """Reconstruct the original :class:`Bits` payload."""
        return Bits(kernel.unpack_value(self._words, self._length), self._length)
