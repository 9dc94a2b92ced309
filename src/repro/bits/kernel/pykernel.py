"""Pure-python backend of the word-level bit-operations kernel.

This module is the always-available, dependency-free implementation of the
kernel backend contract (see :mod:`repro.bits.kernel` and the "Kernel
backends" section of docs/ARCHITECTURE.md).  It is the correctness oracle:
the numpy backend (:mod:`repro.bits.kernel.npkernel`) must agree with it
bit-for-bit on every contract function, and the cross-backend differential
tests enforce that.  Structures never import this module directly -- they go
through the dispatching façade :mod:`repro.bits.kernel`.

Conventions
-----------
* Bits are MSB-first, matching :class:`~repro.bits.bitstring.Bits`: position
  ``i`` of a ``length``-bit payload ``value`` is ``(value >> (length - 1 - i))
  & 1``.
* A *packed word sequence* is a sequence of 64-bit integers; word ``w`` holds
  the bits of positions ``[w * 64, (w + 1) * 64)`` **left-aligned** (position
  ``w * 64`` is the word's most significant bit).  The final word is
  zero-padded on the right.  This backend produces plain lists of python
  ints; when a packed word sequence is serialised to bytes the words are
  big-endian (``struct`` format ``>Q``).
* Contract functions are pure: they never mutate their arguments and their
  returned containers are freshly allocated.  Opaque handles
  (:func:`prepare_rank_select`, :func:`prepare_symbols`,
  :func:`prepare_rrr`, :func:`prepare_fields`) alias their inputs, so
  callers must not mutate a sequence after preparing a handle from it.

The kernel never scans bit by bit: the in-word ``select`` walks bytes through
a precomputed 256-entry table, bulk packing goes through
``int.to_bytes``/``struct`` in O(n / 8), and sequential iteration emits eight
bits per step from a byte-decode table.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, bisect_right
from itertools import chain
from math import comb
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "WORD",
    "WORD_MASK",
    "SUPERBLOCK_WORDS",
    "SUPERBLOCK_BITS",
    "pack_value",
    "pack_iterable",
    "pack_bits",
    "words_to_int",
    "unpack_value",
    "words_view",
    "invert_word",
    "rank_word_prefix",
    "select_in_word",
    "select_in_word_many",
    "select_zero_in_word",
    "popcount_words",
    "popcount_range",
    "iter_word_bits",
    "broadword_iter_words",
    "build_rank_directory",
    "cumulative_popcounts",
    "extract_bits_value",
    "select_bit_in_words",
    "select_one_in_words",
    "one_positions",
    "run_lengths_of_value",
    "runs_of_value",
    "runs_of_words",
    "delete_positions_from_runs",
    "block_popcounts",
    "prepare_symbols",
    "partition_by_pivot",
    "prepare_rank_select",
    "access_many_packed",
    "rank_many_packed",
    "select_many_packed",
    "prepare_rrr",
    "rrr_rank_many",
    "prepare_fields",
    "fields_many",
]

WORD = 64
WORD_MASK = (1 << WORD) - 1
SUPERBLOCK_WORDS = 8
SUPERBLOCK_BITS = WORD * SUPERBLOCK_WORDS

_BYTE_SHIFTS = (56, 48, 40, 32, 24, 16, 8, 0)


def _build_select_in_byte() -> bytes:
    """``table[byte * 8 + k]`` = MSB-first offset of the k-th set bit of ``byte``."""
    table = bytearray(256 * 8)
    for byte in range(256):
        k = 0
        for offset in range(8):
            if (byte >> (7 - offset)) & 1:
                table[byte * 8 + k] = offset
                k += 1
    return bytes(table)


# The 256-entry four-Russians tables: select-in-byte, the byte's bits decoded
# MSB-first, and the MSB-first offsets of its set bits.
_SELECT_IN_BYTE = _build_select_in_byte()
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple((byte >> (7 - i)) & 1 for i in range(8)) for byte in range(256)
)
_BYTE_ONES: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if (byte >> (7 - i)) & 1) for byte in range(256)
)

# ----------------------------------------------------------------------
# Bulk packing (O(n / 8) via bytes, never repeated big-int shifts)
# ----------------------------------------------------------------------
def pack_value(value: int, length: int) -> List[int]:
    """Pack an MSB-first ``(value, length)`` payload into a left-aligned word list."""
    if length <= 0:
        return []
    n_words = (length + WORD - 1) >> 6
    raw = (value << (n_words * WORD - length)).to_bytes(n_words * 8, "big")
    return list(struct.unpack(f">{n_words}Q", raw))


def pack_iterable(bits: Iterable[int]) -> Tuple[List[int], int]:
    """Pack an iterable of 0/1 values; returns ``(words, length)``."""
    words: List[int] = []
    append = words.append
    word = 0
    filled = 0
    length = 0
    for bit in bits:
        word = (word << 1) | (1 if bit else 0)
        filled += 1
        if filled == WORD:
            append(word)
            length += WORD
            word = 0
            filled = 0
    if filled:
        append(word << (WORD - filled))
        length += filled
    return words, length


# Canonical dispatched name for bulk packing of an iterable of bits; the
# numpy backend overrides it with a vectorised implementation.
def pack_bits(bits: Iterable[int]) -> Tuple[List[int], int]:
    """Pack an iterable of 0/1 values; returns ``(words, length)``.

    Alias of :func:`pack_iterable` under the name the backend contract
    dispatches on; the numpy backend replaces it with ``np.packbits``.
    """
    return pack_iterable(bits)


def words_to_int(words: Sequence[int]) -> int:
    """Concatenate a word list into one big integer of ``64 * len(words)`` bits."""
    if len(words) == 0:
        return 0
    return int.from_bytes(struct.pack(f">{len(words)}Q", *words), "big")


def unpack_value(words: Sequence[int], length: int) -> int:
    """Inverse of :func:`pack_value`: recover the MSB-first payload integer."""
    if length <= 0:
        return 0
    return words_to_int(words) >> (len(words) * WORD - length)


def words_view(buffer):
    """Zero-copy read-only word view over little-endian uint64 bytes.

    ``buffer`` is any bytes-like object -- an ``mmap`` region, ``bytes``,
    ``bytearray`` or ``memoryview`` -- holding packed words serialised
    little-endian, eight bytes per word (the RWT2 frozen-image section
    layout; note this differs from the big-endian ``>Q`` convention of the
    RWT1 logical format).  Returns a read-only ``memoryview`` cast to 64-bit
    unsigned words: indexing yields plain python ints, so the view can stand
    in for a word list in every scalar kernel path without decoding.

    Aliasing rules: the view aliases ``buffer`` (and keeps it alive);
    callers must never mutate the underlying bytes while the view exists.
    On big-endian platforms the bytes cannot be reinterpreted in place, so
    this falls back to a one-time decoding copy (a tuple of ints).
    """
    view = memoryview(buffer)
    if view.nbytes % 8:
        raise ValueError(
            f"word buffer length {view.nbytes} is not a multiple of 8"
        )
    if not view.readonly:
        view = view.toreadonly()
    if sys.byteorder == "little":
        return view.cast("Q")
    count = view.nbytes // 8  # pragma: no cover - big-endian platforms only
    return struct.unpack(f"<{count}Q", view)


# ----------------------------------------------------------------------
# In-word primitives
# ----------------------------------------------------------------------
def invert_word(word: int, width: int = WORD) -> int:
    """Complement of the top ``width`` bits of a left-aligned 64-bit word.

    Bits past ``width`` come out zero, so a padded final word never leaks
    phantom zeros into ``select(0, .)``.
    """
    return (~word) & ((WORD_MASK << (WORD - width)) & WORD_MASK)


def rank_word_prefix(word: int, offset: int) -> int:
    """Ones among the top ``offset`` bits of a left-aligned 64-bit word."""
    if offset <= 0:
        return 0
    return (word >> (WORD - offset)).bit_count()


def select_in_word(word: int, k: int) -> int:
    """MSB-first offset of the ``k``-th (0-based) set bit of a 64-bit word.

    Binary descent by ``bit_count`` halves (64 -> 32 -> 16 -> 8) followed by
    one lookup in the 256-entry select table -- a fixed three branches plus a
    table hit, never a per-bit scan.
    """
    if not 0 <= k < word.bit_count():
        raise ValueError(f"word has fewer than {k + 1} set bits")
    half = word >> 32
    count = half.bit_count()
    if k < count:
        base = 0
    else:
        half = word & 0xFFFFFFFF
        k -= count
        base = 32
    quarter = half >> 16
    count = quarter.bit_count()
    if k >= count:
        quarter = half & 0xFFFF
        k -= count
        base += 16
    byte = quarter >> 8
    count = byte.bit_count()
    if k >= count:
        byte = quarter & 0xFF
        k -= count
        base += 8
    return base + _SELECT_IN_BYTE[(byte << 3) | k]


def select_in_word_many(word: int, ks: Sequence[int]) -> List[int]:
    """Offsets of the ``ks[i]``-th set bits of a 64-bit word, ``ks`` ascending.

    The sorted in-word multi-select primitive behind every ``select_many``
    batch path: one MSB-first byte walk answers the whole group, so ``q``
    queries landing in the same word cost O(8 + q) table hits instead of ``q``
    independent binary descents.  The caller guarantees ``ks`` is sorted and
    every ``k`` is below ``word.bit_count()``.
    """
    out: List[int] = []
    if not ks:
        return out
    table = _SELECT_IN_BYTE
    position = 0
    seen = 0
    total = len(ks)
    for shift in _BYTE_SHIFTS:
        byte = (word >> shift) & 0xFF
        count = byte.bit_count()
        while ks[position] < seen + count:
            out.append((56 - shift) + table[(byte << 3) | (ks[position] - seen)])
            position += 1
            if position == total:
                return out
        seen += count
    raise ValueError(
        f"word has fewer than {ks[position] + 1} set bits"
    )


def select_zero_in_word(word: int, k: int, width: int = WORD) -> int:
    """MSB-first offset of the ``k``-th zero among the top ``width`` bits."""
    return select_in_word(invert_word(word, width), k)


# ----------------------------------------------------------------------
# Ranged popcount and iteration over packed words
# ----------------------------------------------------------------------
def popcount_words(words: Sequence[int]) -> int:
    """Total set bits of a packed word list."""
    return sum(word.bit_count() for word in words)


def popcount_range(words: Sequence[int], start: int, stop: int) -> int:
    """Set bits among positions ``[start, stop)`` of a packed word list."""
    if start >= stop:
        return 0
    first, head = divmod(start, WORD)
    last, tail = divmod(stop, WORD)
    if first == last:
        chunk = (words[first] >> (WORD - tail)) & ((1 << (tail - head)) - 1)
        return chunk.bit_count()
    total = ((words[first] << head) & WORD_MASK).bit_count()
    for index in range(first + 1, last):
        total += words[index].bit_count()
    if tail:
        total += (words[last] >> (WORD - tail)).bit_count()
    return total


def iter_word_bits(word: int, start: int, stop: int) -> Iterator[int]:
    """Yield bits ``[start, stop)`` (MSB-first offsets) of one 64-bit word.

    Emits eight bits per step through the byte-decode table once aligned.
    """
    decode = _BYTE_BITS
    pos = start
    while pos < stop and pos & 7:
        yield (word >> (WORD - 1 - pos)) & 1
        pos += 1
    while stop - pos >= 8:
        yield from decode[(word >> (56 - pos)) & 0xFF]
        pos += 8
    while pos < stop:
        yield (word >> (WORD - 1 - pos)) & 1
        pos += 1


def broadword_iter_words(
    words: Sequence[int], start: int, stop: int
) -> Iterator[int]:
    """Iterate bits ``[start, stop)`` of a packed word list at C speed.

    The covering words are flattened once into a byte string (O(span / 8) via
    ``struct``); the result is then ``chain.from_iterable`` over byte-decode
    table lookups, so per-bit iteration never re-enters a Python frame --
    only one table lookup runs per *byte*, and the unaligned head and tail
    are tuple slices.
    """
    if start >= stop:
        return iter(())
    first_word = start >> 6
    end_word = (stop + WORD - 1) >> 6
    raw = struct.pack(
        f">{end_word - first_word}Q", *words[first_word:end_word]
    )
    base = first_word << 6
    rel_start = start - base
    rel_stop = stop - base
    decode = _BYTE_BITS
    head_stop = min(rel_stop, (rel_start + 7) & ~7)
    parts = []
    if rel_start < head_stop:
        in_byte = rel_start & 7
        parts.append(
            decode[raw[rel_start >> 3]][in_byte : in_byte + head_stop - rel_start]
        )
    if head_stop < rel_stop:
        parts.append(
            chain.from_iterable(
                map(decode.__getitem__, raw[head_stop >> 3 : rel_stop >> 3])
            )
        )
        if rel_stop & 7:
            parts.append(decode[raw[rel_stop >> 3]][: rel_stop & 7])
    return chain.from_iterable(parts)


# ----------------------------------------------------------------------
# Two-level rank directory (superblock cumulative counts + per-word bytes)
# ----------------------------------------------------------------------
def build_rank_directory(
    words: Sequence[int],
) -> Tuple[List[int], bytes, List[int]]:
    """Build the two-level rank directory of a packed word list.

    Returns ``(super_cum, word_pop, word_cum)``:

    * ``super_cum[s]`` -- ones before superblock ``s`` (8 words each), with a
      final sentinel holding the total popcount;
    * ``word_pop`` -- per-word popcounts as raw bytes (each fits in 6 bits);
    * ``word_cum[w]`` -- ones within ``w``'s superblock before word ``w``,
      with one trailing sentinel so ``rank(length)`` needs no special case.
    """
    word_pop = bytes(word.bit_count() for word in words)
    super_cum: List[int] = []
    word_cum: List[int] = []
    cum = 0
    within = 0
    for index, pop in enumerate(word_pop):
        if index % SUPERBLOCK_WORDS == 0:
            super_cum.append(cum)
            within = 0
        word_cum.append(within)
        within += pop
        cum += pop
    super_cum.append(cum)
    word_cum.append(0 if len(words) % SUPERBLOCK_WORDS == 0 else within)
    return super_cum, word_pop, word_cum


def select_one_in_words(
    words: Sequence[int], super_cum: Sequence[int], word_pop: bytes, idx: int
) -> int:
    """Position of the ``idx``-th set bit, via the two-level directory.

    Binary search over superblocks, at most 8 per-word byte skips, then one
    :func:`select_in_word`.  The caller guarantees ``idx`` is in range.
    """
    sb = bisect_right(super_cum, idx) - 1
    seen = super_cum[sb]
    index = sb * SUPERBLOCK_WORDS
    while True:
        count = word_pop[index]
        if seen + count > idx:
            return index * WORD + select_in_word(words[index], idx - seen)
        seen += count
        index += 1


def select_bit_in_words(
    words: Sequence[int], length: int, bit: int, idx: int
) -> int:
    """Position of the ``idx``-th ``bit`` among the top ``length`` bits.

    Directory-free select over a zero-padded packed word list: a linear word
    scan of popcounts plus one table-driven in-word select, O(length / w).
    The zero padding past ``length`` never surfaces in zero-selects.  Used
    where payloads are too short-lived for a rank directory (mutable
    buffers, in-flight freeze stages); the caller guarantees ``idx`` is in
    range.
    """
    remaining = idx
    for word_index, word in enumerate(words):
        width = min(WORD, length - (word_index << 6))
        ones = rank_word_prefix(word, width)
        in_word = ones if bit else width - ones
        if remaining < in_word:
            target = word if bit else invert_word(word, width)
            return (word_index << 6) + select_in_word(target, remaining)
        remaining -= in_word
    raise ValueError(f"word list has fewer than {idx + 1} {bit}-bits")


# ----------------------------------------------------------------------
# Bulk extraction
# ----------------------------------------------------------------------
def extract_bits_value(words: Sequence[int], start: int, stop: int) -> int:
    """The bits ``[start, stop)`` of a packed word list as an MSB-first integer.

    Spans of up to two words (every fixed-size block extraction) cost O(1)
    small-int operations; longer spans fall back to one bulk conversion.
    """
    width = stop - start
    if width <= 0:
        return 0
    first, offset = divmod(start, WORD)
    end_word = (stop + WORD - 1) >> 6
    if end_word - first <= 2:
        span = words[first] << WORD
        if end_word - first == 2:
            span |= words[first + 1]
        return (span >> (2 * WORD - offset - width)) & ((1 << width) - 1)
    span = words_to_int(words[first:end_word])
    return (span >> ((end_word - first) * WORD - offset - width)) & (
        (1 << width) - 1
    )


def one_positions(words: Sequence[int]) -> List[int]:
    """Ascending positions of all set bits, byte-table driven."""
    out: List[int] = []
    ones_of = _BYTE_ONES
    base = 0
    for word in words:
        if word:
            byte_base = base
            for shift in _BYTE_SHIFTS:
                byte = (word >> shift) & 0xFF
                if byte:
                    for offset in ones_of[byte]:
                        out.append(byte_base + offset)
                byte_base += 8
        base += WORD
    return out


def run_lengths_of_value(value: int, length: int) -> List[int]:
    """Lengths of the maximal runs of an MSB-first ``(value, length)`` payload.

    Word-parallel: the boundaries between runs are exactly the set bits of
    ``value ^ (value << 1)`` (each marks a position whose bit differs from its
    predecessor), extracted bytewise instead of comparing bit by bit.
    """
    if length <= 0:
        return []
    boundaries = (value ^ (value << 1)) & ((1 << length) - 1)
    marks = one_positions(pack_value(boundaries, length))
    lengths: List[int] = []
    previous = 0
    for mark in marks:
        boundary = mark + 1
        lengths.append(boundary - previous)
        previous = boundary
    if previous < length:
        lengths.append(length - previous)
    return lengths


def runs_of_value(value: int, length: int) -> List[Tuple[int, int]]:
    """The maximal ``(bit, length)`` runs of an MSB-first payload, in order.

    Word-parallel companion of :func:`run_lengths_of_value`: runs strictly
    alternate, so only the first bit needs to be read -- the rest follow.
    This is the bulk-construction primitive of the dynamic RLE bitvector
    (paper ``Init``/bulk ``Append``): O(n / 8) byte-table work instead of one
    Python-level comparison per bit.
    """
    if length <= 0:
        return []
    bit = (value >> (length - 1)) & 1
    runs: List[Tuple[int, int]] = []
    for run_length in run_lengths_of_value(value, length):
        runs.append((bit, run_length))
        bit ^= 1
    return runs


def runs_of_words(words: Sequence[int], length: int) -> List[Tuple[int, int]]:
    """The maximal ``(bit, length)`` runs of a packed word sequence, in order.

    Word-sequence twin of :func:`runs_of_value`, so callers that already hold
    packed words (bulk RLE construction) never round-trip through a per-bit
    scan.
    """
    if length <= 0:
        return []
    return runs_of_value(unpack_value(words, length), length)


def delete_positions_from_runs(
    runs: Sequence[Tuple[int, int]], positions: Sequence[int]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Remove the bits at sorted ``positions`` from a ``(bit, length)`` run list.

    Returns ``(kept_runs, deleted_bits)``: the surviving runs -- normalised,
    with empty runs dropped and adjacent equal-bit runs coalesced -- and the
    value of every deleted bit, in position order.  ``positions`` must be
    strictly increasing and within the run list's total length (a position
    past the end raises :class:`ValueError`).  This is the O(r + k) run
    surgery behind the dynamic RLE bitvector's bulk ``delete_many``: one
    linear pass over the runs instead of ``k`` tree deletions.
    """
    deleted: List[int] = []
    kept: List[Tuple[int, int]] = []
    total = len(positions)
    at = 0
    end = 0
    for bit, length in runs:
        end += length
        removed = 0
        while at < total and positions[at] < end:
            deleted.append(bit)
            removed += 1
            at += 1
        new_length = length - removed
        if new_length:
            if kept and kept[-1][0] == bit:
                kept[-1] = (bit, kept[-1][1] + new_length)
            else:
                kept.append((bit, new_length))
    if at < total:
        raise ValueError(
            f"position {positions[at]} out of range for run length {end}"
        )
    return kept, deleted


# ----------------------------------------------------------------------
# Directory-derived cumulatives and block popcounts
# ----------------------------------------------------------------------
def cumulative_popcounts(
    word_pop: bytes, length: int
) -> Tuple[List[int], List[int]]:
    """Flat per-word absolute cumulatives from per-word popcount bytes.

    Returns ``(abs_cum, zero_cum)``: ``abs_cum[w]`` is the number of ones
    before word ``w`` (with a final sentinel holding the total) and
    ``zero_cum[w]`` the number of zeros before it, where the final sentinel
    counts only the ``length`` payload bits -- zero padding in the last word
    never surfaces as zeros.  These are the flat directories behind the
    batched rank/select paths.
    """
    abs_cum: List[int] = []
    append = abs_cum.append
    cum = 0
    for pop in word_pop:
        append(cum)
        cum += pop
    append(cum)
    zero_cum = [(index << 6) - ones for index, ones in enumerate(abs_cum)]
    zero_cum[-1] = length - cum
    return abs_cum, zero_cum


def block_popcounts(
    words: Sequence[int], length: int, block_size: int
) -> List[int]:
    """Popcount of each ``block_size``-bit block of the top ``length`` bits.

    The final partial block (if any) is zero-padded, matching the RRR
    encoder's block layout; this is the bulk class-computation primitive of
    RRR construction.
    """
    if length <= 0:
        return []
    out: List[int] = []
    append = out.append
    for start in range(0, length, block_size):
        stop = min(start + block_size, length)
        append(extract_bits_value(words, start, stop).bit_count())
    return out


# ----------------------------------------------------------------------
# Wavelet construction primitives
# ----------------------------------------------------------------------
def prepare_symbols(symbols: Sequence[int]):
    """Backend-native handle for a symbol sequence fed to wavelet builders.

    The python backend works on plain lists; the numpy backend converts to an
    ``int64`` array once so every :func:`partition_by_pivot` level is
    vectorised.  Handles are opaque and only valid with the backend that
    created them.
    """
    if type(symbols) is list:
        return symbols
    return list(symbols)


def partition_by_pivot(symbols, pivot: int):
    """One wavelet-node build step: branch bits plus a stable partition.

    Returns ``(words, length, left, right)`` where ``words``/``length`` pack
    the MSB-first branch bits (``1`` iff ``symbol >= pivot``) and
    ``left``/``right`` are backend-native handles (see
    :func:`prepare_symbols`) of the stable sub-partitions.  This is the
    whole-node construction primitive of the static wavelet structures: one
    pass over the node's subsequence, no per-element recursion.
    """
    words, length = pack_iterable(
        1 if symbol >= pivot else 0 for symbol in symbols
    )
    left = [symbol for symbol in symbols if symbol < pivot]
    right = [symbol for symbol in symbols if symbol >= pivot]
    return words, length, left, right


# ----------------------------------------------------------------------
# Prepared batch rank/select over a packed word sequence + flat directory
# ----------------------------------------------------------------------
class _PackedDirectory:
    """Opaque python-backend handle behind the ``*_many_packed`` batch ops."""

    __slots__ = ("words", "pad_words", "length", "abs_cum", "zero_cum")

    def __init__(self, words, pad_words, length, abs_cum, zero_cum) -> None:
        self.words = words
        self.pad_words = pad_words
        self.length = length
        self.abs_cum = abs_cum
        self.zero_cum = zero_cum


def prepare_rank_select(
    words: Sequence[int],
    length: int,
    abs_cum: Sequence[int],
    zero_cum: Sequence[int],
):
    """Build the opaque handle consumed by the ``*_many_packed`` batch ops.

    ``abs_cum``/``zero_cum`` are the flat cumulatives of
    :func:`cumulative_popcounts`.  The handle aliases its inputs (purity
    rule: do not mutate them afterwards) and is only valid with the backend
    that created it -- structures re-prepare when the active backend changes.
    """
    pad_words = list(words)
    pad_words.append(0)
    return _PackedDirectory(words, pad_words, length, abs_cum, zero_cum)


def _plain_ints(queries) -> Sequence[int]:
    """Plain-int view of a query batch: numpy scalars would overflow when
    mixed with >63-bit word values, so foreign containers are converted."""
    if isinstance(queries, (list, tuple)):
        return queries
    tolist = getattr(queries, "tolist", None)
    return tolist() if tolist is not None else [int(q) for q in queries]


def access_many_packed(handle, positions: Sequence[int]) -> List[int]:
    """Bits at each of ``positions`` via a prepared handle.

    Amortised O(1) per query: attribute lookups are hoisted out of one list
    comprehension over direct word probes.  The caller validates positions;
    the result is always a plain list (this backend's native container).
    """
    positions = _plain_ints(positions)
    words = handle.words
    return [
        (words[pos >> 6] >> (WORD - 1 - (pos & 63))) & 1 for pos in positions
    ]


def rank_many_packed(handle, bit: int, positions: Sequence[int]) -> List[int]:
    """``rank(bit, pos)`` at each of ``positions`` via a prepared handle.

    Amortised O(1) per query: one flat cumulative lookup plus one shifted
    popcount inside a single list comprehension.  The caller validates
    positions; the result is always a plain list.
    """
    positions = _plain_ints(positions)
    words = handle.pad_words
    abs_cum = handle.abs_cum
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


def select_many_packed(handle, bit: int, indexes: Sequence[int]) -> List[int]:
    """``select(bit, idx)`` for each index via a prepared handle, batch-amortised.

    The indexes are sorted once; the flat directory is then walked
    monotonically (each ``bisect`` resumes from the previous word) and all
    queries landing in the same word are answered by one pass of the sorted
    in-word multi-select.  Amortised O(q log q) for the sort plus
    O(log n + q) directory work.  The caller validates indexes; input order
    is preserved in the result, which is always a plain list.
    """
    indexes = _plain_ints(indexes)
    cum = handle.abs_cum if bit else handle.zero_cum
    total = cum[-1]
    order = sorted(range(len(indexes)), key=indexes.__getitem__)
    out = [0] * len(indexes)
    words = handle.words
    last_word = len(words) - 1
    n_queries = len(order)
    word_index = 0
    at = 0
    while at < n_queries:
        idx = indexes[order[at]]
        word_index = bisect_right(cum, idx, word_index) - 1
        upper = cum[word_index + 1] if word_index + 1 < len(cum) else total
        group_end = at + 1
        while group_end < n_queries and indexes[order[group_end]] < upper:
            group_end += 1
        word = words[word_index]
        if not bit:
            if word_index != last_word:
                word = ~word & WORD_MASK
            else:
                word = invert_word(word, handle.length - (word_index << 6))
        base = word_index << 6
        seen = cum[word_index]
        offsets = select_in_word_many(
            word, [indexes[order[i]] - seen for i in range(at, group_end)]
        )
        for i, offset in zip(range(at, group_end), offsets):
            out[order[i]] = base + offset
        at = group_end
    return out


# ----------------------------------------------------------------------
# Prepared batch rank over an RRR (class, offset) block encoding
# ----------------------------------------------------------------------
# Column ``k`` lists C(m, k) for m = 0..64: ascending in ``m`` (zeros below
# ``k``), so one ``bisect`` finds the next set bit of an RRR block.
_BINOMIAL_COLUMNS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(comb(m, k) for m in range(WORD + 1)) for k in range(WORD + 1)
)


def _rrr_offset_widths(block_size: int) -> List[int]:
    """Offset bits of each RRR block class: ``ceil(log2 C(B, k))``."""
    return [
        (_BINOMIAL_COLUMNS[cls][block_size] - 1).bit_length()
        for cls in range(block_size + 1)
    ]


def _rrr_decode_block(offset: int, block_size: int, cls: int) -> int:
    """The ``block_size``-bit block value with RRR ``(cls, offset)``.

    The enumeration lists blocks in descending value order, so with
    ``T = C(B, k) - offset`` the next set bit sits at ``B - 1 - m`` for the
    largest ``m`` with ``C(m, k) < T`` -- the hockey-stick identity
    ``sum_{m=a..b} C(m, k - 1) = C(b + 1, k) - C(a, k)`` sums away the run
    of zeros before it in one step.  Each set bit is then one ``bisect``,
    O(k log B) per block instead of a B-step descent.  Blocks denser than
    half full decode their complement (class ``B - k``, offset
    ``C(B, k) - 1 - offset``), so at most ``B / 2`` jumps run.
    """
    total = _BINOMIAL_COLUMNS[cls][block_size]
    if 2 * cls > block_size:
        full = (1 << block_size) - 1
        return full ^ _rrr_decode_block(
            total - 1 - offset, block_size, block_size - cls
        )
    remaining = total - offset
    value = 0
    for k in range(cls, 0, -1):
        column = _BINOMIAL_COLUMNS[k]
        m = bisect_left(column, remaining) - 1
        value |= 1 << m
        remaining -= column[m]
    return value


class _RRRDirectory:
    """Opaque python-backend handle behind :func:`rrr_rank_many`."""

    __slots__ = (
        "classes",
        "offset_words",
        "sample_rank",
        "sample_offset_pos",
        "length",
        "block_size",
        "sample_rate",
        "widths",
        "ones",
    )

    def __init__(self, classes, offset_words, sample_rank, sample_offset_pos,
                 length, block_size, sample_rate) -> None:
        self.classes = classes
        self.offset_words = offset_words
        self.sample_rank = sample_rank
        self.sample_offset_pos = sample_offset_pos
        self.length = length
        self.block_size = block_size
        self.sample_rate = sample_rate
        self.widths = _rrr_offset_widths(block_size)
        last = (len(classes) - 1) // sample_rate * sample_rate
        self.ones = (
            sample_rank[-1] + sum(classes[last:]) if len(classes) else 0
        )


def prepare_rrr(
    classes: Sequence[int],
    offset_words: Sequence[int],
    sample_rank: Sequence[int],
    sample_offset_pos: Sequence[int],
    length: int,
    block_size: int,
    sample_rate: int,
):
    """Build the opaque handle consumed by :func:`rrr_rank_many`.

    The arguments are the fields of an RRR bitvector as stored: per-block
    classes, the MSB-first packed offset stream, and the per-superblock
    samples of ones and offset-stream positions (one sample every
    ``sample_rate`` blocks).  Nothing is re-encoded; the handle aliases its
    inputs (do not mutate them afterwards) and is only valid with the
    backend that created it.
    """
    return _RRRDirectory(classes, offset_words, sample_rank,
                         sample_offset_pos, length, block_size, sample_rate)


def rrr_rank_many(handle, bit: int, positions: Sequence[int]) -> List[int]:
    """``rank(bit, pos)`` at each position of an RRR bitvector, batched.

    The positions are sorted once and the block directory is walked
    monotonically: a superblock jump only when a query leaves the current
    superblock, and each touched block is (class, offset) decoded exactly
    once, however many queries land in it.  Amortised O(q log q + B) for
    B touched blocks, against one superblock walk plus one block decode
    per query for the scalar loop.  The caller validates
    ``0 <= pos <= length``; the result is always a plain list.
    """
    # Plain ints throughout: a numpy scalar shift count would overflow
    # against the 64-bit block word.
    positions = list(map(int, _plain_ints(positions)))
    out = [0] * len(positions)
    classes = handle.classes
    widths = handle.widths
    words = handle.offset_words
    block_size = handle.block_size
    sample_rate = handle.sample_rate
    length = handle.length
    total = handle.ones
    current = -1
    word = rank_before = walked = offset_pos = 0
    for index in sorted(range(len(positions)), key=positions.__getitem__):
        pos = positions[index]
        if pos >= length:
            ones = total
        else:
            block, prefix = divmod(pos, block_size)
            if block != current:
                if current < 0 or block // sample_rate != current // sample_rate:
                    sample = block // sample_rate
                    walked = sample * sample_rate
                    rank_before = handle.sample_rank[sample]
                    offset_pos = handle.sample_offset_pos[sample]
                while walked < block:
                    cls = classes[walked]
                    rank_before += cls
                    offset_pos += widths[cls]
                    walked += 1
                cls = classes[block]
                offset = extract_bits_value(
                    words, offset_pos, offset_pos + widths[cls]
                )
                word = _rrr_decode_block(offset, block_size, cls) << (
                    WORD - block_size
                )
                current = block
            ones = rank_before + (word >> (WORD - prefix)).bit_count()
        out[index] = ones if bit else pos - ones
    return out


# ----------------------------------------------------------------------
# Prepared gathers over LSB-packed fixed-width fields
# ----------------------------------------------------------------------
class _PackedFields:
    """Opaque python-backend handle behind :func:`fields_many`."""

    __slots__ = ("words", "width")

    def __init__(self, words, width) -> None:
        self.words = words
        self.width = width


def prepare_fields(words: Sequence[int], width: int):
    """Build the opaque handle consumed by :func:`fields_many`.

    ``words`` holds fixed-width unsigned fields packed LSB-first (field
    ``i`` occupies stream bits ``[i * width, (i + 1) * width)``, stream bit
    ``j`` being bit ``j % 64`` of word ``j // 64``) -- the
    :class:`~repro.bits.packed.PackedIntVector` layout, which differs from
    the MSB-first bit-vector words.  The handle aliases ``words`` and is
    only valid with the backend that created it.
    """
    return _PackedFields(words, width)


def fields_many(handle, indexes: Sequence[int]) -> List[int]:
    """The fields at each of ``indexes`` via a prepared handle.

    Amortised O(1) per query: at most two word reads and a mask each,
    inside one list comprehension.  The caller validates indexes; the
    result is always a plain list.
    """
    indexes = list(map(int, _plain_ints(indexes)))
    width = handle.width
    if width == 0:
        return [0] * len(indexes)
    words = handle.words
    mask = (1 << width) - 1
    out = []
    append = out.append
    for index in indexes:
        word_index, offset = divmod(index * width, WORD)
        value = words[word_index] >> offset
        if offset + width > WORD:
            value |= words[word_index + 1] << (WORD - offset)
        append(value & mask)
    return out
