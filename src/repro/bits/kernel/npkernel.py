"""Numpy-accelerated backend of the word-level bit-operations kernel.

Implements the backend contract of :mod:`repro.bits.kernel` (see the "Kernel
backends" section of docs/ARCHITECTURE.md) over ``uint64`` word arrays:

* bulk packing via ``np.packbits`` on whole bit arrays;
* bulk popcount via the 4-instruction SWAR recurrence applied to whole
  arrays (``np.bitwise_count`` is used instead when the installed numpy
  provides it -- same values, one vector instruction);
* two-level rank-directory construction with ``cumsum``;
* batched directory lookups for ``rank_many_packed`` / ``access_many_packed``
  with one fancy-indexing gather per batch;
* ``searchsorted``-based word location plus a fully vectorised byte-table
  in-word select for ``select_many_packed`` / ``select_in_word_many``;
* a vectorised superblock walk, two-word offset extraction and
  set-bit-jumping block decode for ``rrr_rank_many``.

Exchange format: the same MSB-first left-aligned 64-bit packed words as the
python backend (:mod:`repro.bits.kernel.pykernel`).  Bulk functions accept
plain lists *or* ``np.ndarray(dtype=uint64)`` word arrays, and the batch
query functions mirror the input container: list in, list out; array in,
array out.  Returned arrays are backend-native -- callers that store results
must normalise through :func:`repro.bits.kernel.as_int_list`, and a
backend-native array is only valid with the backend that produced it.
Scalar primitives where vectorisation cannot help (``select_in_word``,
``extract_bits_value``, ...) are shared with -- and re-exported from -- the
python backend, which keeps the two backends bit-for-bit identical there by
construction.

This module imports cleanly when numpy is absent (``HAVE_NUMPY`` is then
``False``); the façade only registers the backend when numpy is available.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.bits.kernel import pykernel

# Shared scalar primitives: identical in both backends by construction.
from repro.bits.kernel.pykernel import (  # noqa: F401  (re-exported contract)
    SUPERBLOCK_BITS,
    SUPERBLOCK_WORDS,
    WORD,
    WORD_MASK,
    broadword_iter_words,
    extract_bits_value,
    invert_word,
    iter_word_bits,
    pack_value,
    popcount_range,
    rank_word_prefix,
    select_bit_in_words,
    select_in_word,
    select_one_in_words,
    select_zero_in_word,
    unpack_value,
    words_to_int,
)

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None
    HAVE_NUMPY = False

__all__ = list(pykernel.__all__)

# Below this many items the fixed cost of array round-trips exceeds the
# vectorisation win; such calls are delegated to the python backend.
_SMALL = 32

if HAVE_NUMPY:
    _U64 = np.uint64
    _ZERO64 = np.uint64(0)
    _SIX = np.uint64(6)
    _SIXTY_THREE = np.uint64(63)
    _SIXTY_FOUR = np.uint64(64)
    _ONE = np.uint64(1)
    # C(m, k) at flat index k * 65 + m for k, m <= 64 (every value fits
    # int64): the vector twin of the python backend's binomial columns for
    # RRR decoding.
    _BINOMIAL_STRIDE = WORD + 1
    _BINOMIAL_FLAT = np.array(pykernel._BINOMIAL_COLUMNS, dtype=np.int64).ravel()
    # Vector twins of the four-Russians tables: select-in-byte and per-byte
    # popcounts, both indexable by whole arrays at once.
    _SELECT_IN_BYTE_NP = np.frombuffer(
        pykernel._SELECT_IN_BYTE, dtype=np.uint8
    ).reshape(256, 8)
    _BYTE_POP_NP = np.array(
        [byte.bit_count() for byte in range(256)], dtype=np.int64
    )
    # MSB-first shifts extracting the 8 bytes of a word, broadcastable.
    _BYTE_SHIFTS_NP = np.array([56, 48, 40, 32, 24, 16, 8, 0], dtype=np.uint64)

    if hasattr(np, "bitwise_count"):

        def _popcount_array(arr):
            """Per-element popcount of a ``uint64`` array (``int64`` result)."""
            return np.bitwise_count(arr).astype(np.int64)

    else:  # pragma: no cover - numpy < 2.0

        _M1 = np.uint64(0x5555555555555555)
        _M2 = np.uint64(0x3333333333333333)
        _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        _H01 = np.uint64(0x0101010101010101)

        def _popcount_array(arr):
            """The 4-instruction SWAR popcount recurrence on a whole array."""
            x = arr - ((arr >> np.uint64(1)) & _M1)
            x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
            x = (x + (x >> np.uint64(4))) & _M4
            return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def words_view(buffer):
    """Zero-copy read-only ``uint64`` array view over little-endian bytes.

    The numpy twin of :func:`pykernel.words_view`: ``np.frombuffer`` over the
    buffer (an ``mmap`` region, ``bytes`` or ``memoryview``) -- no copy, no
    decode.  The array aliases ``buffer`` (keeping it alive), is marked
    non-writeable, and holds the same word values as the python backend's
    view.  Callers must never mutate the underlying bytes while the view
    exists.  Big-endian platforms pay a one-time ``astype`` copy.
    """
    arr = np.frombuffer(buffer, dtype="<u8")
    if arr.dtype != np.uint64:  # pragma: no cover - big-endian platforms only
        return arr.astype(np.uint64)
    arr = arr.view(np.uint64)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def _as_word_array(words):
    """A ``uint64`` array view/copy of a packed word sequence."""
    if isinstance(words, np.ndarray):
        if words.dtype == np.uint64:
            return words
        return words.astype(np.uint64)
    if isinstance(words, memoryview):
        # Frozen-image word views: reinterpret the mapped bytes in place.
        return words_view(words)
    return np.asarray(words, dtype=np.uint64)


def _words_to_bit_array(words, length: int):
    """Unpack the top ``length`` bits of a word sequence into a uint8 array."""
    if length <= 0:
        return np.zeros(0, dtype=np.uint8)
    arr = _as_word_array(words)
    n_words = (length + WORD - 1) >> 6
    raw = arr[:n_words].astype(">u8").view(np.uint8)
    return np.unpackbits(raw, count=length)


def _bit_array_to_words(bits) -> Tuple[np.ndarray, int]:
    """Pack a 0/1 ``uint8`` array into a left-aligned ``uint64`` word array."""
    length = int(bits.size)
    packed = np.packbits(bits)  # MSB-first per byte, zero-padded right
    pad = (-packed.size) % 8
    if pad:
        packed = np.concatenate((packed, np.zeros(pad, dtype=np.uint8)))
    words = np.frombuffer(packed.tobytes(), dtype=">u8").astype(np.uint64)
    return words, length


# ----------------------------------------------------------------------
# Bulk packing
# ----------------------------------------------------------------------
def pack_bits(bits: Iterable[int]) -> Tuple[np.ndarray, int]:
    """Pack an iterable of 0/1 values; returns ``(words, length)``.

    Vectorised: one ``np.packbits`` over the whole bit array.  ``words`` is a
    backend-native ``uint64`` array (same values as the python backend's
    list); arbitrary iterables are drained through ``np.fromiter`` first.
    """
    if isinstance(bits, np.ndarray):
        arr = bits
    elif isinstance(bits, (list, tuple, bytes, bytearray, range)):
        arr = np.asarray(bits)
    else:
        bits = list(bits)
        arr = np.asarray(bits)
    if arr.dtype != np.bool_:
        if arr.dtype.kind in "iuf":
            arr = arr != 0
        else:
            # Exotic element types: fall back to python truthiness so the
            # backends agree bit-for-bit (e.g. ``None`` and ``""`` are 0).
            arr = np.fromiter(
                (1 if bit else 0 for bit in bits), np.uint8, count=len(bits)
            )
    return _bit_array_to_words(arr)


def pack_iterable(bits: Iterable[int]) -> Tuple[np.ndarray, int]:
    """Pack an iterable of 0/1 values; returns ``(words, length)``.

    Alias of :func:`pack_bits` (the canonical dispatched name).
    """
    return pack_bits(bits)


# ----------------------------------------------------------------------
# Bulk popcounts and directories
# ----------------------------------------------------------------------
def popcount_words(words: Sequence[int]) -> int:
    """Total set bits of a packed word sequence (whole-array popcount)."""
    if not isinstance(words, np.ndarray) and len(words) < _SMALL:
        return pykernel.popcount_words(words)
    return int(_popcount_array(_as_word_array(words)).sum())


def build_rank_directory(words: Sequence[int]):
    """Build the two-level rank directory of a packed word sequence.

    Same layout and values as the python backend --
    ``(super_cum, word_pop, word_cum)`` with the trailing sentinels -- but
    computed with one array popcount plus ``cumsum`` instead of a per-word
    python loop.  ``super_cum``/``word_cum`` come back as ``int64`` arrays
    (backend-native; normalise with :func:`repro.bits.kernel.as_int_list`
    for scalar consumption).
    """
    arr = _as_word_array(words)
    n = int(arr.size)
    if n == 0:
        return np.zeros(1, dtype=np.int64), b"", np.zeros(1, dtype=np.int64)
    pops = _popcount_array(arr)
    word_pop = pops.astype(np.uint8).tobytes()
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(pops, out=cum[1:])
    super_cum = np.concatenate((cum[0:n:SUPERBLOCK_WORDS], cum[n:]))
    word_cum = np.empty(n + 1, dtype=np.int64)
    starts = np.arange(n, dtype=np.int64) & ~(SUPERBLOCK_WORDS - 1)
    np.subtract(cum[:n], cum[starts], out=word_cum[:n])
    word_cum[n] = (
        0
        if n % SUPERBLOCK_WORDS == 0
        else int(cum[n] - cum[(n - 1) & ~(SUPERBLOCK_WORDS - 1)])
    )
    return super_cum, word_pop, word_cum


def cumulative_popcounts(word_pop: bytes, length: int):
    """Flat per-word absolute one/zero cumulatives with sentinels.

    Same values as the python backend, via one ``cumsum`` over the popcount
    bytes; both cumulatives come back as ``int64`` arrays.
    """
    pops = np.frombuffer(word_pop, dtype=np.uint8)
    n = pops.size
    abs_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(pops, out=abs_cum[1:], dtype=np.int64)
    zero_cum = np.arange(n + 1, dtype=np.int64) * WORD - abs_cum
    zero_cum[n] = length - int(abs_cum[n])
    return abs_cum, zero_cum


def block_popcounts(words: Sequence[int], length: int, block_size: int):
    """Popcount of each ``block_size``-bit block of the top ``length`` bits.

    One ``unpackbits`` plus ``np.add.reduceat`` over the block starts -- the
    bulk class computation of RRR construction.  Returns an ``int64`` array.
    """
    if length <= 0:
        return np.zeros(0, dtype=np.int64)
    bits = _words_to_bit_array(words, length)
    starts = np.arange(0, length, block_size, dtype=np.int64)
    return np.add.reduceat(bits.astype(np.int64), starts)


def one_positions(words: Sequence[int]):
    """Ascending positions of all set bits (``flatnonzero`` of the bit array)."""
    if not isinstance(words, np.ndarray) and len(words) < _SMALL:
        return pykernel.one_positions(words)
    arr = _as_word_array(words)
    bits = _words_to_bit_array(arr, int(arr.size) * WORD)
    return np.flatnonzero(bits)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _run_lengths_of_bit_array(bits) -> np.ndarray:
    boundaries = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    edges = np.concatenate(
        (np.zeros(1, dtype=np.int64), boundaries, [bits.size])
    )
    return np.diff(edges)


def run_lengths_of_value(value: int, length: int) -> List[int]:
    """Lengths of the maximal runs of an MSB-first ``(value, length)`` payload.

    Vectorised: run boundaries are the indices where the unpacked bit array
    changes value, found with one ``flatnonzero`` + ``diff``.
    """
    if length <= 0:
        return []
    if length < 8 * _SMALL:
        return pykernel.run_lengths_of_value(value, length)
    words = pykernel.pack_value(value, length)
    bits = _words_to_bit_array(words, length)
    return _run_lengths_of_bit_array(bits).tolist()


def _runs_from_bit_array(bits) -> List[Tuple[int, int]]:
    if bits.size == 0:
        return []
    first = int(bits[0])
    lengths = _run_lengths_of_bit_array(bits)
    bit_values = (np.arange(lengths.size) & 1) ^ first
    return list(zip(bit_values.tolist(), lengths.tolist()))


def runs_of_value(value: int, length: int) -> List[Tuple[int, int]]:
    """The maximal ``(bit, length)`` runs of an MSB-first payload, in order.

    Vectorised twin of the python backend's byte-table extraction: one
    ``unpackbits`` + boundary ``diff``; runs alternate so the bit column is
    an arange parity.
    """
    if length <= 0:
        return []
    if length < 8 * _SMALL:
        return pykernel.runs_of_value(value, length)
    words = pykernel.pack_value(value, length)
    return _runs_from_bit_array(_words_to_bit_array(words, length))


def runs_of_words(words: Sequence[int], length: int) -> List[Tuple[int, int]]:
    """The maximal ``(bit, length)`` runs of a packed word sequence, in order.

    Vectorised directly from the word array -- no big-integer round trip.
    """
    if length <= 0:
        return []
    return _runs_from_bit_array(_words_to_bit_array(words, length))


def delete_positions_from_runs(
    runs: Sequence[Tuple[int, int]], positions: Sequence[int]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Remove the bits at sorted ``positions`` from a ``(bit, length)`` run list.

    Vectorised run surgery: one ``searchsorted`` over the run-end cumulatives
    locates every deleted position's run, ``bincount`` subtracts the per-run
    removal counts, and the surviving runs are coalesced with one boundary
    ``reduceat``.  Same values and validation as the python backend.
    """
    if len(positions) < _SMALL or not len(runs):
        return pykernel.delete_positions_from_runs(runs, positions)
    arr = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    bits = arr[:, 0]
    lengths = arr[:, 1]
    ends = np.cumsum(lengths)
    pos = np.asarray(positions, dtype=np.int64)
    if pos[-1] >= ends[-1]:
        bad = pos[np.searchsorted(pos, ends[-1])]
        raise ValueError(
            f"position {int(bad)} out of range for run length {int(ends[-1])}"
        )
    run_index = np.searchsorted(ends, pos, side="right")
    deleted = bits[run_index].tolist()
    removed = np.bincount(run_index, minlength=bits.size)
    new_lengths = lengths - removed
    keep = new_lengths > 0
    kept_bits = bits[keep]
    kept_lengths = new_lengths[keep]
    if kept_bits.size == 0:
        return [], deleted
    boundaries = np.empty(kept_bits.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(kept_bits[1:], kept_bits[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    merged_lengths = np.add.reduceat(kept_lengths, starts)
    return (
        list(zip(kept_bits[starts].tolist(), merged_lengths.tolist())),
        deleted,
    )


# ----------------------------------------------------------------------
# In-word multi-select
# ----------------------------------------------------------------------
def select_in_word_many(word: int, ks: Sequence[int]) -> List[int]:
    """Offsets of the ``ks[i]``-th set bits of a 64-bit word, ``ks`` ascending.

    Small groups delegate to the python byte walk; large groups use the
    vectorised byte-cumulative location of :func:`select_many_packed` on a
    single word.
    """
    if len(ks) < _SMALL:
        return pykernel.select_in_word_many(word, ks)
    if len(ks) and ks[-1] >= int(word).bit_count():
        raise ValueError(f"word has fewer than {ks[-1] + 1} set bits")
    k_arr = np.asarray(ks, dtype=np.int64)
    word_arr = np.full(k_arr.size, np.uint64(word), dtype=np.uint64)
    return _select_in_words_vec(word_arr, k_arr).tolist()


def _select_in_words_vec(word_arr, k_arr):
    """Vectorised in-word select: per-query word + rank -> bit offset.

    Decomposes each word into its 8 MSB-first bytes, takes byte popcount
    cumulatives, locates the covering byte per query by comparing the
    cumulatives against ``k`` (an 8-column searchsorted), and finishes with
    one gather from the select-in-byte table.
    """
    # Extract the 8 bytes of each word, MSB-first.
    bytes_mat = (
        (word_arr[:, None] >> _BYTE_SHIFTS_NP[None, :]) & np.uint64(0xFF)
    ).astype(np.int64)
    pops = _BYTE_POP_NP[bytes_mat]
    cum = np.cumsum(pops, axis=1)
    byte_index = (cum <= k_arr[:, None]).sum(axis=1)
    before = np.where(
        byte_index > 0,
        np.take_along_axis(
            cum, np.maximum(byte_index - 1, 0)[:, None], axis=1
        )[:, 0],
        0,
    )
    k_in_byte = k_arr - before
    byte_vals = np.take_along_axis(
        bytes_mat, np.minimum(byte_index, 7)[:, None], axis=1
    )[:, 0]
    offsets = _SELECT_IN_BYTE_NP[byte_vals, k_in_byte].astype(np.int64)
    return byte_index * 8 + offsets


# ----------------------------------------------------------------------
# Wavelet construction primitives
# ----------------------------------------------------------------------
def prepare_symbols(symbols: Sequence[int]):
    """Backend-native handle for a symbol sequence: one ``int64`` array.

    Symbols beyond the ``int64`` range cannot be vectorised; they fall back
    to the python backend's list handle (``partition_by_pivot`` follows).
    """
    try:
        return np.asarray(symbols, dtype=np.int64)
    except OverflowError:
        return pykernel.prepare_symbols(symbols)


def partition_by_pivot(symbols, pivot: int):
    """One wavelet-node build step, fully vectorised.

    ``symbols >= pivot`` gives the branch-bit mask (packed with
    ``np.packbits``); boolean indexing yields the stable left/right
    partitions as new ``int64`` arrays.  List handles (symbols beyond the
    ``int64`` range, see :func:`prepare_symbols`) delegate to the python
    implementation.
    """
    if not isinstance(symbols, np.ndarray):
        return pykernel.partition_by_pivot(symbols, pivot)
    mask = symbols >= pivot
    words, length = _bit_array_to_words(mask)
    return words, length, symbols[~mask], symbols[mask]


# ----------------------------------------------------------------------
# Prepared batch rank/select over a packed word sequence + flat directory
# ----------------------------------------------------------------------
class _PackedDirectoryArrays:
    """Opaque numpy-backend handle behind the ``*_many_packed`` batch ops."""

    __slots__ = ("words", "pad_words", "inv_words", "length", "abs_cum", "zero_cum")

    def __init__(self, words, pad_words, inv_words, length, abs_cum, zero_cum):
        self.words = words
        self.pad_words = pad_words
        self.inv_words = inv_words
        self.length = length
        self.abs_cum = abs_cum
        self.zero_cum = zero_cum


def prepare_rank_select(
    words: Sequence[int],
    length: int,
    abs_cum: Sequence[int],
    zero_cum: Sequence[int],
):
    """Build the opaque array handle consumed by the ``*_many_packed`` ops.

    Precomputes the padded word array, the width-masked complement array
    (for zero-select) and ``int64`` views of the flat cumulatives, so each
    batch call is pure gathers.  Only valid with this backend; structures
    re-prepare when the active backend changes.
    """
    arr = _as_word_array(words)
    n = int(arr.size)
    pad = np.zeros(n + 1, dtype=np.uint64)
    pad[:n] = arr
    inv = np.invert(arr)
    if n and length < n * WORD:
        inv[n - 1] = np.uint64(
            invert_word(int(arr[n - 1]), length - ((n - 1) << 6))
        )
    return _PackedDirectoryArrays(
        arr,
        pad,
        inv,
        length,
        np.asarray(abs_cum, dtype=np.int64),
        np.asarray(zero_cum, dtype=np.int64),
    )


def _mirror(values, positions):
    """Return ``values`` as a list when the query container was a list."""
    if isinstance(positions, np.ndarray):
        return values
    return values.tolist()


def access_many_packed(handle, positions: Sequence[int]):
    """Bits at each of ``positions``: one gather + shift over the batch.

    Amortised O(1) per query with a constant ~10x below the python loop's;
    array in, array out (lists are mirrored back as lists).  The caller
    validates positions.
    """
    pos = np.asarray(positions, dtype=np.int64)
    off = (pos & 63).astype(np.uint64)
    bits = (handle.words[pos >> 6] >> (_SIXTY_THREE - off)) & np.uint64(1)
    return _mirror(bits.astype(np.int64), positions)


def rank_many_packed(handle, bit: int, positions: Sequence[int]):
    """``rank(bit, pos)`` at each position: one gather + masked popcount.

    Amortised O(1) per query -- cumulative gather plus one vectorised word
    popcount; array in, array out.  The caller validates positions.
    """
    pos = np.asarray(positions, dtype=np.int64)
    wi = pos >> 6
    off = (pos & 63).astype(np.uint64)
    shifted = handle.pad_words[wi] >> ((_SIXTY_FOUR - off) & _SIXTY_THREE)
    ones = handle.abs_cum[wi] + _popcount_array(shifted) * (off != 0)
    if bit:
        return _mirror(ones, positions)
    return _mirror(pos - ones, positions)


def select_many_packed(handle, bit: int, indexes: Sequence[int]):
    """``select(bit, idx)`` for each index, fully vectorised.

    One ``searchsorted`` over the flat cumulative locates every query's word
    at once (no pre-sorting needed -- every step is a gather), and the
    in-word finish is the vectorised byte-cumulative select of
    :func:`select_in_word_many`.  Amortised O(q log n) with C-level
    constants; input order is preserved.  The caller validates indexes.
    """
    idx = np.asarray(indexes, dtype=np.int64)
    cum = handle.abs_cum if bit else handle.zero_cum
    word_index = np.searchsorted(cum[:-1], idx, side="right") - 1
    rel = idx - cum[word_index]
    word_arr = (handle.words if bit else handle.inv_words)[word_index]
    offsets = _select_in_words_vec(word_arr, rel)
    return _mirror((word_index << 6) + offsets, indexes)


# ----------------------------------------------------------------------
# Prepared batch rank over an RRR (class, offset) block encoding
# ----------------------------------------------------------------------
class _RRRArrays:
    """Opaque numpy-backend handle behind :func:`rrr_rank_many`."""

    __slots__ = (
        "classes",
        "words",
        "sample_rank",
        "sample_offset_pos",
        "length",
        "block_size",
        "sample_rate",
        "widths",
        "ones",
    )

    def __init__(self, classes, words, sample_rank, sample_offset_pos,
                 length, block_size, sample_rate, widths) -> None:
        self.classes = classes
        self.words = words
        self.sample_rank = sample_rank
        self.sample_offset_pos = sample_offset_pos
        self.length = length
        self.block_size = block_size
        self.sample_rate = sample_rate
        self.widths = widths
        self.ones = int(classes.sum())


def prepare_rrr(
    classes: Sequence[int],
    offset_words: Sequence[int],
    sample_rank: Sequence[int],
    sample_offset_pos: Sequence[int],
    length: int,
    block_size: int,
    sample_rate: int,
):
    """Build the opaque array handle consumed by :func:`rrr_rank_many`.

    One ``int64`` conversion of the classes and samples and a padded
    ``uint64`` copy of the offset words (two zero words, so every two-word
    offset read stays in bounds); nothing is re-encoded.  Only valid with
    this backend; structures re-prepare when the active backend changes.
    """
    words = _as_word_array(offset_words)
    padded = np.zeros(words.size + 2, dtype=np.uint64)
    padded[: words.size] = words
    widths = np.array(pykernel._rrr_offset_widths(block_size), dtype=np.int64)
    return _RRRArrays(
        np.asarray(classes, dtype=np.int64),
        padded,
        np.asarray(sample_rank, dtype=np.int64),
        np.asarray(sample_offset_pos, dtype=np.int64),
        length,
        block_size,
        sample_rate,
        widths,
    )


def _rrr_prefix_ones(offsets, classes, prefix, block_size: int):
    """Ones among the first ``prefix`` bits of RRR blocks ``(class, offset)``.

    The batch twin of the python backend's set-bit jump: with
    ``T = C(B, k) - offset`` the next set bit is at ``B - 1 - m`` for the
    largest ``m`` with ``C(m, k) < T`` (hockey-stick identity), found by a
    branch-free binary search over the binomial column.  One round per set
    bit, every block of the batch advancing together; a block leaves the
    loop at its first set bit at or past ``prefix``.  ``C(m, k) >= T`` holds
    for every ``m`` past the previous jump (and past ``B`` in the first
    round), so the search needs no range check.  Blocks denser than half
    full walk their complement (class ``B - k``, offset
    ``C(B, k) - 1 - offset``) and count zeros, so at most ``B / 2`` rounds
    run.
    """
    dense = 2 * classes > block_size
    k = np.where(dense, block_size - classes, classes)
    remaining = np.where(
        dense, offsets + 1, _BINOMIAL_FLAT[classes * _BINOMIAL_STRIDE + block_size]
        - offsets
    )
    count = np.zeros(classes.size, dtype=np.int64)
    steps = [1 << s for s in reversed(range(block_size.bit_length()))]
    # The set bit at ``B - 1 - m`` lies inside the prefix iff ``m > floor``.
    floor = block_size - 1 - prefix
    live = np.flatnonzero((k > 0) & (prefix > 0))
    while live.size:
        k_live = k[live]
        target = remaining[live]
        row = k_live * _BINOMIAL_STRIDE
        m = np.zeros(live.size, dtype=np.int64)
        for step in steps:
            candidate = m + step
            m = np.where(_BINOMIAL_FLAT[row + candidate] < target, candidate, m)
        inside = m > floor[live]
        live = live[inside]
        count[live] += 1
        remaining[live] = target[inside] - _BINOMIAL_FLAT[row[inside] + m[inside]]
        k[live] = k_live[inside] - 1
        live = live[k_live[inside] > 1]
    return np.where(dense, prefix - count, count)


def rrr_rank_many(handle, bit: int, positions: Sequence[int]):
    """``rank(bit, pos)`` at each position of an RRR bitvector, vectorised.

    Three whole-batch passes and no sort: the superblock walk adds the
    classes and offset widths of the blocks before each query's block
    inside its superblock (``sample_rate - 1`` gathers at most), one
    two-word read per query extracts its block's offset, and
    :func:`_rrr_prefix_ones` counts the ones before the query inside it.
    Amortised O(sample_rate + B / 2) array operations per batch; array in,
    array out.  The caller validates ``0 <= pos <= length``.
    """
    pos = np.asarray(positions, dtype=np.int64)
    ones = np.full(pos.size, handle.ones, dtype=np.int64)
    inside = np.flatnonzero(pos < handle.length)
    if inside.size:
        block_size = handle.block_size
        query = pos[inside]
        block = query // block_size
        prefix = query - block * block_size
        sample = block // handle.sample_rate
        walked = sample * handle.sample_rate
        rank_before = handle.sample_rank[sample]
        offset_pos = handle.sample_offset_pos[sample]
        for _ in range(int((block - walked).max())):
            behind = walked < block
            classes = np.where(behind, handle.classes[walked], 0)
            rank_before = rank_before + classes
            offset_pos = offset_pos + handle.widths[classes]
            walked = walked + behind
        classes = handle.classes[block]
        width = handle.widths[classes].astype(np.uint64)
        word_index = offset_pos >> 6
        shift = (offset_pos & 63).astype(np.uint64)
        top = (handle.words[word_index] << shift) | (
            (handle.words[word_index + 1] >> _ONE) >> (_SIXTY_THREE - shift)
        )
        offsets = ((top >> _ONE) >> (_SIXTY_THREE - width)).astype(np.int64)
        ones[inside] = rank_before + _rrr_prefix_ones(
            offsets, classes, prefix, block_size
        )
    if bit:
        return _mirror(ones, positions)
    return _mirror(pos - ones, positions)


# ----------------------------------------------------------------------
# Prepared gathers over LSB-packed fixed-width fields
# ----------------------------------------------------------------------
class _PackedFieldArrays:
    """Opaque numpy-backend handle behind :func:`fields_many`."""

    __slots__ = ("words", "width", "mask")

    def __init__(self, words, width) -> None:
        self.words = words
        self.width = width
        self.mask = np.uint64((1 << width) - 1)


def prepare_fields(words: Sequence[int], width: int):
    """Build the opaque array handle consumed by :func:`fields_many`.

    A ``uint64`` copy of the LSB-packed words with one zero pad word, so the
    two-word read of a field in the last word stays in bounds.  Only valid
    with this backend.
    """
    arr = _as_word_array(words)
    padded = np.zeros(arr.size + 1, dtype=np.uint64)
    padded[: arr.size] = arr
    return _PackedFieldArrays(padded, width)


def fields_many(handle, indexes: Sequence[int]):
    """The fields at each of ``indexes``: two gathers, shifts and a mask.

    Amortised O(1) per query with a constant far below the python loop's;
    array in, array out (``int64`` below 64-bit fields).  The caller
    validates indexes.
    """
    idx = np.asarray(indexes, dtype=np.int64)
    width = handle.width
    if width == 0:
        return _mirror(np.zeros(idx.size, dtype=np.int64), indexes)
    start = idx * width
    word_index = start >> 6
    shift = (start & 63).astype(np.uint64)
    low = handle.words[word_index] >> shift
    high = (handle.words[word_index + 1] << _ONE) << (_SIXTY_THREE - shift)
    values = (low | high) & handle.mask
    if width < WORD:
        values = values.astype(np.int64)
    return _mirror(values, indexes)
