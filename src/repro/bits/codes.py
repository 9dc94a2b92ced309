"""Code lengths and the RRR block codes.

The fully dynamic bitvector (paper Section 4.2) charges each run the length
of its Elias gamma code (:func:`gamma_code_length`).  The rest is the
arithmetic of RRR's (class, offset) blocks: binomial tables, a block's
offset among the blocks of its class (:func:`combinatorial_rank`), and the
decodes that read a prefix popcount, one bit or the whole block back from
an offset.  The RRR encoders write the offsets into a
:class:`~repro.bits.bitbuffer.BitBuffer`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

from repro.exceptions import EncodingError

__all__ = [
    "binomial",
    "combinatorial_bit_at",
    "combinatorial_prefix_popcount",
    "combinatorial_rank",
    "combinatorial_unrank",
    "gamma_code_length",
    "offset_width",
    "offset_width_table",
]


def gamma_code_length(value: int) -> int:
    """Length in bits of the Elias gamma code of ``value`` (>= 1)."""
    if value < 1:
        raise EncodingError("gamma code requires value >= 1")
    width = value.bit_length()
    return 2 * width - 1


def _build_binomial_table(limit: int) -> list:
    """Pascal's triangle up to ``limit`` rows (inclusive)."""
    table = [[1]]
    for n in range(1, limit + 1):
        row = [1] * (n + 1)
        previous = table[n - 1]
        for k in range(1, n):
            row[k] = previous[k - 1] + previous[k]
        table.append(row)
    return table


# The RRR block size never exceeds 63 bits, so a 64-row Pascal triangle covers
# every (class, offset) computation with plain list lookups -- this table is
# the pure-Python stand-in for the four-Russians lookup tables of the paper.
_BINOMIAL_TABLE = _build_binomial_table(64)
# Column k lists C(m, k) for m = 0..64, ascending in m.
_BINOMIAL_COLUMNS = tuple(
    tuple(_BINOMIAL_TABLE[m][k] if k <= m else 0 for m in range(65)) for k in range(65)
)
_OFFSET_WIDTH_CACHE: dict = {}


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the usual out-of-range conventions."""
    if k < 0 or k > n or n < 0:
        return 0
    if n <= 64:
        return _BINOMIAL_TABLE[n][k]
    from math import comb

    return comb(n, k)


def combinatorial_rank(bits_value: int, width: int, ones: int) -> int:
    """Rank of a ``width``-bit block with ``ones`` one-bits in the
    lexicographic enumeration of all such blocks (RRR offset encoding).

    The block is interpreted MSB-first, i.e. the same order as :class:`Bits`.
    Blocks with a 1 where this one has a 0 (and the same prefix) come
    first, so each zero at position ``p`` with ``r`` ones still to place
    adds ``C(width - p - 1, r - 1)``; by the hockey-stick identity a run of
    zeros from ``a`` to ``b`` adds ``C(width - a, r) - C(width - b - 1, r)``,
    so the rank costs one step per set bit.  Blocks denser than half full
    rank their complement.
    """
    if not 0 < ones < width:
        return 0
    table = _BINOMIAL_TABLE
    if 2 * ones > width:
        full = (1 << width) - 1
        return table[width][ones] - 1 - combinatorial_rank(
            bits_value ^ full, width, width - ones
        )
    rank = 0
    start = 0  # the first position not yet accounted for
    remaining = ones
    while remaining:
        position = width - bits_value.bit_length()  # MSB-first offset of the next 1
        rank += table[width - start][remaining] - table[width - position][remaining]
        bits_value ^= 1 << (width - 1 - position)
        start = position + 1
        remaining -= 1
    return rank


def combinatorial_prefix_popcount(
    rank: int, width: int, ones: int, prefix: int
) -> int:
    """Ones among the first ``prefix`` bits of the block :func:`combinatorial_unrank`
    would rebuild -- without materialising the block.

    Walks the same enumeration descent but stops after ``prefix`` steps, so
    ``rank`` queries on RRR blocks cost O(prefix) instead of O(width).
    """
    table = _BINOMIAL_TABLE
    count = 0
    remaining_ones = ones
    remaining_rank = rank
    for position in range(prefix):
        if remaining_ones == 0:
            break
        remaining_width = width - position - 1
        skip = (
            table[remaining_width][remaining_ones - 1]
            if remaining_ones - 1 <= remaining_width
            else 0
        )
        if remaining_rank < skip:
            count += 1
            remaining_ones -= 1
        else:
            remaining_rank -= skip
    return count


def combinatorial_bit_at(rank: int, width: int, ones: int, position: int) -> int:
    """Bit ``position`` (MSB-first) of the block ``combinatorial_unrank`` would
    rebuild, via the same truncated descent."""
    table = _BINOMIAL_TABLE
    remaining_ones = ones
    remaining_rank = rank
    for current in range(position + 1):
        if remaining_ones == 0:
            return 0
        remaining_width = width - current - 1
        skip = (
            table[remaining_width][remaining_ones - 1]
            if remaining_ones - 1 <= remaining_width
            else 0
        )
        if remaining_rank < skip:
            if current == position:
                return 1
            remaining_ones -= 1
        else:
            remaining_rank -= skip
    return 0


def combinatorial_unrank(rank: int, width: int, ones: int) -> int:
    """Inverse of :func:`combinatorial_rank`: rebuild the block value.

    The enumeration lists blocks in descending value order, so with
    ``T = C(width, ones) - rank`` the next set bit sits at
    ``width - 1 - m`` for the largest ``m`` with ``C(m, ones) < T`` (the
    hockey-stick identity sums away the zeros before it): one ``bisect``
    per set bit.  Blocks denser than half full rebuild their complement,
    so at most ``width / 2`` bisects run.
    """
    if not 0 < ones < width:
        return (1 << width) - 1 if ones == width and width else 0
    total = _BINOMIAL_TABLE[width][ones]
    if 2 * ones > width:
        return ((1 << width) - 1) ^ combinatorial_unrank(
            total - 1 - rank, width, width - ones
        )
    remaining = total - rank
    value = 0
    for k in range(ones, 0, -1):
        column = _BINOMIAL_COLUMNS[k]
        m = bisect_left(column, remaining) - 1
        value |= 1 << m
        remaining -= column[m]
    return value


def offset_width(width: int, ones: int) -> int:
    """Number of bits needed to store the RRR offset of a block class."""
    cached = _OFFSET_WIDTH_CACHE.get((width, ones))
    if cached is not None:
        return cached
    total = binomial(width, ones)
    result = max(total - 1, 0).bit_length() if total > 1 else 0
    _OFFSET_WIDTH_CACHE[(width, ones)] = result
    return result


def offset_width_table(width: int) -> List[int]:
    """Offset widths for every class of a ``width``-bit block (hot-path table)."""
    return [offset_width(width, ones) for ones in range(width + 1)]
