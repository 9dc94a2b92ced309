"""Code lengths and the RRR block codes.

The fully dynamic bitvector (paper Section 4.2) charges each run the length
of its Elias gamma code (:func:`gamma_code_length`).  The rest is the one
copy of the arithmetic of RRR's (class, offset) blocks, which the RRR
bitvector, its encoder and both kernel backends share: the binomial
columns, the offset widths, a block's offset among the blocks of its class
(:func:`combinatorial_rank`), and the decodes that read a prefix popcount,
one bit or the whole block back from an offset.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from typing import List, Tuple

from repro.exceptions import EncodingError

__all__ = [
    "BINOMIAL_COLUMNS",
    "combinatorial_bit_at",
    "combinatorial_prefix_popcount",
    "combinatorial_rank",
    "combinatorial_unrank",
    "gamma_code_length",
    "offset_width_table",
]


def gamma_code_length(value: int) -> int:
    """Length in bits of the Elias gamma code of ``value`` (>= 1)."""
    if value < 1:
        raise EncodingError("gamma code requires value >= 1")
    width = value.bit_length()
    return 2 * width - 1


#: Column ``k`` lists C(m, k) for m = 0..64: ascending in ``m``, zeros below
#: ``k``.  An RRR block has at most 63 bits, so these columns hold every
#: binomial its (class, offset) code needs -- the pure-Python stand-in for
#: the paper's four-Russians tables -- and one ``bisect`` over a column finds
#: a block's next set bit.
BINOMIAL_COLUMNS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(comb(m, k) for m in range(65)) for k in range(65)
)


def offset_width_table(width: int) -> List[int]:
    """Offset bits of each class ``k`` of a ``width``-bit block: the bit
    length of ``C(width, k) - 1``, none for the all-zero and all-one blocks."""
    return [(BINOMIAL_COLUMNS[ones][width] - 1).bit_length() for ones in range(width + 1)]


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
    if 2 * ones > width:
        full = (1 << width) - 1
        return BINOMIAL_COLUMNS[ones][width] - 1 - combinatorial_rank(
            bits_value ^ full, width, width - ones
        )
    columns = BINOMIAL_COLUMNS
    rank = 0
    start = 0  # the first position not yet accounted for
    for remaining in range(ones, 0, -1):
        column = columns[remaining]
        position = width - bits_value.bit_length()  # MSB-first offset of the next 1
        rank += column[width - start] - column[width - position]
        bits_value ^= 1 << (width - 1 - position)
        start = position + 1
    return rank


def combinatorial_prefix_popcount(
    rank: int, width: int, ones: int, prefix: int
) -> int:
    """Ones among the first ``prefix`` bits of the block :func:`combinatorial_unrank`
    would rebuild -- without materialising the block.

    Walks the same enumeration descent but stops after ``prefix`` steps, so
    ``rank`` queries on RRR blocks cost O(prefix) instead of O(width).
    """
    columns = BINOMIAL_COLUMNS
    count = 0
    remaining_ones = ones
    remaining_rank = rank
    for position in range(prefix):
        if remaining_ones == 0:
            break
        skip = columns[remaining_ones - 1][width - position - 1]
        if remaining_rank < skip:
            count += 1
            remaining_ones -= 1
        else:
            remaining_rank -= skip
    return count


def combinatorial_bit_at(rank: int, width: int, ones: int, position: int) -> int:
    """Bit ``position`` (MSB-first) of the block ``combinatorial_unrank`` would
    rebuild, via the same truncated descent."""
    columns = BINOMIAL_COLUMNS
    remaining_ones = ones
    remaining_rank = rank
    for current in range(position + 1):
        if remaining_ones == 0:
            return 0
        skip = columns[remaining_ones - 1][width - current - 1]
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
    hockey-stick identity ``sum_{m=a..b} C(m, k - 1) = C(b + 1, k) -
    C(a, k)`` sums away the zeros before it): one ``bisect`` per set bit,
    O(k log width) per block instead of a ``width``-step descent.  Blocks
    denser than half full rebuild their complement, so at most
    ``width / 2`` bisects run.
    """
    if not 0 < ones < width:
        return (1 << width) - 1 if ones == width and width else 0
    total = BINOMIAL_COLUMNS[ones][width]
    if 2 * ones > width:
        return ((1 << width) - 1) ^ combinatorial_unrank(
            total - 1 - rank, width, width - ones
        )
    remaining = total - rank
    value = 0
    for k in range(ones, 0, -1):
        column = BINOMIAL_COLUMNS[k]
        m = bisect_left(column, remaining) - 1
        value |= 1 << m
        remaining -= column[m]
    return value
