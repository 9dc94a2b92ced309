"""The classic static Wavelet Tree over an integer alphabet.

This is the data structure the Wavelet Trie generalises (paper Section 2 and
Figure 1; Grossi, Gupta and Vitter, SODA 2003): the alphabet ``{0, ...,
sigma - 1}`` is recursively halved, each node stores one bit per element of
its subsequence telling whether the symbol falls in the left or right half,
and rank/select/access reduce to ``O(log sigma)`` bitvector operations.

A symbol's halvings spell a binary code (:class:`HalvingCodec`), so the tree
is the static :class:`~repro.core.static.WaveletTrie` of its symbols' codes
and every query comes from the trie; symbols absent from the sequence have
no leaf, so their halvings fold into labels.  The codes keep the symbols'
order, so the leaves hold the present symbols ascending and every subtree a
contiguous run of them.  Beyond the three primitives the tree supports the
classic two-dimensional operations over integer sequences:
``range_count`` (how many positions in ``[l, r)`` hold a symbol in ``[lo,
hi)``) and ``quantile`` (the k-th smallest symbol in a position range).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.bits.bitstring import Bits
from repro.core.static import WaveletTrie
from repro.exceptions import BinarizationError, OutOfBoundsError
from repro.tries.binarize import StringCodec

__all__ = ["HalvingCodec", "WaveletTree"]


class HalvingCodec(StringCodec):
    """Symbols of ``[0, sigma)`` <-> their paths of halvings.

    ``[low, high)`` splits at ``mid = (low + high) // 2``, and bit 1 takes
    the upper half ``[mid, high)``, so the codes have at most ``ceil(log2
    sigma)`` bits, are prefix-free and keep the symbols' order.  A symbol
    outside the alphabet raises :class:`OutOfBoundsError`.  Prefixes are
    given as :class:`Bits`.
    """

    def __init__(self, sigma: int) -> None:
        self.sigma = sigma

    def to_bits(self, symbol: int) -> Bits:
        if not 0 <= symbol < self.sigma:
            raise OutOfBoundsError(f"symbol {symbol} outside alphabet [0, {self.sigma})")
        low, high, code = 0, self.sigma, Bits.empty()
        while high - low > 1:
            mid = (low + high) // 2
            code = code.appended(int(symbol >= mid))
            low, high = (mid, high) if symbol >= mid else (low, mid)
        return code

    def from_bits(self, bits: Bits) -> int:
        low, high = 0, self.sigma
        for bit in bits:
            mid = (low + high) // 2
            low, high = (mid, high) if bit else (low, mid)
        if high - low == 1 and self.to_bits(low) == bits:
            return low
        raise BinarizationError(f"{bits.to01()!r} is no halving code over [0, {self.sigma})")

    def prefix_to_bits(self, prefix: Bits) -> Bits:
        if not isinstance(prefix, Bits):
            raise BinarizationError("code prefixes must be Bits values")
        return prefix


class WaveletTree(WaveletTrie):
    """Static Wavelet Tree over symbols in ``[0, alphabet_size)``."""

    def __init__(
        self,
        sequence: Iterable[int],
        alphabet_size: Optional[int] = None,
        bitvector: str = "rrr",
    ) -> None:
        data = list(sequence)
        if data and min(data) < 0:
            raise ValueError("symbols must be non-negative integers")
        if alphabet_size is None:
            alphabet_size = (max(data) + 1) if data else 1
        elif data and max(data) >= alphabet_size:
            raise ValueError("a symbol exceeds the declared alphabet size")
        super().__init__(data, codec=HalvingCodec(max(1, alphabet_size)), bitvector=bitvector)
        self._name_leaves(sorted(set(data)))

    @property
    def alphabet_size(self) -> int:
        """The (fixed) alphabet size sigma."""
        return self._codec.sigma

    def height(self) -> int:
        """Internal nodes on the longest root-to-leaf path (at most ``ceil(log2 sigma)``)."""
        return self._height()

    # ------------------------------------------------------------------
    # Two-dimensional operations
    # ------------------------------------------------------------------
    def range_count(self, start: int, stop: int, low: int, high: int) -> int:
        """Number of positions in ``[start, stop)`` holding a symbol in ``[low, high)``.

        This is the ``RangeCount`` operation the paper mentions when
        discussing the alphabet-mapping approach to prefix queries.  The
        symbols in ``[low, high)`` are a run of leaves; the walk maps the
        position range down with one ``rank_many`` per visited node and
        stops at every subtree wholly inside or outside the run, so it
        visits O(log sigma) nodes per run boundary.
        """
        self._check_range(start, stop)
        first, last = bisect_left(self._leaves, low), bisect_left(self._leaves, high)
        total = 0
        pending = [(self._root, start, stop)] if first < last and start < stop else []
        while pending:
            node, start, stop = pending.pop()
            leaves = self._leaf_range(node)
            if start >= stop or leaves[1] <= first or last <= leaves[0]:
                continue
            if first <= leaves[0] and leaves[1] <= last:
                total += stop - start
                continue
            zeros_lo, zeros_hi = node.bitvector.rank_many(0, (start, stop))
            pending.append((node.children[0], zeros_lo, zeros_hi))
            pending.append((node.children[1], start - zeros_lo, stop - zeros_hi))
        return total

    def quantile(self, start: int, stop: int, k: int) -> int:
        """The ``k``-th smallest (0-based) symbol among positions ``[start, stop)``."""
        self._check_range(start, stop)
        if not 0 <= k < stop - start:
            raise OutOfBoundsError(f"quantile index {k} out of range")
        node = self._root
        while node.bitvector is not None:
            zeros_lo, zeros_hi = node.bitvector.rank_many(0, (start, stop))
            zeros = zeros_hi - zeros_lo
            if k < zeros:
                start, stop = zeros_lo, zeros_hi
                node = node.children[0]
            else:
                k -= zeros
                start, stop = start - zeros_lo, stop - zeros_hi
                node = node.children[1]
        return self._values_of([node])[0]
