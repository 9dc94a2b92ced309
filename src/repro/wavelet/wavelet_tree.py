"""The classic static Wavelet Tree over an integer alphabet.

This is the data structure the Wavelet Trie generalises (paper Section 2 and
Figure 1): the alphabet ``{0, ..., sigma - 1}`` is recursively halved, each
node stores one bit per element of its subsequence telling whether the symbol
falls in the left or right half, and rank/select/access reduce to ``O(log
sigma)`` bitvector operations.

Beyond the three primitives the tree supports the classic two-dimensional
operations used by the alphabet-mapping baseline: ``range_count`` (how many
positions in ``[l, r)`` hold a symbol in ``[lo, hi)``) and ``quantile``
(the k-th smallest symbol in a position range).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bitvector.base import validate_select_indexes
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rle import RLEBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError, ValueNotFoundError

__all__ = ["WaveletTree"]

_BITVECTOR_FACTORIES = {
    "rrr": RRRBitVector,
    "plain": PlainBitVector,
    "rle": RLEBitVector,
}


class _Node:
    __slots__ = ("low", "high", "bitvector", "left", "right")

    def __init__(self, low: int, high: int, bitvector=None) -> None:
        self.low = low
        self.high = high
        self.bitvector = bitvector
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.high - self.low <= 1


class WaveletTree:
    """Static Wavelet Tree over symbols in ``[0, alphabet_size)``."""

    def __init__(
        self,
        sequence: Iterable[int],
        alphabet_size: Optional[int] = None,
        bitvector: str = "rrr",
    ) -> None:
        if bitvector not in _BITVECTOR_FACTORIES:
            raise ValueError(
                f"unknown bitvector kind {bitvector!r}; "
                f"expected one of {sorted(_BITVECTOR_FACTORIES)}"
            )
        self._factory = _BITVECTOR_FACTORIES[bitvector]
        data = list(sequence)
        for symbol in data:
            if symbol < 0:
                raise ValueError("symbols must be non-negative integers")
        if alphabet_size is None:
            alphabet_size = (max(data) + 1) if data else 1
        elif data and max(data) >= alphabet_size:
            raise ValueError("a symbol exceeds the declared alphabet size")
        self._sigma = max(1, alphabet_size)
        self._size = len(data)
        self._root = self._build(data, 0, self._sigma) if data else None

    # ------------------------------------------------------------------
    def _build(self, data: List[int], low: int, high: int) -> _Node:
        """Iterative broadside construction through the kernel backend.

        Each node is materialised with one ``partition_by_pivot`` call: the
        branch bits arrive pre-packed as kernel words (handed to the
        bitvector factory's ``from_words`` -- no per-bit round trip) together
        with the stable left/right sub-partitions, all vectorised under the
        numpy backend.  The work stack replaces per-element Python
        recursion, so arbitrarily skewed alphabets never hit the recursion
        limit.
        """
        root = _Node(low, high)
        stack = [(root, kernel.prepare_symbols(data))]
        while stack:
            node, symbols = stack.pop()
            if node.high - node.low <= 1:
                continue
            mid = (node.low + node.high) // 2
            words, length, left_data, right_data = kernel.partition_by_pivot(
                symbols, mid
            )
            node.bitvector = self._factory.from_words(words, length)
            node.left = _Node(node.low, mid)
            node.right = _Node(mid, node.high)
            if len(left_data):
                stack.append((node.left, left_data))
            if len(right_data):
                stack.append((node.right, right_data))
        return root

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def alphabet_size(self) -> int:
        """The (fixed) alphabet size sigma."""
        return self._sigma

    def _check_pos(self, pos: int) -> None:
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self._sigma:
            raise OutOfBoundsError(f"symbol {symbol} outside alphabet [0, {self._sigma})")

    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        """The symbol at position ``pos``."""
        self._check_pos(pos)
        node = self._root
        while not node.is_leaf:
            bit = node.bitvector.access(pos)
            pos = node.bitvector.rank(bit, pos)
            node = node.right if bit else node.left
        return node.low

    def rank(self, symbol: int, pos: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, pos)``."""
        self._check_symbol(symbol)
        self._check_rank_pos(pos)
        node = self._root
        if node is None:
            return 0
        while not node.is_leaf and pos > 0:
            mid = (node.low + node.high) // 2
            bit = 1 if symbol >= mid else 0
            if node.bitvector is None:
                return 0
            pos = node.bitvector.rank(bit, pos)
            node = node.right if bit else node.left
            if node is None:
                return 0
        return pos if (node.is_leaf and node.low == symbol) else 0

    def select(self, symbol: int, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``symbol``."""
        self._check_symbol(symbol)
        total = self.count(symbol)
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({symbol}, {idx}) out of range: only {total} occurrences"
            )
        # Walk down recording the path, then unwind with selects.
        node = self._root
        path: List[Tuple[_Node, int]] = []
        while not node.is_leaf:
            mid = (node.low + node.high) // 2
            bit = 1 if symbol >= mid else 0
            path.append((node, bit))
            node = node.right if bit else node.left
        for ancestor, bit in reversed(path):
            idx = ancestor.bitvector.select(bit, idx)
        return idx

    def count(self, symbol: int) -> int:
        """Total occurrences of ``symbol``."""
        return self.rank(symbol, self._size)

    # ------------------------------------------------------------------
    # Batch query paths
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[int]:
        """The symbols at each of ``positions``.

        Queries descend the tree in groups: each traversed node is visited
        once per batch, with one ``access_rank_many`` call on its bitvector
        (each query's bit and ``rank(bit, pos)``, its child and its position
        there), so node and attribute overhead is amortised over the whole
        batch instead of paid per query.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        for pos in positions:
            self._check_pos(pos)
        out: List[Optional[int]] = [None] * len(positions)
        if not positions:
            return []
        stack: List[Tuple[_Node, List[Tuple[int, int]]]] = [
            (self._root, [(i, pos) for i, pos in enumerate(positions)])
        ]
        while stack:
            node, queries = stack.pop()
            if node.is_leaf:
                low = node.low
                for index, _ in queries:
                    out[index] = low
                continue
            vector = node.bitvector
            bits, ranks = vector.access_rank_many([pos for _, pos in queries])
            lefts = [(i, r) for (i, _), bit, r in zip(queries, bits, ranks) if not bit]
            rights = [(i, r) for (i, _), bit, r in zip(queries, bits, ranks) if bit]
            if lefts:
                stack.append((node.left, lefts))
            if rights:
                stack.append((node.right, rights))
        return out

    def rank_many(self, symbol: int, positions: Sequence[int]) -> List[int]:
        """``rank(symbol, pos)`` for each of ``positions``.

        One root-to-leaf walk serves the whole batch: the per-node mid/bit
        computation happens once and the positions are re-mapped together
        through the node bitvector's ``rank_many`` -- amortised O(log sigma)
        batch passes total instead of q O(log sigma) walks.
        """
        self._check_symbol(symbol)
        for pos in positions:
            self._check_rank_pos(pos)
        current = list(positions)
        if not current:
            return []
        node = self._root
        if node is None:
            return [0] * len(current)
        while not node.is_leaf:
            if node.bitvector is None:
                return [0] * len(current)
            mid = (node.low + node.high) // 2
            bit = 1 if symbol >= mid else 0
            current = node.bitvector.rank_many(bit, current)
            node = node.right if bit else node.left
            if node is None:
                return [0] * len(current)
        if node.low != symbol:
            return [0] * len(current)
        return current

    def select_many(self, symbol: int, indexes: Sequence[int]) -> List[int]:
        """``select(symbol, idx)`` for each of ``indexes``.

        One root-to-leaf walk serves the whole batch: the path is recorded
        once and unwound with each node bitvector's batched ``select_many``
        (shared directory walks, one decode per touched block), amortising
        to O(path + q log q + D) directory work for q queries instead of q
        independent O(log sigma log n) walks.
        """
        self._check_symbol(symbol)
        indexes = validate_select_indexes(indexes, self.count(symbol), symbol)
        if not indexes:
            return []
        node = self._root
        path: List[Tuple[_Node, int]] = []
        while not node.is_leaf:
            mid = (node.low + node.high) // 2
            bit = 1 if symbol >= mid else 0
            path.append((node, bit))
            node = node.right if bit else node.left
        current = indexes
        for ancestor, bit in reversed(path):
            current = ancestor.bitvector.select_many(bit, current)
        return current

    # ------------------------------------------------------------------
    # Two-dimensional operations
    # ------------------------------------------------------------------
    def range_count(self, start: int, stop: int, low: int, high: int) -> int:
        """Number of positions in ``[start, stop)`` holding a symbol in ``[low, high)``.

        This is the ``RangeCount`` operation the paper mentions when
        discussing the alphabet-mapping approach to prefix queries.
        """
        if not (0 <= start <= stop <= self._size):
            raise OutOfBoundsError(f"range [{start}, {stop}) invalid")
        if low >= high or start >= stop or self._root is None:
            return 0
        return self._range_count(self._root, start, stop, low, high)

    def _range_count(self, node: _Node, start: int, stop: int, low: int, high: int) -> int:
        if stop <= start or node is None:
            return 0
        if low <= node.low and node.high <= high:
            return stop - start
        if node.is_leaf or node.bitvector is None:
            # Leaf outside [low, high), or an empty internal shell.
            if node.is_leaf and low <= node.low < high:
                return stop - start
            return 0
        mid = (node.low + node.high) // 2
        zeros_lo, zeros_hi = node.bitvector.rank_many(0, (start, stop))
        total = 0
        if low < mid:
            total += self._range_count(node.left, zeros_lo, zeros_hi, low, high)
        if high > mid:
            total += self._range_count(
                node.right, start - zeros_lo, stop - zeros_hi, low, high
            )
        return total

    def quantile(self, start: int, stop: int, k: int) -> int:
        """The ``k``-th smallest (0-based) symbol among positions ``[start, stop)``."""
        if not (0 <= start <= stop <= self._size):
            raise OutOfBoundsError(f"range [{start}, {stop}) invalid")
        if not 0 <= k < stop - start:
            raise OutOfBoundsError(f"quantile index {k} out of range")
        node = self._root
        while not node.is_leaf:
            zeros_lo, zeros_hi = node.bitvector.rank_many(0, (start, stop))
            zeros = zeros_hi - zeros_lo
            if k < zeros:
                start, stop = zeros_lo, zeros_hi
                node = node.left
            else:
                k -= zeros
                start, stop = start - zeros_lo, stop - zeros_hi
                node = node.right
        return node.low

    # ------------------------------------------------------------------
    def to_list(self) -> List[int]:
        """Materialise the stored sequence."""
        return [self.access(pos) for pos in range(self._size)]

    def size_in_bits(self) -> int:
        """Total bitvector space plus per-node bookkeeping."""
        total = 0
        nodes = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            nodes += 1
            if node.bitvector is not None:
                total += node.bitvector.size_in_bits()
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total + nodes * 4 * 64

    def height(self) -> int:
        """Height of the tree (``ceil(log2 sigma)`` for a balanced split)."""
        def depth(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)
