"""Huffman-shaped Wavelet Trees.

The paper notes (after Lemma 3.2) that the popular Huffman-shaped Wavelet Tree
is a special case of the Wavelet Trie obtained by mapping each symbol to its
Huffman code.  This module provides the canonical-code construction and a
static Huffman-shaped tree used by the text-collection baseline: frequent
symbols sit near the root, so the expected query depth is ``H0 + 1`` instead
of ``log sigma``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bitvector.base import (
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError, ValueNotFoundError

__all__ = ["HuffmanWaveletTree", "huffman_codes"]

# Below this many queries the array descent of ``inverse_select_many`` costs
# more in conversions than it saves; such batches take the list descent.
_SMALL_BATCH = 32


def huffman_codes(frequencies: Dict[Hashable, int]) -> Dict[Hashable, Bits]:
    """Binary Huffman codes for the given symbol frequencies.

    Ties are broken deterministically by insertion order so tests are stable.
    A single-symbol alphabet gets the 1-bit code ``0``.
    """
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        symbol = next(iter(frequencies))
        return {symbol: Bits.from_string("0")}
    heap: List[Tuple[int, int, object]] = []
    counter = 0
    for symbol, frequency in frequencies.items():
        heap.append((frequency, counter, ("leaf", symbol)))
        counter += 1
    heapq.heapify(heap)
    while len(heap) > 1:
        freq_a, _, node_a = heapq.heappop(heap)
        freq_b, _, node_b = heapq.heappop(heap)
        counter += 1
        heapq.heappush(heap, (freq_a + freq_b, counter, ("internal", node_a, node_b)))
    _, _, root = heap[0]
    codes: Dict[Hashable, Bits] = {}

    def assign(node, prefix: Bits) -> None:
        if node[0] == "leaf":
            codes[node[1]] = prefix
            return
        assign(node[1], prefix.appended(0))
        assign(node[2], prefix.appended(1))

    assign(root, Bits.empty())
    return codes


class _CodeNode:
    __slots__ = ("bitvector", "children", "symbol")

    def __init__(self) -> None:
        self.bitvector = None
        self.children: List[Optional["_CodeNode"]] = [None, None]
        self.symbol: Optional[Hashable] = None

    @property
    def is_leaf(self) -> bool:
        return self.symbol is not None


class HuffmanWaveletTree:
    """Static Wavelet Tree shaped by the Huffman codes of the input symbols."""

    def __init__(self, sequence: Iterable[Hashable], bitvector_factory=RRRBitVector) -> None:
        data = list(sequence)
        self._size = len(data)
        self._codes = huffman_codes(Counter(data))
        self._factory = bitvector_factory
        self._root = self._build(data, 0) if data else None
        # Integer symbols (FM-index character codes) may ride the numpy
        # array descent; any other symbol type keeps the list descent.
        self._int_symbols = all(
            type(symbol) is int and -(1 << 63) <= symbol < 1 << 63
            for symbol in self._codes
        )

    def _build(self, data: List[Hashable], depth: int) -> _CodeNode:
        node = _CodeNode()
        first = data[0]
        if all(symbol == first for symbol in data):
            # All elements carry the same symbol: a leaf of the code trie.
            node.symbol = first
            return node
        # Distinct symbols share the code prefix consumed so far and, the code
        # being prefix-free, must all have a bit at position `depth`.
        bits = [self._codes[symbol][depth] for symbol in data]
        node.bitvector = self._factory(bits)
        left = [symbol for symbol, bit in zip(data, bits) if bit == 0]
        right = [symbol for symbol, bit in zip(data, bits) if bit == 1]
        if left:
            node.children[0] = self._build(left, depth + 1)
        if right:
            node.children[1] = self._build(right, depth + 1)
        return node

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> Dict[Hashable, Bits]:
        """The Huffman code of each distinct symbol."""
        return dict(self._codes)

    def access(self, pos: int) -> Hashable:
        """The symbol at position ``pos``."""
        return self.inverse_select(pos)[0]

    def inverse_select(self, pos: int) -> Tuple[Hashable, int]:
        """``(symbol, rank(symbol, pos))`` for the symbol at ``pos``.

        One root-to-leaf descent: the position the walk carries into the
        leaf is exactly the symbol's rank, so this pair costs what
        :meth:`access` costs.  It is the FM-index LF step.
        """
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        node = self._root
        while not node.is_leaf:
            bit = node.bitvector.access(pos)
            pos = node.bitvector.rank(bit, pos)
            node = node.children[bit]
        return node.symbol, pos

    def rank(self, symbol: Hashable, pos: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, pos)``."""
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        code = self._codes.get(symbol)
        if code is None or pos == 0:
            return 0
        node = self._root
        for depth in range(len(code)):
            if node.is_leaf:
                break
            bit = code[depth]
            pos = node.bitvector.rank(bit, pos)
            if pos == 0:
                return 0
            node = node.children[bit]
            if node is None:
                return 0
        return pos if node is not None and node.is_leaf and node.symbol == symbol else 0

    def select(self, symbol: Hashable, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``symbol``."""
        code = self._codes.get(symbol)
        if code is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        total = self.count(symbol)
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({symbol!r}, {idx}) out of range: only {total} occurrences"
            )
        node = self._root
        path: List[Tuple[_CodeNode, int]] = []
        for depth in range(len(code)):
            if node.is_leaf:
                break
            bit = code[depth]
            path.append((node, bit))
            node = node.children[bit]
        for ancestor, bit in reversed(path):
            idx = ancestor.bitvector.select(bit, idx)
        return idx

    def count(self, symbol: Hashable) -> int:
        """Total occurrences of ``symbol``."""
        return self.rank(symbol, self._size)

    # ------------------------------------------------------------------
    # Batch query paths (docs/API.md, "The batch-API convention")
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[Hashable]:
        """The symbols at each of ``positions``.

        The first half of :meth:`inverse_select_many` -- one grouped
        descent, each touched node visited once per batch -- so the cost
        amortises the same way.
        """
        return self.inverse_select_many(positions)[0]

    def inverse_select_many(self, positions: Sequence[int]):
        """``(symbols, ranks)``: the symbol at each position and its rank there.

        ``ranks[i] = rank(symbols[i], positions[i])``, both from one
        grouped descent: each touched node is visited once per batch with
        one ``access_many``/``rank_many`` pair on its bitvector, and the
        positions the queries carry into their leaves are the ranks.
        Amortised O(node passes) batch calls against ``q`` scalar
        descents.  Under the numpy backend a tree over integer symbols runs
        the descent on index/position arrays (no per-query python work);
        an array input then gets arrays back, a list input lists.
        """
        positions = normalize_batch(positions)
        count = len(positions)
        if count == 0:
            return [], []
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi >= self._size:
            bad = next(p for p in positions if not 0 <= p < self._size)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {self._size}"
            )
        np = kernel.array_module()
        if np is not None and self._int_symbols:
            if isinstance(positions, np.ndarray):
                return self._inverse_select_arrays(np, positions)
            if count >= _SMALL_BATCH:
                symbols, ranks = self._inverse_select_arrays(np, positions)
                return symbols.tolist(), ranks.tolist()
        symbols: List[Optional[Hashable]] = [None] * count
        ranks = [0] * count
        stack = [(self._root, list(range(count)), kernel.as_int_list(positions))]
        while stack:
            node, slots, pos_list = stack.pop()
            if node.is_leaf:
                symbol = node.symbol
                for slot, rank in zip(slots, pos_list):
                    symbols[slot] = symbol
                    ranks[slot] = rank
                continue
            vector = node.bitvector
            bits = vector.access_many(pos_list)
            # One rank_many(0) pass serves both children: rank(1, pos) is
            # just pos - rank(0, pos).
            zero_ranks = vector.rank_many(0, pos_list)
            left_slots, left_pos, right_slots, right_pos = [], [], [], []
            for slot, pos, bit, zeros in zip(slots, pos_list, bits, zero_ranks):
                if bit:
                    right_slots.append(slot)
                    right_pos.append(pos - zeros)
                else:
                    left_slots.append(slot)
                    left_pos.append(zeros)
            if left_slots:
                stack.append((node.children[0], left_slots, left_pos))
            if right_slots:
                stack.append((node.children[1], right_slots, right_pos))
        return symbols, ranks

    def _inverse_select_arrays(self, np, positions):
        """The grouped descent of :meth:`inverse_select_many` on int64 arrays."""
        count = len(positions)
        symbols = np.empty(count, dtype=np.int64)
        ranks = np.empty(count, dtype=np.int64)
        stack = [
            (
                self._root,
                np.arange(count, dtype=np.int64),
                np.asarray(positions, dtype=np.int64),
            )
        ]
        while stack:
            node, slots, pos = stack.pop()
            if node.is_leaf:
                symbols[slots] = node.symbol
                ranks[slots] = pos
                continue
            vector = node.bitvector
            ones = np.asarray(vector.access_many(pos), dtype=bool)
            zeros = np.asarray(vector.rank_many(0, pos), dtype=np.int64)
            if not ones.all():
                left = ~ones
                stack.append((node.children[0], slots[left], zeros[left]))
            if ones.any():
                stack.append(
                    (node.children[1], slots[ones], pos[ones] - zeros[ones])
                )
        return symbols, ranks

    def rank_many(self, symbol: Hashable, positions: Sequence[int]) -> List[int]:
        """``rank(symbol, pos)`` for each of ``positions``.

        One walk down the symbol's code path serves the whole batch: every
        node on the path is visited once with a single batched ``rank_many``
        on its bitvector, amortising to ``O(|code|)`` batch passes total
        instead of ``q`` independent ``O(|code|)`` scalar walks -- the
        backward-search access pattern of :class:`repro.text.fm_index.FMIndex`.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        for pos in positions:
            if not 0 <= pos <= self._size:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {self._size}"
                )
        code = self._codes.get(symbol)
        if code is None or not positions:
            return [0] * len(positions)
        current = [int(pos) for pos in positions]
        node = self._root
        for depth in range(len(code)):
            if node is None or node.is_leaf:
                break
            current = node.bitvector.rank_many(code[depth], current)
            node = node.children[code[depth]]
        if node is not None and node.is_leaf and node.symbol == symbol:
            return current
        return [0] * len(positions)

    def select_many(self, symbol: Hashable, indexes: Sequence[int]) -> List[int]:
        """``select(symbol, idx)`` for each of ``indexes``.

        The symbol's root-to-leaf code path is recorded once and unwound
        with each node bitvector's batched ``select_many`` (shared directory
        walks), amortising the per-node work over the whole batch instead of
        paying ``q`` independent unwinds.
        """
        code = self._codes.get(symbol)
        if code is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        indexes = validate_select_indexes(indexes, self.count(symbol), symbol)
        if not indexes:
            return []
        node = self._root
        path: List[Tuple[_CodeNode, int]] = []
        for depth in range(len(code)):
            if node.is_leaf:
                break
            path.append((node, code[depth]))
            node = node.children[code[depth]]
        current = indexes
        for ancestor, bit in reversed(path):
            current = ancestor.bitvector.select_many(bit, current)
        return current

    def to_list(self) -> List[Hashable]:
        """Materialise the stored sequence."""
        return [self.access(pos) for pos in range(self._size)]

    def size_in_bits(self) -> int:
        """Bitvector space plus per-node bookkeeping."""
        total = 0
        nodes = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            nodes += 1
            if node.bitvector is not None:
                total += node.bitvector.size_in_bits()
            for child in node.children:
                if child is not None:
                    stack.append(child)
        return total + nodes * 4 * 64
