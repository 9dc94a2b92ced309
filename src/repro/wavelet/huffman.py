"""Huffman-shaped Wavelet Trees.

The paper notes (after Lemma 3.2) that the popular Huffman-shaped Wavelet Tree
is a special case of the Wavelet Trie obtained by mapping each symbol to its
Huffman code.  This module provides the canonical-code construction and
exactly that trie: :class:`HuffmanWaveletTree` is the static
:class:`~repro.core.static.WaveletTrie` over a :class:`HuffmanCodec`, the
BWT store of the FM-index.  Frequent
symbols sit near the root, so the expected query depth is ``H0 + 1``
instead of ``log sigma``.

Every query, the per-depth batch descents, the check pass and the image
come from the trie; the tree adds its codes.  That is sdsl-lite's
``wt_pc``, one wavelet tree class parameterised by its shape (Gog et al.,
SEA 2014, PAPERS.md).
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.bits.bitstring import Bits
from repro.bitvector.rrr import RRRBitVector
from repro.core.builder import sort_codes
from repro.core.static import BITVECTOR_KINDS, WaveletTrie
from repro.exceptions import BinarizationError, OutOfBoundsError, SerializationError
from repro.tries.binarize import StringCodec

__all__ = ["HuffmanCodec", "HuffmanWaveletTree", "huffman_codes"]


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


class HuffmanCodec(StringCodec):
    """Symbols <-> their codes in a prefix-free code table.

    A symbol outside the table binarises to the empty string, which no
    leaf of a trie over the table holds: it ranks 0 and is not found.
    Prefixes are given as :class:`Bits`.
    """

    _ABSENT = Bits.empty()

    def __init__(self, codes: Dict[Hashable, Bits]) -> None:
        self.codes = codes
        self._symbols = {code: symbol for symbol, code in codes.items()}

    def to_bits(self, symbol: Hashable) -> Bits:
        return self.codes.get(symbol, self._ABSENT)

    def from_bits(self, bits: Bits) -> Hashable:
        try:
            return self._symbols[bits]
        except KeyError:
            raise BinarizationError(f"no symbol has the code {bits.to01()!r}") from None

    def prefix_to_bits(self, prefix: Bits) -> Bits:
        if not isinstance(prefix, Bits):
            raise BinarizationError("code prefixes must be Bits values")
        return prefix


class HuffmanWaveletTree(WaveletTrie):
    """Static Wavelet Tree shaped by the Huffman codes of the input symbols.

    The static Wavelet Trie of the symbols' codes (:func:`huffman_codes`),
    whose leaves, in preorder, are named by their symbols.
    ``bitvector_factory`` is the node bitvector class: RRR by default, or
    any other of :data:`~repro.core.static.BITVECTOR_KINDS`.
    """

    def __init__(self, sequence: Iterable[Hashable], bitvector_factory=RRRBitVector) -> None:
        # An unknown factory is passed on as its own kind, which the trie rejects.
        kind = {factory: name for name, factory in BITVECTOR_KINDS.items()}.get(
            bitvector_factory, bitvector_factory
        )
        data = list(sequence)
        codes = huffman_codes(Counter(data))
        super().__init__(data, codec=HuffmanCodec(codes), bitvector=kind)
        symbols = list(codes)
        self._name_leaves([symbols[index] for index in sort_codes(list(codes.values()))])

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str = "") -> dict:
        """Write the static trie's sections plus ``symbols``: the leaves'
        symbols in preorder (int64).  Symbols must be ints within int64."""
        if not self._int_leaves:
            raise SerializationError("a Huffman wavelet tree images only int64 symbols")
        sink.add_i64(prefix + "symbols", self._leaves)
        return super().to_words_image(sink, prefix)

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "HuffmanWaveletTree":
        """Open through the static trie's loader and check pass; each leaf's
        key is its symbol's code, and ``symbols`` names the leaves."""
        tree = super().from_words_image(image, prefix, meta)
        symbols = [int(symbol) for symbol in image.int64(prefix + "symbols")]
        leaves = [node for node in tree.nodes() if node.is_leaf]
        if len(symbols) != len(leaves) or len(set(symbols)) != len(symbols):
            raise SerializationError(
                f"Huffman tree {prefix!r}: {len(symbols)} symbols for {len(leaves)} leaves"
            )
        tree._codec = HuffmanCodec(
            {symbol: tree._key_of(leaf) for symbol, leaf in zip(symbols, leaves)}
        )
        tree._name_leaves(symbols)
        return tree

    # ------------------------------------------------------------------
    @property
    def codes(self) -> Dict[Hashable, Bits]:
        """The Huffman code of each distinct symbol."""
        return dict(self._codec.codes)

    @property
    def height(self) -> int:
        """Internal nodes on the longest root-to-leaf path (the longest code,
        or 0 when the root is a leaf)."""
        return self._height()

    def inverse_select(self, pos: int) -> Tuple[Hashable, int]:
        """``(symbol, rank(symbol, pos))`` for the symbol at ``pos``.

        One root-to-leaf walk over the node handles: the position the walk
        carries into the leaf is exactly the symbol's rank, so this pair
        costs what :meth:`access` costs.  It is the FM-index LF step.
        """
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        node = self._root
        while node.bitvector is not None:
            bit = node.bitvector.access(pos)
            pos = node.bitvector.rank(bit, pos)
            node = node.children[bit]
        return self._leaves[self._leaf_range(node)[0]], pos
