"""Huffman-shaped Wavelet Trees.

The paper notes (after Lemma 3.2) that the popular Huffman-shaped Wavelet Tree
is a special case of the Wavelet Trie obtained by mapping each symbol to its
Huffman code.  This module provides the canonical-code construction and a
static Huffman-shaped tree, the BWT store of the FM-index and the
text-collection baseline: frequent symbols sit near the root, so the
expected query depth is ``H0 + 1`` instead of ``log sigma``.

The tree is built as exactly that Wavelet Trie, by the static trie builder
(:func:`~repro.core.builder.build_static_trie`) over the Huffman codes,
which also gives the code tree's preorder flags and leaf order, and stored
in Theorem 3.7's layout: one bitvector holding every
internal node's bits in preorder, plus O(sigma) integer tables for the
shape (each node's window start, the ones before it, its children).  That is
the one-vector-plus-offsets layout of sdsl-lite's wavelet trees (Gog et al.,
SEA 2014, PAPERS.md).  A batch query then moves every item down one depth
per call on the shared vector, whichever node each item is at.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.kernel import SMALL_BATCH
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.base import (
    batch_min_max,
    normalize_batch,
    validate_select_indexes,
)
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.core.builder import build_static_trie
from repro.core.static import check_preorder_tree, flags_of_words
from repro.exceptions import (
    OutOfBoundsError,
    SerializationError,
    ValueNotFoundError,
)

__all__ = ["HuffmanWaveletTree", "huffman_codes"]

#: Node bitvector kinds a frozen image can name.
_IMAGE_KINDS = {"plain": PlainBitVector, "rrr": RRRBitVector}

#: Items from which :meth:`HuffmanWaveletTree.rank_each` descends on numpy
#: arrays instead of lists.  Timed on the 3,000-URL BWT tree (plain nodes,
#: numpy, 2-vCPU host, three sweeps), the array descent cost 1.4-1.7x the
#: list one at 32 items, 0.98-1.44x at 64, 0.76-1.0x at 128 and
#: 0.53-0.65x at 256, falling to 0.27-0.30x at 2,048 (a 1,024-pattern
#: ``count_many``: 8.5-9.9 ms against 21.5-25.8 ms).  ``SMALL_BATCH`` (32)
#: is below the crossover; 256 is the first width where the arrays won by
#: a third in every sweep.
_ARRAY_WALKS = 256


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


class HuffmanWaveletTree:
    """Static Wavelet Tree shaped by the Huffman codes of the input symbols.

    Internal node ``r`` (preorder, 0-child first) owns the window
    ``[start[r], start[r] + rows)`` of one shared node bitvector.  Its
    child through bit ``b`` sits at ``k = 2 r + b`` of two tables:
    ``child[k]`` is the child's node number, or ``~i`` for the leaf of
    symbol ``i``, and ``before[k]`` counts the ``b`` bits of the shared
    vector before the window.  A query at node ``r`` and position ``p``
    reads shared position ``g = start[r] + p`` and continues at
    ``child[k]`` with position ``rank(b, g) - before[k]``.
    """

    def __init__(self, sequence: Iterable[Hashable], bitvector_factory=RRRBitVector) -> None:
        data = list(sequence)
        codes = huffman_codes(Counter(data))
        symbols = list(codes)
        index_of = {symbol: index for index, symbol in enumerate(symbols)}
        layout, leaves = build_static_trie(
            [codes[symbol] for symbol in symbols],
            [index_of[symbol] for symbol in data],
            bitvector_factory,
        )
        self._install(
            layout.flags, [symbols[leaf] for leaf in leaves], layout.vector,
            len(data), bitvector_factory,
        )

    def _install(self, flags: Sequence[int], leaves: Sequence[Hashable], shared,
                 size: int, factory) -> None:
        """Lay the code tree over the shared node vector.

        ``flags`` marks the code tree's nodes in preorder (1 internal, 0
        leaf; 0-child first) and ``leaves`` names the leaves' symbols in
        that order.  The internal nodes' windows tile ``shared`` in
        preorder: the root's holds ``size`` bits and each internal child's
        as many as its parent routes to it, as the static trie's
        (:func:`~repro.core.static.check_preorder_tree`).  Raises
        :class:`SerializationError` when the flags describe no full binary
        tree over distinct symbols, a leaf receives no rows or the windows
        do not tile the vector (an image that does not describe one tree).
        """
        symbols = list(leaves)
        starts: List[int] = []
        before: List[int] = []
        routed: List[Tuple[int, int]] = []  # per internal node: (zeros, ones)

        def window_ones(node: int, start: int, rows: int) -> int:
            if start + rows > len(shared):
                raise SerializationError(
                    f"Huffman node {node} needs {rows} bits past bit {start} "
                    f"of a {len(shared)}-bit node vector"
                )
            ones_before = shared.rank(1, start)
            ones = shared.rank(1, start + rows) - ones_before
            starts.append(start)
            before.extend((start - ones_before, ones_before))
            routed.append((rows - ones, ones))
            return ones

        one_child, covered = check_preorder_tree(flags, size, window_ones, "a Huffman tree")
        if covered != len(shared):
            raise SerializationError(
                f"the Huffman node windows cover {covered} of {len(shared)} bits "
                f"for {size} rows"
            )
        if len(set(symbols)) != len(symbols):
            raise SerializationError("the Huffman leaves do not match their symbols")
        # Each preorder node as a table entry: an internal node's number,
        # or ``~i`` for the leaf of symbol ``i``.
        entries: List[int] = []
        internal_at: List[int] = []
        for index, flag in enumerate(flags):
            if flag:
                entries.append(len(internal_at))
                internal_at.append(index)
            else:
                entries.append(~(index - len(internal_at)))
        child = [0] * (2 * len(internal_at))
        codes: Dict[Hashable, Bits] = {}
        counts = [0] * len(symbols)
        # A lone symbol is a root leaf and keeps the 1-bit code ``0``.
        if not internal_at and symbols:
            codes[symbols[0]] = Bits.from_string("0")
            counts[0] = size
        node_codes = [Bits.empty()] * len(internal_at)
        for node, index in enumerate(internal_at):  # parents before children
            for bit, at in ((0, index + 1), (1, one_child[node])):
                entry = child[2 * node + bit] = entries[at]
                code = node_codes[node].appended(bit)
                if entry >= 0:
                    node_codes[entry] = code
                else:
                    codes[symbols[~entry]] = code
                    counts[~entry] = routed[node][bit]
        root = entries[0] if entries else None
        self._size = size
        self._codes = codes
        self._factory = factory
        self._shared = shared
        self._root = root
        self._flags = list(flags)
        self._symbols = symbols
        self._index_of = {symbol: index for index, symbol in enumerate(symbols)}
        self._counts = counts
        self._starts = starts
        self._before = before
        self._child = child
        # Each symbol's root-to-leaf path as its table indexes ``k``.
        self._paths: List[List[int]] = []
        for symbol in symbols:
            path, node = [], 0
            for bit in codes[symbol] if starts else ():
                path.append(2 * node + bit)
                node = child[2 * node + bit]
            self._paths.append(path)
        self._height = max(map(len, self._paths), default=0)
        self._arrays = None
        # Integer symbols (FM-index character codes) may ride the numpy
        # array descent; any other symbol type keeps the list descent.
        self._int_symbols = all(
            type(symbol) is int and -(1 << 63) <= symbol < 1 << 63 for symbol in symbols
        )

    def _tables(self, np):
        """The shape tables as int64 arrays (built once): starts, before,
        child, the leaf symbols, the paths padded into one row per symbol,
        and the path lengths followed by a -1 (what an absent symbol's
        index -1 reads)."""
        if self._arrays is None:
            paths = np.zeros((len(self._paths), max(self.height, 1)), dtype=np.int64)
            for index, path in enumerate(self._paths):
                paths[index, : len(path)] = path
            self._arrays = (
                np.asarray(self._starts, dtype=np.int64),
                np.asarray(self._before, dtype=np.int64),
                np.asarray(self._child, dtype=np.int64),
                np.asarray(self._symbols if self._int_symbols else [], dtype=np.int64),
                paths,
                np.asarray([len(path) for path in self._paths] + [-1], dtype=np.int64),
            )
        return self._arrays

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the tree as a fixed set of sections whatever the alphabet:
        ``shape`` the code tree's preorder flags, ``symbols`` its leaves'
        symbols in preorder (int64), and the shared node vector under
        ``prefix + "bv."``, whose meta goes under ``bitvector``.

        Symbols must be ints within int64.
        """
        kind = next(
            (name for name, factory in _IMAGE_KINDS.items() if factory is self._factory),
            None,
        )
        if kind is None or not self._int_symbols:
            raise SerializationError(
                "a Huffman wavelet tree images only plain or rrr nodes over "
                "int64 symbols"
            )
        flags = BitBuffer()
        for flag in self._flags:
            flags.append(flag)
        sink.add_u64(prefix + "shape", flags.words())
        sink.add_i64(prefix + "symbols", self._symbols)
        return {
            "kind": kind,
            "size": self._size,
            "bitvector": self._shared.to_words_image(sink, prefix + "bv."),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "HuffmanWaveletTree":
        """Open from a frozen image; the shared node vector aliases it.

        The preorder flags and the leaf symbols give the shape (a lone
        symbol is a root leaf), and the node windows must tile the vector:
        the root's holds ``size`` rows and each internal child's the rows
        its parent routes to it.
        """
        factory = _IMAGE_KINDS.get(meta["kind"])
        if factory is None:
            raise SerializationError(f"unknown Huffman node kind {meta['kind']!r}")
        leaves = [int(symbol) for symbol in image.int64(prefix + "symbols")]
        flags = flags_of_words(image.words(prefix + "shape"), max(2 * len(leaves) - 1, 0))
        shared = factory.from_words_image(image, prefix + "bv.", meta["bitvector"])
        self = cls.__new__(cls)
        self._install(flags, leaves, shared, int(meta["size"]), factory)
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> Dict[Hashable, Bits]:
        """The Huffman code of each distinct symbol."""
        return dict(self._codes)

    @property
    def node_bitvector(self):
        """The one bitvector holding every internal node's bits, in preorder."""
        return self._shared

    @property
    def height(self) -> int:
        """Internal nodes on the longest root-to-leaf path (the longest code,
        or 0 when the root is a leaf)."""
        return self._height

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
        shared, starts, before, child = self._shared, self._starts, self._before, self._child
        node = self._root
        while node >= 0:
            at = starts[node] + pos
            bit = shared.access(at)
            pos = shared.rank(bit, at) - before[2 * node + bit]
            node = child[2 * node + bit]
        return self._symbols[~node], pos

    def rank(self, symbol: Hashable, pos: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, pos)``."""
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        index = self._index_of.get(symbol)
        if index is None:
            return 0
        shared, starts, before = self._shared, self._starts, self._before
        for k in self._paths[index]:
            if not pos:
                return 0
            pos = shared.rank(k & 1, starts[k >> 1] + pos) - before[k]
        return pos

    def select(self, symbol: Hashable, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``symbol``."""
        index = self._index_of.get(symbol)
        if index is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        total = self._counts[index]
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({symbol!r}, {idx}) out of range: only {total} occurrences"
            )
        for k in reversed(self._paths[index]):
            idx = self._shared.select(k & 1, idx + self._before[k]) - self._starts[k >> 1]
        return idx

    def count(self, symbol: Hashable) -> int:
        """Total occurrences of ``symbol`` (its leaf's row count)."""
        index = self._index_of.get(symbol)
        return 0 if index is None else self._counts[index]

    # ------------------------------------------------------------------
    # Batch query paths (docs/API.md, "The batch-API convention")
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[Hashable]:
        """The symbols at each of ``positions``: the first half of
        :meth:`inverse_select_many`, so the cost amortises the same way (at
        most ``height`` shared-vector calls per batch)."""
        return self.inverse_select_many(positions)[0]

    def inverse_select_many(self, positions: Sequence[int]):
        """``(symbols, ranks)``: the symbol at each position and its rank there.

        ``ranks[i] = rank(symbols[i], positions[i])``.  Every query moves
        down one depth per step, whichever node it is at: one
        ``access_rank_many`` on the shared node vector gives each query's
        bit and its rank, which are its child and its position there, and
        the position a query carries into its leaf is its rank.  So a batch
        makes at most ``height`` shared-vector calls.  Under the numpy
        backend a tree over integer symbols runs the descent on int64
        arrays (no per-query python work); an array input then gets arrays
        back, a list input lists.
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
            if count >= SMALL_BATCH:
                symbols, ranks = self._inverse_select_arrays(np, positions)
                return symbols.tolist(), ranks.tolist()
        positions = kernel.as_int_list(positions)
        if self._root < 0:
            return [self._symbols[~self._root]] * count, list(positions)
        symbols: List[Optional[Hashable]] = [None] * count
        ranks = [0] * count
        shared, starts, before, child = self._shared, self._starts, self._before, self._child
        leaf_symbols = self._symbols
        slots = list(range(count))
        nodes = [self._root] * count
        while slots:
            bits, shared_ranks = shared.access_rank_many(
                [starts[node] + pos for node, pos in zip(nodes, positions)]
            )
            live = zip(slots, nodes, bits, shared_ranks)
            slots, nodes, positions = [], [], []
            for slot, node, bit, rank in live:
                k = 2 * node + bit
                node = child[k]
                rank -= before[k]
                if node < 0:
                    symbols[slot] = leaf_symbols[~node]
                    ranks[slot] = rank
                else:
                    slots.append(slot)
                    nodes.append(node)
                    positions.append(rank)
        return symbols, ranks

    def _inverse_select_arrays(self, np, positions):
        """The per-depth descent of :meth:`inverse_select_many` on int64 arrays."""
        count = len(positions)
        positions = np.asarray(positions, dtype=np.int64)
        if self._root < 0:
            symbol = self._symbols[~self._root]
            return np.full(count, symbol, dtype=np.int64), positions.copy()
        starts, before, child, leaf_symbols, _, _ = self._tables(np)
        shared = self._shared
        symbols = np.empty(count, dtype=np.int64)
        ranks = np.empty(count, dtype=np.int64)
        slots = np.arange(count, dtype=np.int64)
        nodes = np.zeros(count, dtype=np.int64)
        while slots.size:
            bits, shared_ranks = shared.access_rank_many(starts[nodes] + positions)
            k = 2 * nodes + bits
            nodes = child[k]
            positions = shared_ranks - before[k]
            leaf = nodes < 0
            if leaf.any():
                done = slots[leaf]
                symbols[done] = leaf_symbols[~nodes[leaf]]
                ranks[done] = positions[leaf]
                inner = ~leaf
                slots, nodes, positions = slots[inner], nodes[inner], positions[inner]
        return symbols, ranks

    def _check_rank_positions(self, positions) -> None:
        if len(positions):
            lo, hi = batch_min_max(positions)
            if lo < 0 or hi > self._size:
                bad = next(p for p in positions if not 0 <= p <= self._size)
                raise OutOfBoundsError(
                    f"position {bad} out of range for length {self._size}"
                )

    def rank_many(self, symbol: Hashable, positions: Sequence[int]) -> List[int]:
        """``rank(symbol, pos)`` for each of ``positions``.

        One walk down the symbol's code path serves the whole batch: each
        node on the path costs one ``rank_many`` on the shared node vector,
        amortising to ``O(|code|)`` batch passes in all instead of ``q``
        scalar walks.  :meth:`rank_each` hands its narrow one-symbol
        batches here: its per-item bookkeeping would nearly double the cost
        of a two-endpoint batch, the backward step of :meth:`FMIndex.count
        <repro.text.fm_index.FMIndex.count>` and of a ``count_many`` with
        one live pattern.
        """
        positions = kernel.as_int_list(normalize_batch(positions))
        self._check_rank_positions(positions)
        index = self._index_of.get(symbol)
        if index is None or not positions:
            return [0] * len(positions)
        current = list(positions)
        for k in self._paths[index]:
            start, drop = self._starts[k >> 1], self._before[k]
            current = [
                rank - drop
                for rank in kernel.as_int_list(
                    self._shared.rank_many(k & 1, [start + pos for pos in current])
                )
            ]
        return current

    def rank_each(self, symbols: Sequence[Hashable], positions: Sequence[int]) -> List[int]:
        """``rank(symbols[i], positions[i])`` for each item, one symbol per item.

        The items descend their own code paths together, one depth at a
        time: per depth one ``rank_many`` on the shared node vector over
        every item still above its leaf, so a batch makes at most
        ``height`` shared-vector calls whatever its symbols (the
        FM-index's backward step over every live interval endpoint; see
        :meth:`repro.text.fm_index.FMIndex.count_many`).  The items are
        ordered by decreasing code length once (bucketed by length), so the
        items still descending at any depth are a prefix of that order:
        amortised O(q) python work per depth plus the batched ranks.  A
        one-symbol batch narrower than the array descent takes
        :meth:`rank_many`'s walk instead: the same calls without the
        per-item bookkeeping.  Absent symbols rank 0.  Always a list.
        """
        positions = kernel.as_int_list(normalize_batch(positions))
        index_of = self._index_of
        indexes = [index_of.get(symbol, -1) for symbol in symbols]
        if len(indexes) != len(positions):
            raise ValueError(f"{len(indexes)} symbols for {len(positions)} positions")
        self._check_rank_positions(positions)
        np = kernel.array_module()
        if np is not None and len(indexes) >= _ARRAY_WALKS:
            return self._rank_each_arrays(np, indexes, positions)
        if len(set(indexes)) == 1:
            return self.rank_many(symbols[0], positions)
        out = [0] * len(positions)
        paths = self._paths
        buckets: List[List[int]] = [[] for _ in range(self._height + 1)]
        for slot, index in enumerate(indexes):
            if index >= 0:
                buckets[len(paths[index])].append(slot)
        for slot in buckets[0]:  # a lone symbol: the root is its leaf
            out[slot] = positions[slot]
        order = [slot for bucket in reversed(buckets[1:]) for slot in bucket]
        walk_paths = [paths[indexes[slot]] for slot in order]
        current = [positions[slot] for slot in order]
        shared, starts, before = self._shared, self._starts, self._before
        live = len(order)
        depth = 0
        while live:
            ks = [path[depth] for path in walk_paths[:live]]
            at = [starts[k >> 1] + pos for k, pos in zip(ks, current)]
            ones = shared.rank_many(1, at)
            current = [
                (count if k & 1 else place - count) - before[k]
                for k, place, count in zip(ks, at, ones)
            ]
            depth += 1
            done = live - len(buckets[depth])
            for slot, rank in zip(order[done:live], current[done:]):
                out[slot] = rank
            live = done
            del current[live:]
        return out

    def _rank_each_arrays(self, np, indexes, positions) -> List[int]:
        """:meth:`rank_each`'s descent on int64 arrays (absent symbols are
        index -1)."""
        starts, before, _, _, paths, lengths_of = self._tables(np)
        rows = np.asarray(indexes, dtype=np.int64)
        lengths = lengths_of[rows]  # index -1 reads the trailing -1
        order = np.argsort(-lengths, kind="stable")
        rows, lengths = rows[order], lengths[order]
        current = np.asarray(positions, dtype=np.int64)[order]
        shared = self._shared
        for depth in range(int(lengths[0])):
            live = int(np.count_nonzero(lengths > depth))
            ks = paths[rows[:live], depth]
            at = starts[ks >> 1] + current[:live]
            ones = shared.rank_many(1, at)
            current[:live] = np.where(ks & 1, ones, at - ones) - before[ks]
        current[lengths < 0] = 0
        out = np.empty_like(current)
        out[order] = current
        return out.tolist()

    def select_many(self, symbol: Hashable, indexes: Sequence[int]) -> List[int]:
        """``select(symbol, idx)`` for each of ``indexes``.

        The symbol's code path is unwound once, leaf to root, with one
        batched ``select_many`` on the shared node vector per node (shared
        directory walks), amortising the per-node work over the batch
        instead of paying ``q`` independent unwinds.
        """
        index = self._index_of.get(symbol)
        if index is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        current = validate_select_indexes(indexes, self._counts[index], symbol)
        for k in reversed(self._paths[index] if current else ()):
            drop, start = self._before[k], self._starts[k >> 1]
            current = [
                pos - start
                for pos in kernel.as_int_list(
                    self._shared.select_many(k & 1, [idx + drop for idx in current])
                )
            ]
        return current

    def to_list(self) -> List[Hashable]:
        """Materialise the stored sequence."""
        return self.access_many(list(range(self._size)))

    def size_in_bits(self) -> int:
        """The shared node vector plus four words of shape table per node."""
        nodes = 2 * len(self._symbols) - 1 if self._symbols else 0
        return self._shared.size_in_bits() + nodes * 4 * 64
