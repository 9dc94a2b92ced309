"""Shared query machinery of every Wavelet Trie variant.

The three variants (static, append-only, fully dynamic) differ only in the
bitvector implementation stored at internal nodes and in which update
operations they allow; the query algorithms of Lemmas 3.2 and 3.3 are common
and implemented once here, on top of the node interface of
:class:`~repro.core.node.WaveletTrieNode`.  The static trie
(:mod:`repro.core.static`) runs the same code over node handles it makes
from its Theorem 3.7 components the first time a walk reaches a node.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.bits.bitstring import Bits
from repro.bitvector.base import normalize_batch, validate_select_indexes
from repro.core.interface import (
    IndexedStringSequence,
    check_select_index,
    check_select_prefix_index,
    validate_select_prefix_indexes,
)
from repro.core.node import WaveletTrieNode
from repro.core.range_queries import RangeQueryMixin
from repro.exceptions import OutOfBoundsError, ValueNotFoundError
from repro.tries.binarize import StringCodec, default_codec

__all__ = ["WaveletTrieBase"]


class WaveletTrieBase(RangeQueryMixin, IndexedStringSequence):
    """Query implementation shared by all Wavelet Trie variants."""

    def __init__(self, codec: Optional[StringCodec] = None) -> None:
        self._codec = codec or default_codec()
        self._root: Optional[WaveletTrieNode] = None
        self._size = 0

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def codec(self) -> StringCodec:
        """The binarisation codec in use."""
        return self._codec

    @property
    def root(self) -> Optional[WaveletTrieNode]:
        """The root node (None for the empty sequence)."""
        return self._root

    def is_empty(self) -> bool:
        """True if the sequence has no elements."""
        return self._size == 0

    def nodes(self) -> Iterator[WaveletTrieNode]:
        """All trie nodes in preorder (children visited 0 then 1)."""
        if self._root is None:
            return
        stack: List[WaveletTrieNode] = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                right = node.children[1]
                left = node.children[0]
                if right is not None:
                    stack.append(right)
                if left is not None:
                    stack.append(left)

    def node_count(self) -> int:
        """Number of trie nodes."""
        return sum(1 for _ in self.nodes())

    def distinct_count(self) -> int:
        """|Sset|: number of distinct values (= number of leaves)."""
        return sum(1 for node in self.nodes() if node.is_leaf)

    def distinct_values(self) -> List[Any]:
        """The distinct values, in trie (lexicographic) order."""
        return [value for value, _ in self.distinct_in_range(0, self._size)] \
            if self._size else []

    # ------------------------------------------------------------------
    # Public queries (decode / encode through the codec)
    # ------------------------------------------------------------------
    def access(self, pos: int) -> Any:
        """The element at position ``pos`` (paper Access)."""
        return self._codec.from_bits(self.access_bits(pos))

    def rank(self, value: Any, pos: int) -> int:
        """Occurrences of ``value`` in the first ``pos`` positions (paper Rank)."""
        return self.rank_bits(self._codec.to_bits(value), pos)

    def select(self, value: Any, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``value`` (paper Select)."""
        return self.select_bits(self._codec.to_bits(value), idx, label=value)

    def rank_prefix(self, prefix: Any, pos: int) -> int:
        """Elements with ``prefix`` in the first ``pos`` positions (RankPrefix)."""
        return self.rank_prefix_bits(self._codec.prefix_to_bits(prefix), pos)

    def select_prefix(self, prefix: Any, idx: int) -> int:
        """Position of the ``idx``-th element with ``prefix`` (SelectPrefix)."""
        return self.select_prefix_bits(
            self._codec.prefix_to_bits(prefix), idx, label=prefix
        )

    # ------------------------------------------------------------------
    # Batch queries (amortise the trie descent and codec work per node)
    # ------------------------------------------------------------------
    def access_many(self, positions) -> List[Any]:
        """Elements at each of ``positions`` (batched paper Access).

        One traversal of the touched trie nodes: at every internal node one
        ``access_rank_many`` on its bitvector gives each position's bit,
        which picks the child, and the bit's rank, which is the position
        there; each leaf value is decoded once for its whole group --
        amortised, one bitvector batch call per touched node instead of one
        full root-to-leaf walk (and one decode) per queried position.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        if not positions:
            return []
        for pos in positions:
            if not 0 <= pos < self._size:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {self._size}"
                )
        results: List[Any] = [None] * len(positions)
        stack = [(self._root, Bits.empty(), list(enumerate(positions)))]
        while stack:
            node, prefix, items = stack.pop()
            current = prefix + node.label
            if node.is_leaf:
                value = self._codec.from_bits(current)
                for index, _ in items:
                    results[index] = value
                continue
            bits, ranks = node.bitvector.access_rank_many([pos for _, pos in items])
            groups: List[List[Tuple[int, int]]] = [[], []]
            for (index, _), bit, rank in zip(items, bits, ranks):
                groups[bit].append((index, rank))
            for bit in (0, 1):
                if groups[bit]:
                    stack.append((node.children[bit], current.appended(bit), groups[bit]))
        return results

    def rank_many(self, value: Any, positions) -> List[int]:
        """``rank(value, pos)`` for each position (batched paper Rank).

        The value is binarised once and the trie descended once; at every
        internal node the whole position vector is mapped through the
        bitvector's batch ``rank_many`` -- amortised O(|s| + h_s (D + q))
        where D is the per-node batch-pass cost, against q full walks.
        """
        return self.rank_many_bits(self._codec.to_bits(value), positions)

    def rank_many_bits(self, key: Bits, positions) -> List[int]:
        """Batched Rank of a binarised value (see :meth:`rank_many`)."""
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        for pos in positions:
            self._check_rank_pos(pos)
        if not positions:
            return []
        return self._rank_many_along(self._path_of(key), list(positions))

    def select_many(self, value: Any, indexes) -> List[int]:
        """``select(value, idx)`` for each index (batched paper Select).

        The value is binarised once, its root-to-leaf path located once, and
        the path unwound with each node bitvector's batched ``select_many``
        -- one shared directory/runs pass per node -- so q queries cost
        amortised O(|s| + h_s (D + q log q)) instead of q full O(|s| +
        h_s log n) walks.  Results come back in input order; the indexes
        need not be sorted.
        """
        return self.select_many_bits(
            self._codec.to_bits(value), indexes, label=value
        )

    def select_many_bits(self, key: Bits, indexes, label: Any = None) -> List[int]:
        """Batched Select of a binarised value (see :meth:`select_many`);
        errors name ``label`` (the value) when given, else the key."""
        indexes = normalize_batch(indexes)
        if not len(indexes):
            return []  # an empty batch never raises, like the default loop
        shown = key if label is None else label
        path = self._path_of(key)
        if path is None:
            raise ValueNotFoundError(
                f"value {shown!r} does not occur in the sequence"
            )
        leaf, ancestors = path
        current = validate_select_indexes(
            indexes, leaf.sequence_length(self._size), shown
        )
        for node, bit in reversed(ancestors):
            current = node.bitvector.select_many(bit, current)
        return current

    def rank_prefix_many(self, prefix: Any, positions) -> List[int]:
        """``rank_prefix(prefix, pos)`` for each position (batched RankPrefix).

        The prefix is binarised once and its node located with one shared
        root-to-prefix-node walk; at every internal node on the way the whole
        position vector is mapped through the bitvector's batch ``rank_many``
        -- amortised O(|p| + depth_p (D + q)) where D is the per-node batch
        pass, against q independent O(|p| + depth_p log n) descents.
        """
        return self.rank_prefix_many_bits(
            self._codec.prefix_to_bits(prefix), positions
        )

    def rank_prefix_many_bits(self, prefix: Bits, positions) -> List[int]:
        """Batched RankPrefix of a binarised prefix (see :meth:`rank_prefix_many`)."""
        positions = normalize_batch(positions)
        for pos in positions:
            self._check_rank_pos(pos)
        if not len(positions):
            return []
        return self._rank_many_along(
            self._prefix_node(prefix), [int(pos) for pos in positions]
        )

    def select_prefix_many(self, prefix: Any, indexes) -> List[int]:
        """``select_prefix(prefix, idx)`` for each index (batched SelectPrefix).

        The prefix node is located once and its root path unwound with each
        node bitvector's batched ``select_many`` (one shared directory/runs
        pass per node), so q queries cost amortised O(|p| + depth_p (D +
        q log q)) instead of q full SelectPrefix walks.  Results come back in
        input order; the indexes need not be sorted.
        """
        return self.select_prefix_many_bits(
            self._codec.prefix_to_bits(prefix), indexes, label=prefix
        )

    def select_prefix_many_bits(
        self, prefix: Bits, indexes, label: Any = None
    ) -> List[int]:
        """Batched SelectPrefix of a binarised prefix (see :meth:`select_prefix_many`)."""
        indexes = normalize_batch(indexes)
        if not len(indexes):
            return []  # an empty batch never raises, like the default loop
        located = self._prefix_node(prefix)
        if located is None:
            raise ValueNotFoundError(
                f"no element has prefix {(prefix if label is None else label)!r}"
            )
        node, ancestors = located
        current = validate_select_prefix_indexes(
            indexes,
            node.sequence_length(self._size),
            prefix if label is None else label,
        )
        for ancestor, bit in reversed(ancestors):
            current = ancestor.bitvector.select_many(bit, current)
        return list(current)

    # ------------------------------------------------------------------
    # Totals from the topology (Definition 3.1)
    # ------------------------------------------------------------------
    def count(self, value: Any) -> int:
        """Total occurrences of ``value``: its leaf's subsequence length.

        The parent bitvector stores that length as its count of the
        branching bit, so this is O(|s|) label work plus one O(1)
        ``count``, with no Rank.
        """
        return self.count_bits(self._codec.to_bits(value))

    def count_bits(self, key: Bits) -> int:
        """Total occurrences of a binarised value (see :meth:`count`)."""
        path = self._path_of(key)
        return 0 if path is None else path[0].sequence_length(self._size)

    def count_prefix(self, prefix: Any) -> int:
        """Total elements with ``prefix``: the subsequence length of ``n_p``.

        O(|p|) label work plus one O(1) ``count`` on the parent of the
        prefix node, with no Rank.
        """
        return self.count_prefix_bits(self._codec.prefix_to_bits(prefix))

    def count_prefix_bits(self, prefix: Bits) -> int:
        """Total elements with a binarised prefix (see :meth:`count_prefix`)."""
        located = self._prefix_node(prefix)
        return 0 if located is None else located[0].sequence_length(self._size)

    # ------------------------------------------------------------------
    # Bit-level queries (Lemmas 3.2 / 3.3)
    # ------------------------------------------------------------------
    def access_bits(self, pos: int) -> Bits:
        """Access, returning the binarised value."""
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._size}"
            )
        node = self._root
        out = node.label
        while not node.is_leaf:
            bit = node.bitvector.access(pos)
            pos = node.bitvector.rank(bit, pos)
            node = node.children[bit]
            out = out.appended(bit) + node.label
        return out

    def rank_bits(self, key: Bits, pos: int) -> int:
        """Rank of a binarised value; 0 when the value does not occur."""
        self._check_rank_pos(pos)
        return self._rank_along(self._path_of(key), pos) if pos else 0

    def select_bits(self, key: Bits, idx: int, label: Any = None) -> int:
        """Select of a binarised value; an absent value, then an index out
        of range raise the canonical errors, naming ``label`` (the value)
        when given, else the key."""
        shown = key if label is None else label
        path = self._path_of(key)
        if path is None:
            raise ValueNotFoundError(f"value {shown!r} does not occur in the sequence")
        leaf, ancestors = path
        check_select_index(shown, idx, leaf.sequence_length(self._size))
        for node, bit in reversed(ancestors):
            idx = node.bitvector.select(bit, idx)
        return idx

    def rank_prefix_bits(self, prefix: Bits, pos: int) -> int:
        """RankPrefix of a binarised prefix (Lemma 3.3)."""
        self._check_rank_pos(pos)
        return self._rank_along(self._prefix_node(prefix), pos) if pos else 0

    def select_prefix_bits(self, prefix: Bits, idx: int, label: Any = None) -> int:
        """SelectPrefix of a binarised prefix (Lemma 3.3).

        Out-of-range indexes raise the canonical error of
        :func:`~repro.core.interface.check_select_prefix_index`, shared with
        the oracle.
        """
        located = self._prefix_node(prefix)
        if located is None:
            raise ValueNotFoundError(
                f"no element has prefix {(prefix if label is None else label)!r}"
            )
        node, ancestors = located
        available = node.sequence_length(self._size)
        check_select_prefix_index(
            prefix if label is None else label, idx, available
        )
        for ancestor, bit in reversed(ancestors):
            idx = ancestor.bitvector.select(bit, idx)
        return idx

    # ------------------------------------------------------------------
    # Path helpers
    # ------------------------------------------------------------------
    def _path_of(
        self, key: Bits
    ) -> Optional[Tuple[WaveletTrieNode, List[Tuple[WaveletTrieNode, int]]]]:
        """Root-to-leaf path of ``key``.

        Returns ``(leaf, [(internal_node, branching_bit), ...])`` or None when
        the key is not stored.  The unread part of the key is an ``(int, bits
        left)`` pair: each label is matched with one shift and one compare,
        and the branching bit is the low bit of the same shifted word, so the
        walk builds no ``Bits`` (Table 1's O(|s|) term in word operations).
        """
        node = self._root
        if node is None:
            return None
        rest, left = key.value, len(key)
        ancestors: List[Tuple[WaveletTrieNode, int]] = []
        while node.bitvector is not None:
            label = node.label
            left -= label._length + 1
            if left < 0:
                return None
            head = rest >> left
            if head >> 1 != label._value:
                return None
            bit = head & 1
            rest ^= head << left
            ancestors.append((node, bit))
            node = node.children[bit]
        label = node.label
        if left != label._length or rest != label._value:
            return None
        return node, ancestors

    def _prefix_node(
        self, prefix: Bits
    ) -> Optional[Tuple[WaveletTrieNode, List[Tuple[WaveletTrieNode, int]]]]:
        """The node ``n_p`` whose subtree holds exactly the keys with ``prefix``.

        Returns ``(n_p, [(internal_node, branching_bit), ...])`` or None when
        no key has the prefix.  Labels are matched on the prefix's integer,
        as in :meth:`_path_of`.
        """
        node = self._root
        if node is None:
            return None
        rest, left = prefix.value, len(prefix)
        ancestors: List[Tuple[WaveletTrieNode, int]] = []
        while True:
            label = node.label
            length = label._length
            if left <= length:
                # The prefix ends inside this label or at its end.
                if rest != label._value >> (length - left):
                    return None
                return node, ancestors
            if node.bitvector is None:
                return None
            left -= length + 1
            head = rest >> left
            if head >> 1 != label._value:
                return None
            bit = head & 1
            rest ^= head << left
            ancestors.append((node, bit))
            node = node.children[bit]

    @staticmethod
    def _rank_along(located, pos: int) -> int:
        """Map ``pos`` down the ancestors of a located node (0 when nothing
        was located); stops at the first node where the rank is 0."""
        if located is None:
            return 0
        for node, bit in located[1]:
            pos = node.bitvector.rank(bit, pos)
            if not pos:
                return 0
        return pos

    @staticmethod
    def _rank_many_along(located, positions: List[int]) -> List[int]:
        """Map ``positions`` down the ancestors of a located node, one
        ``rank_many`` per node (all 0 when nothing was located)."""
        if located is None:
            return [0] * len(positions)
        for node, bit in located[1]:
            positions = node.bitvector.rank_many(bit, positions)
        return positions

    def height_of(self, value: Any) -> int:
        """``h_s``: number of internal nodes on the path of ``value``."""
        path = self._path_of(self._codec.to_bits(value))
        if path is None:
            raise ValueNotFoundError(f"value {value!r} does not occur in the sequence")
        _, ancestors = path
        return len(ancestors)

    def average_height(self) -> float:
        """``h̃`` (Definition 3.4): mean of ``h_s`` over the whole sequence.

        Equivalently, the total bitvector length divided by ``n``.
        """
        if self._size == 0:
            return 0.0
        total = sum(
            len(node.bitvector) for node in self.nodes() if not node.is_leaf
        )
        return total / self._size

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Measured size: labels + node bitvectors + topology pointers."""
        total = 0
        node_count = 0
        for node in self.nodes():
            node_count += 1
            total += len(node.label)
            if node.bitvector is not None:
                total += node.bitvector.size_in_bits()
        return total + node_count * 4 * 64

    def bitvector_bits(self) -> int:
        """Total measured size of the node bitvectors (tracks ``n H0(S)``)."""
        return sum(
            node.bitvector.size_in_bits()
            for node in self.nodes()
            if node.bitvector is not None
        )

    def label_bits(self) -> int:
        """Total label length ``|L|`` over all nodes."""
        return sum(len(node.label) for node in self.nodes())

    # ------------------------------------------------------------------
    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"rank position {pos} out of range for length {self._size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self._size}, "
            f"distinct={self.distinct_count()})"
        )
