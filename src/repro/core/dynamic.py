"""The fully dynamic Wavelet Trie (paper Section 4, Theorem 4.4).

Supports ``insert`` and ``delete`` at arbitrary positions, of arbitrary --
possibly previously unseen -- strings, with a dynamic alphabet: the shape of
the underlying Patricia trie changes as the distinct-string set grows and
shrinks.  Internal nodes store the fully dynamic RLE+gamma bitvectors of
Section 4.2, so every operation costs ``O(|s| + h_s log n)``; deleting the
last occurrence of a string additionally pays the Patricia-trie merge
(``O(l̂ + h_s log n)``), exactly the dagger case of Table 1.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.bits.bitstring import Bits
from repro.bits.kernel import runs_of_value
from repro.bitvector.dynamic import DynamicBitVector
from repro.core.base import WaveletTrieBase
from repro.core.growable import GrowableTopologyMixin
from repro.core.node import WaveletTrieNode
from repro.exceptions import OutOfBoundsError
from repro.tries.binarize import StringCodec

__all__ = ["DynamicWaveletTrie"]

# One step of the treap-seed rotation (a 63-bit LCG); TieredWaveletTrie
# seeds each new dynamic tail with the same step.
_SEED_MULTIPLIER = 6364136223846793005


class DynamicWaveletTrie(GrowableTopologyMixin, WaveletTrieBase):
    """Compressed indexed sequence with insertions and deletions anywhere.

    Examples
    --------
    >>> seq = DynamicWaveletTrie(["/a", "/b", "/a"])
    >>> seq.insert("/c", 1)
    >>> seq.to_list()
    ['/a', '/c', '/b', '/a']
    >>> seq.delete(2)
    '/b'
    >>> seq.to_list()
    ['/a', '/c', '/a']
    """

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(codec)
        self._seed = seed
        self._next_seed = seed
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    def _rotate_seed(self) -> int:
        self._next_seed = (self._next_seed * _SEED_MULTIPLIER + 1) % (1 << 63)
        return self._next_seed

    def _new_constant_bitvector(self, bit: int, length: int) -> DynamicBitVector:
        return DynamicBitVector.init_run(bit, length, seed=self._rotate_seed())

    def _bitvector_from_bits(self, bits: Bits) -> DynamicBitVector:
        """A node bitvector holding ``bits`` (how a thawed node is rebuilt)."""
        return DynamicBitVector.from_runs(
            runs_of_value(bits.value, len(bits)), seed=self._rotate_seed()
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Append ``value`` at the end (``Insert`` at position ``n``)."""
        key = self._codec.to_bits(value)
        self._ensure_key(key)
        for node, bit in self._walk_for_update(key):
            node.bitvector.append(bit)
        self._size += 1

    def extend(self, values: Iterable[Any]) -> None:
        """Append every element of ``values`` in order (bulk paper Append).

        Batch-amortised like the append-only variant: a value the trie's
        path cache routes costs no codec call and no descent, and per-node
        bits are buffered between topology changes and flushed through the
        RLE bitvectors' bulk ``extend`` (one grouping pass into runs + O(r)
        treap build), so bulk construction never walks the treap once per
        bit.  All or nothing: a value the codec rejects raises before any
        row lands.
        """
        self._extend_batched(values)

    def insert(self, value: Any, pos: int) -> None:
        """Insert ``value`` immediately before position ``pos`` (paper Insert).

        Cost ``O(|s| + h_s log n)``: a trie descent, then one bitvector
        ``Insert`` + ``Rank`` per internal node on the path; a previously
        unseen value first splits one trie node using ``Init``.
        """
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {self._size}"
            )
        key = self._codec.to_bits(value)
        self._ensure_key(key)
        position = pos
        for node, bit in self._walk_for_update(key):
            node.bitvector.insert(position, bit)
            position = node.bitvector.rank(bit, position)
        self._size += 1

    def insert_many(self, values: Iterable[Any], pos: int) -> None:
        """Insert every element of ``values``, the first landing at ``pos``.

        Bulk paper ``Insert``: all topology changes (splits via ``Init`` for
        previously unseen strings) are applied first, while the bitvectors
        still hold the pre-insert counts Figure 3 requires; the inserted
        block then stays contiguous at every trie level, so each touched node
        pays one :meth:`DynamicBitVector.insert_many` (treap split + O(r_new)
        bulk build + merge) and one ``rank`` -- amortised
        O(d |s| + nodes_touched (log r + k_node)) for k elements over d
        distinct strings, instead of k per-element root-to-leaf walks.
        All or nothing: a value the codec rejects, or one that breaks
        prefix-freeness, raises with the trie unchanged.
        """
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {self._size}"
            )
        keys = [self._codec.to_bits(value) for value in values]
        if not keys:
            return
        self._ensure_keys(keys)
        stack: List[Tuple[WaveletTrieNode, int, List[Bits], int]] = [
            (self._root, 0, keys, pos)
        ]
        while stack:
            node, depth, group, position = stack.pop()
            if node.is_leaf:
                continue
            branch_at = depth + len(node.label)
            bits = [key[branch_at] for key in group]
            left_position = node.bitvector.rank(0, position)
            right_position = position - left_position
            node.bitvector.insert_many(position, bits)
            left_group = [key for key, bit in zip(group, bits) if bit == 0]
            right_group = [key for key, bit in zip(group, bits) if bit == 1]
            child_depth = branch_at + 1
            if left_group:
                stack.append(
                    (node.children[0], child_depth, left_group, left_position)
                )
            if right_group:
                stack.append(
                    (node.children[1], child_depth, right_group, right_position)
                )
        self._size += len(keys)

    def delete(self, pos: int) -> Any:
        """Delete the element at position ``pos`` and return it (paper Delete).

        Deleting the last occurrence of a value also removes its leaf from the
        Patricia trie and merges its parent with the sibling (the dagger case
        of Table 1).
        """
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(
                f"delete position {pos} out of range for length {self._size}"
            )
        # Walk down recording the path and per-node positions.
        node = self._root
        position = pos
        path: List[Tuple[WaveletTrieNode, int, int]] = []
        out = node.label
        while not node.is_leaf:
            bit = node.bitvector.access(position)
            path.append((node, bit, position))
            position = node.bitvector.rank(bit, position)
            node = node.children[bit]
            out = out.appended(bit) + node.label
        value = self._codec.from_bits(out)
        # Remove the recorded bit from every bitvector on the path.  The
        # positions were computed before any modification and refer to
        # distinct bitvectors, so the order of deletion does not matter.
        for internal, _, node_position in path:
            internal.bitvector.delete(node_position)
        self._size -= 1
        if self._size == 0:
            self._reset_root()
            return value
        if path:
            parent, leaf_bit, _ = path[-1]
            self._remove_leaf_if_last(parent, leaf_bit)
        return value
