"""Shared topology-update machinery for the growable Wavelet Trie variants.

Both the append-only and the fully dynamic Wavelet Trie change the underlying
Patricia trie when a *previously unseen* string arrives: exactly one node is
split, a new internal node with a constant bitvector is created via ``Init``
and a new leaf is added (paper Section 4, Figure 3).  Symmetrically, deleting
the last occurrence of a string removes its leaf and merges its parent with
the sibling.

This mixin implements those structural changes once; subclasses only supply
``_new_constant_bitvector`` (the ``Init`` of their bitvector type).  It also
hosts the shared bulk ``Append`` path (:meth:`_extend_batched`).  Each trie
keeps one path cache that lives across ``extend`` calls: it maps
``(type(value), value)`` to the value's binarised key and root-to-leaf path,
and every topology change clears it (a split, a merge, a reset of the root).
Between topology changes the per-node branching bits are buffered in plain
lists and flushed through each bitvector's bulk ``extend``, so a batch of
values the trie already routes pays no codec call and no trie descent: one
list append per element and path node, and one ``extend`` per touched node.
A batch is all or nothing: every value is binarised before the first
mutation, so a value the codec rejects raises with the trie unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.bits.bitstring import Bits
from repro.core.node import WaveletTrieNode
from repro.exceptions import BinarizationError
from repro.tries.binarize import StringCodec

__all__ = ["GrowableTopologyMixin"]


class GrowableTopologyMixin:
    """Patricia-trie split/merge operations shared by the dynamic variants."""

    def __init__(self, codec: Optional[StringCodec] = None) -> None:
        super().__init__(codec)
        # (type(value), value) -> (binarised key, [(node, branching bit)]),
        # for values routed by ``extend``; cleared on every topology change.
        self._path_cache: Dict[
            Any, Tuple[Bits, List[Tuple[WaveletTrieNode, int]]]
        ] = {}

    # Subclasses provide _root, _size and this factory.
    def _new_constant_bitvector(self, bit: int, length: int):
        """``Init(b, n)`` for the bitvector type of this variant."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _ensure_key(self, key: Bits) -> bool:
        """Make sure ``key`` has a root-to-leaf path, splitting a node if needed.

        Returns True if the topology changed (the key was new).  Must be
        called *before* the per-node bit updates of the enclosing
        insert/append, so that the new constant bitvector is initialised with
        the sequence length prior to the update (paper Figure 3).
        """
        if self._root is None:
            self._root = WaveletTrieNode(label=key)
            self._path_cache.clear()
            return True
        node = self._root
        depth = 0
        while True:
            label = node.label
            remaining = key.suffix_from(depth)
            lcp = remaining.lcp_length(label)
            if node.is_leaf:
                if lcp == len(label) and lcp == len(remaining):
                    return False  # key already stored
                if lcp == len(label) or lcp == len(remaining):
                    raise BinarizationError(
                        "inserting this value would violate prefix-freeness"
                    )
                self._split_node(node, lcp, remaining)
                return True
            if lcp == len(label):
                if lcp == len(remaining):
                    raise BinarizationError(
                        "inserting this value would violate prefix-freeness"
                    )
                depth += len(label)
                bit = key[depth]
                depth += 1
                node = node.children[bit]
                continue
            if lcp == len(remaining):
                raise BinarizationError(
                    "inserting this value would violate prefix-freeness"
                )
            self._split_node(node, lcp, remaining)
            return True

    def _ensure_keys(self, keys: List[Bits]) -> None:
        """:meth:`_ensure_key` for every distinct key of ``keys``, all or nothing.

        A key that breaks prefix-freeness raises after the earlier keys'
        splits.  Their new leaves hold no rows, so each merges back
        (:meth:`_remove_leaf_if_last`), latest first, and the topology is
        the one before the call.
        """
        added: List[Bits] = []
        try:
            for key in dict.fromkeys(keys):
                if self._ensure_key(key):
                    added.append(key)
        except BinarizationError:
            for key in reversed(added):
                path = list(self._walk_for_update(key))
                if path:
                    self._remove_leaf_if_last(*path[-1])
                else:
                    self._reset_root()
            raise

    def _reset_root(self) -> None:
        """Empty the topology: no root, and no cached path into the old one."""
        self._root = None
        self._path_cache.clear()

    def _split_node(self, node: WaveletTrieNode, lcp: int, remaining: Bits) -> WaveletTrieNode:
        """Split ``node`` at label offset ``lcp``; add a new leaf for ``remaining``.

        The new internal node receives a constant bitvector of the length of
        the split node's subsequence (``Init``), exactly as in Figure 3 of the
        paper.  Returns the new internal node.
        """
        old_bit = node.label[lcp]
        new_bit = remaining[lcp]
        count = node.sequence_length(self._size)
        new_internal = WaveletTrieNode(
            label=node.label.prefix(lcp),
            bitvector=self._new_constant_bitvector(old_bit, count),
        )
        parent = node.parent
        parent_bit = node.parent_bit
        node.label = node.label.suffix_from(lcp + 1)
        new_leaf = WaveletTrieNode(label=remaining.suffix_from(lcp + 1))
        new_internal.attach(old_bit, node)
        new_internal.attach(new_bit, new_leaf)
        if parent is None:
            self._root = new_internal
            new_internal.parent = None
            new_internal.parent_bit = 0
        else:
            parent.attach(parent_bit, new_internal)
        self._path_cache.clear()
        return new_internal

    # ------------------------------------------------------------------
    def _remove_leaf_if_last(self, parent: WaveletTrieNode, leaf_bit: int) -> bool:
        """After a delete: drop the leaf and merge if it held the last occurrence.

        ``parent`` is the leaf's parent and ``leaf_bit`` its branching bit.
        Returns True if the topology changed.
        """
        if parent.bitvector.count(leaf_bit) > 0:
            return False
        sibling = parent.children[1 - leaf_bit]
        sibling.label = parent.label.appended(1 - leaf_bit) + sibling.label
        grandparent = parent.parent
        if grandparent is None:
            self._root = sibling
            sibling.parent = None
            sibling.parent_bit = 0
        else:
            grandparent.attach(parent.parent_bit, sibling)
        self._path_cache.clear()
        return True

    # ------------------------------------------------------------------
    def _binarise(self, values) -> List[Tuple[Any, Bits]]:
        """Route and binarise ``values`` without changing the trie.

        Returns one ``(route, key)`` pair per value, shared by equal routes:
        the route is ``(type(value), value)``, or the binarised key itself
        for an unhashable value, and the key is the binarised value.  A
        route the path cache holds takes its key from there, so only values
        the trie has not routed yet reach the codec.  Keying by type keeps
        ``True`` and ``1.0`` apart from ``1``: the codec sees each, as
        ``append`` would.  A value the codec rejects raises here, before any
        mutation.
        """
        cache = self._path_cache
        to_bits = self._codec.to_bits
        pairs: Dict[Any, Tuple[Any, Bits]] = {}
        routed: List[Tuple[Any, Bits]] = []
        for value in values:
            route = (type(value), value)
            try:
                pair = pairs.get(route)
            except TypeError:  # unhashable value: its key is its route
                key = to_bits(value)
                pair = (key, key)
            else:
                if pair is None:
                    entry = cache.get(route)
                    key = entry[0] if entry is not None else to_bits(value)
                    pair = pairs[route] = (route, key)
            routed.append(pair)
        return routed

    def _extend_batched(self, values) -> None:
        """Bulk ``Append`` of ``values`` (paper Append, batch-amortised).

        All or nothing: :meth:`_binarise` encodes the whole batch before
        :meth:`_extend_routed` makes the first mutation.
        """
        self._extend_routed(self._binarise(values))

    def _extend_routed(self, routed: List[Tuple[Any, Bits]]) -> None:
        """Append the rows of ``routed``, the pairs :meth:`_binarise` made.

        Each row's path comes from the path cache, or from one descent that
        fills it.  The rows' branching bits are buffered per node and
        flushed through the bitvectors' bulk ``extend`` whenever the
        Patricia topology is about to change (a previously unseen key needs
        a split, which must observe up-to-date bitvector counts) and once at
        the end.  So n appends of d distinct values cost at most d descents
        per topology epoch, none for a value the cache already routes, plus
        O(1) list appends per node level.
        """
        cache = self._path_cache
        buffers: Dict[WaveletTrieNode, List[int]] = {}
        pending = 0

        def flush() -> None:
            nonlocal pending
            for node, bits in buffers.items():
                node.bitvector.extend(bits)
            buffers.clear()
            self._size += pending
            pending = 0

        for route, key in routed:
            entry = cache.get(route)
            if entry is None:
                located = self._path_of(key)
                if located is not None:
                    path = located[1]  # the (node, branching_bit) ancestors
                else:
                    # Topology will change: flush so the split's Init sees
                    # the true subsequence lengths (the split clears the
                    # cache).
                    flush()
                    self._ensure_key(key)
                    path = list(self._walk_for_update(key))
                entry = cache[route] = (key, path)
            for node, bit in entry[1]:
                bits = buffers.get(node)
                if bits is None:
                    buffers[node] = [bit]
                else:
                    bits.append(bit)
            pending += 1
        flush()

    # ------------------------------------------------------------------
    def _walk_for_update(self, key: Bits):
        """Iterate ``(node, branching_bit)`` over the internal nodes of ``key``'s path.

        Used by the bit-update phase of append/insert after ``_ensure_key``.
        """
        node = self._root
        depth = 0
        while not node.is_leaf:
            bit = key[depth + len(node.label)]
            yield node, bit
            depth += len(node.label) + 1
            node = node.children[bit]
