"""Baseline 3: a B-tree index over ``(string, position)`` pairs.

This is how databases traditionally index a column (paper Section 1,
"Related work", approach (3)): the concatenation ``(s_i, i)`` is stored in a
B-tree (here a textbook in-memory B-tree built from scratch), which supports
``Select``/``SelectPrefix`` by range scans; ``Access`` needs a separate
explicit copy of the sequence, and ``Rank`` degenerates to counting within a
key range scan.  Space is far from the entropy bound -- every string is
stored again in the index -- which is exactly the gap the Wavelet Trie closes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.interface import IndexedStringSequence, check_select_prefix_index
from repro.exceptions import OutOfBoundsError

__all__ = ["BTreeSequenceIndex", "BTree"]


class _BTreeNode:
    __slots__ = ("keys", "children")

    def __init__(self, keys=None, children=None) -> None:
        self.keys: List[Tuple] = keys if keys is not None else []
        self.children: List["_BTreeNode"] = children if children is not None else []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """A classic in-memory B-tree storing orderable keys (no duplicates).

    Minimum degree ``t``: every node except the root holds between ``t - 1``
    and ``2t - 1`` keys.  Supports insertion, membership, deletion-free usage
    and ordered range scans -- everything the sequence-index baseline needs.
    """

    def __init__(self, min_degree: int = 16) -> None:
        if min_degree < 2:
            raise ValueError("min_degree must be at least 2")
        self._t = min_degree
        self._root = _BTreeNode()
        self._count = 0
        self._height = 1

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        return self._height

    # ------------------------------------------------------------------
    def insert(self, key) -> None:
        """Insert ``key`` (assumed not already present)."""
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _BTreeNode(children=[root])
            self._split_child(new_root, 0)
            self._root = new_root
            self._height += 1
            root = new_root
        self._insert_non_full(root, key)
        self._count += 1

    def _split_child(self, parent: _BTreeNode, index: int) -> None:
        t = self._t
        child = parent.children[index]
        sibling = _BTreeNode(
            keys=child.keys[t:],
            children=child.children[t:] if not child.is_leaf else [],
        )
        middle = child.keys[t - 1]
        child.keys = child.keys[: t - 1]
        if not child.is_leaf:
            child.children = child.children[:t]
        parent.keys.insert(index, middle)
        parent.children.insert(index + 1, sibling)

    def _insert_non_full(self, node: _BTreeNode, key) -> None:
        while True:
            if node.is_leaf:
                position = self._lower_bound(node.keys, key)
                node.keys.insert(position, key)
                return
            position = self._lower_bound(node.keys, key)
            child = node.children[position]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, position)
                if key > node.keys[position]:
                    position += 1
                child = node.children[position]
            node = child

    @staticmethod
    def _lower_bound(keys: List, key) -> int:
        low, high = 0, len(keys)
        while low < high:
            mid = (low + high) // 2
            if keys[mid] < key:
                low = mid + 1
            else:
                high = mid
        return low

    # ------------------------------------------------------------------
    def __contains__(self, key) -> bool:
        node = self._root
        while True:
            position = self._lower_bound(node.keys, key)
            if position < len(node.keys) and node.keys[position] == key:
                return True
            if node.is_leaf:
                return False
            node = node.children[position]

    def iterate_from(self, key) -> Iterator:
        """Yield all stored keys ``>= key`` in increasing order."""
        stack: List[Tuple[_BTreeNode, int]] = []
        node = self._root
        while True:
            position = self._lower_bound(node.keys, key)
            stack.append((node, position))
            if node.is_leaf:
                break
            node = node.children[position]
        while stack:
            node, position = stack.pop()
            if node.is_leaf:
                for index in range(position, len(node.keys)):
                    yield node.keys[index]
                continue
            if position < len(node.keys):
                yield node.keys[position]
                stack.append((node, position + 1))
                # Descend into the child to the right of the yielded key.
                child = node.children[position + 1]
                while True:
                    stack.append((child, 0))
                    if child.is_leaf:
                        break
                    child = child.children[0]

    def node_count(self) -> int:
        """Total number of B-tree nodes."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count


class BTreeSequenceIndex(IndexedStringSequence):
    """Sequence of strings indexed by a B-tree of ``(string, position)`` pairs."""

    def __init__(self, values: Iterable[str] = (), min_degree: int = 16) -> None:
        self._values: List[str] = []
        self._tree = BTree(min_degree=min_degree)
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def access(self, pos: int) -> str:
        """Access needs the explicit copy of the sequence (the index cannot serve it)."""
        if not 0 <= pos < len(self._values):
            raise OutOfBoundsError(f"position {pos} out of range")
        return self._values[pos]

    def rank(self, value: str, pos: int) -> int:
        """Counting scan over the index entries of ``value`` (no O(1) rank)."""
        self._check_rank_pos(pos)
        count = 0
        for key_value, key_pos in self._tree.iterate_from((value, -1)):
            if key_value != value:
                break
            if key_pos < pos:
                count += 1
        return count

    def select(self, value: str, idx: int) -> int:
        seen = 0
        for key_value, key_pos in self._tree.iterate_from((value, -1)):
            if key_value != value:
                break
            if seen == idx:
                return key_pos
            seen += 1
        raise OutOfBoundsError(
            f"select({value!r}, {idx}) out of range: only {seen} occurrences"
        )

    def rank_prefix(self, prefix: str, pos: int) -> int:
        self._check_rank_pos(pos)
        count = 0
        for key_value, key_pos in self._tree.iterate_from((prefix, -1)):
            if not key_value.startswith(prefix):
                break
            if key_pos < pos:
                count += 1
        return count

    def select_prefix(self, prefix: str, idx: int) -> int:
        """Index order is (string, position); the idx-th *positional* match needs a scan."""
        positions: List[int] = []
        for key_value, key_pos in self._tree.iterate_from((prefix, -1)):
            if not key_value.startswith(prefix):
                break
            positions.append(key_pos)
        positions.sort()
        check_select_prefix_index(prefix, idx, len(positions))
        return positions[idx]

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= len(self._values):
            raise OutOfBoundsError(f"position {pos} out of range")

    # ------------------------------------------------------------------
    def append(self, value: str) -> None:
        position = len(self._values)
        self._values.append(value)
        self._tree.insert((value, position))

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Explicit sequence copy + one index entry (string + position) per element."""
        sequence_bits = sum(len(v.encode("utf-8")) * 8 + 64 for v in self._values)
        index_bits = sum(len(v.encode("utf-8")) * 8 + 2 * 64 for v in self._values)
        node_overhead = self._tree.node_count() * 4 * 64
        return sequence_bits + index_bits + node_overhead

    @property
    def tree_height(self) -> int:
        """Height of the underlying B-tree."""
        return self._tree.height
