"""Range analytics on the Wavelet Trie (paper Section 5).

The mixin implements, over any Wavelet Trie variant (the node interface of
:class:`~repro.core.node.WaveletTrieNode` and the host's prefix walk
``_prefix_node`` are all it needs):

* ``iter_range(l, r)`` -- sequential access, one amortised rank per traversed
  node instead of one per element;
* ``distinct_in_range(l, r)`` -- the distinct values (with their counts)
  occurring in a position range, optionally restricted to a prefix;
* ``range_majority(l, r)`` -- the majority element of a range, if any;
* ``frequent_in_range(l, r, threshold)`` -- the heuristic enumeration of all
  values occurring at least ``threshold`` times in the range;
* ``top_k_in_range(l, r, k)`` -- best-first enumeration of the ``k`` most
  frequent values of the range;
* ``range_count(value, l, r)`` / ``range_count_prefix(prefix, l, r)`` --
  counting within a range via two ranks.

Every method takes and returns application-level values (decoded through the
codec), so the analytics read naturally in the database-style examples.
"""

from __future__ import annotations

import heapq
from itertools import compress
from operator import not_
from typing import Any, Iterator, List, Optional, Tuple

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.core.interface import check_top_k
from repro.exceptions import OutOfBoundsError

__all__ = ["RangeQueryMixin"]


class RangeQueryMixin:
    """Section 5 algorithms; mixed into the Wavelet Trie base class."""

    # The host class provides these attributes / methods.
    _root = None
    _size = 0
    _codec = None

    # ------------------------------------------------------------------
    # Sequential access (paper Section 5, "Sequential access")
    # ------------------------------------------------------------------
    def iter_range(self, start: int, stop: int) -> Iterator[Any]:
        """The elements at positions ``[start, stop)``, in order.

        A top-down walk over arrays: every traversed internal node makes one
        ``rank_many`` call (the children's ranges) and one ``iter_range``
        call over its bits, which route the range's rows to its children.
        Rows are routed with array operations (numpy under the numpy kernel
        backend, lists otherwise) and each distinct leaf is decoded once, so
        extracting ``r - l`` strings costs one rank per traversed node plus
        O(1) amortised work per row and level, as in the paper's analysis.
        The range is materialised (one int per row) before it is returned.
        """
        self._check_range(start, stop)
        if start >= stop or self._root is None:
            return iter(())
        np = kernel.array_module()
        width = stop - start
        leaf_values: List[Any] = []
        if np is not None:
            leaf_of_row = np.empty(width, dtype=np.int64)
            rows = np.arange(width)
        else:
            leaf_of_row = [0] * width
            rows = list(range(width))
        stack = [(self._root, start, stop, Bits.empty(), rows)]
        while stack:
            node, lo, hi, prefix, rows = stack.pop()
            current = prefix + node.label
            if node.is_leaf:
                leaf = len(leaf_values)
                leaf_values.append(self._codec.from_bits(current))
                if np is not None:
                    leaf_of_row[rows] = leaf
                else:
                    for row in rows:
                        leaf_of_row[row] = leaf
                continue
            vector = node.bitvector
            left_lo, left_hi = vector.rank_many(0, (lo, hi))
            if np is not None:
                ones = np.fromiter(vector.iter_range(lo, hi), dtype=bool, count=hi - lo)
                left_rows, right_rows = rows[~ones], rows[ones]
            else:
                ones = list(vector.iter_range(lo, hi))
                right_rows = list(compress(rows, ones))
                left_rows = list(compress(rows, map(not_, ones)))
            if left_hi > left_lo:
                stack.append(
                    (node.children[0], left_lo, left_hi, current.appended(0), left_rows)
                )
            if hi - left_hi > lo - left_lo:
                stack.append(
                    (node.children[1], lo - left_lo, hi - left_hi,
                     current.appended(1), right_rows)
                )
        if np is not None:
            leaf_of_row = leaf_of_row.tolist()
        return iter([leaf_values[leaf] for leaf in leaf_of_row])

    # ------------------------------------------------------------------
    # Distinct values in range
    # ------------------------------------------------------------------
    def distinct_in_range(
        self, start: int, stop: int, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """Distinct values occurring in ``[start, stop)`` with their counts.

        If ``prefix`` is given, only values starting with it are reported
        (the traversal starts at the prefix node, e.g. "distinct hostnames in
        a time range" from the paper).  Values are returned in lexicographic
        (trie DFS) order of their binarised form.
        """
        self._check_range(start, stop)
        if start >= stop or self._root is None:
            return []
        node, lo, hi, accumulated = self._range_at_prefix(start, stop, prefix)
        if node is None or lo >= hi:
            return []
        return self._collect(node, lo, hi, accumulated, 1)

    def _range_at_prefix(self, start: int, stop: int, prefix: Any):
        """Map a position range at the root to the node of ``prefix``.

        Returns ``(node, lo, hi, accumulated_bits)``; ``node`` is None when no
        element of the sequence has the prefix.  The node is found by
        ``_prefix_node``, and both ends are mapped down its ancestors.
        """
        if prefix is None:
            return self._root, start, stop, Bits.empty()
        prefix_bits = self._codec.prefix_to_bits(prefix)
        located = self._prefix_node(prefix_bits)
        if located is None:
            return None, 0, 0, Bits.empty()
        node, ancestors = located
        lo, hi = start, stop
        depth = 0
        for ancestor, bit in ancestors:
            vector = ancestor.bitvector
            lo, hi = vector.rank(bit, lo), vector.rank(bit, hi)
            depth += len(ancestor.label) + 1
        # The prefix matched every label and branching bit above the node.
        return node, lo, hi, prefix_bits.prefix(depth)

    def count_distinct_in_range(self, start: int, stop: int, prefix: Any = None) -> int:
        """Number of distinct values in ``[start, stop)`` (optionally under a prefix)."""
        return len(self.distinct_in_range(start, stop, prefix))

    # ------------------------------------------------------------------
    # Range majority
    # ------------------------------------------------------------------
    def range_majority(
        self, start: int, stop: int, prefix: Any = None
    ) -> Optional[Tuple[Any, int]]:
        """The value occurring more than ``(stop - start) / 2`` times, if any.

        Returns ``(value, count)`` or None.  With ``prefix`` the search is
        restricted to (and the threshold computed over) the elements carrying
        the prefix.
        """
        self._check_range(start, stop)
        if start >= stop or self._root is None:
            return None
        node, lo, hi, accumulated = self._range_at_prefix(start, stop, prefix)
        if node is None or lo >= hi:
            return None
        threshold = (hi - lo) / 2
        current = accumulated
        while True:
            current = current + node.label
            if node.is_leaf:
                count = hi - lo
                if count > threshold:
                    return self._codec.from_bits(current), count
                return None
            vector = node.bitvector
            left_lo, left_hi = vector.rank_many(0, (lo, hi))
            zeros = left_hi - left_lo
            ones = (hi - lo) - zeros
            if zeros > threshold:
                node, lo, hi = node.children[0], left_lo, left_hi
                current = current.appended(0)
            elif ones > threshold:
                node, lo, hi = node.children[1], lo - left_lo, hi - left_hi
                current = current.appended(1)
            else:
                return None

    # ------------------------------------------------------------------
    # Frequent elements (threshold heuristic) and top-k
    # ------------------------------------------------------------------
    def frequent_in_range(
        self, start: int, stop: int, threshold: int, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """Values occurring at least ``threshold`` times in ``[start, stop)``.

        Implements the paper's branch-pruning heuristic: a subtree is explored
        only while its range still holds at least ``threshold`` elements.
        """
        self._check_range(start, stop)
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if start >= stop or self._root is None:
            return []
        node, lo, hi, accumulated = self._range_at_prefix(start, stop, prefix)
        if node is None or hi - lo < threshold:
            return []
        return self._collect(node, lo, hi, accumulated, threshold)

    def _collect(
        self, node, lo: int, hi: int, prefix: Bits, threshold: int
    ) -> List[Tuple[Any, int]]:
        """``(value, count)`` of the leaves under ``node`` whose count in
        ``[lo, hi)`` reaches ``threshold``, in trie DFS order (0-child
        first).  One ``rank_many`` per visited internal node; a subtree is
        entered only while its range holds at least ``threshold`` rows.
        """
        out: List[Tuple[Any, int]] = []
        stack = [(node, lo, hi, prefix)]
        while stack:
            node, lo, hi, prefix = stack.pop()
            current = prefix + node.label
            if node.is_leaf:
                if hi - lo >= threshold:
                    out.append((self._codec.from_bits(current), hi - lo))
                continue
            left_lo, left_hi = node.bitvector.rank_many(0, (lo, hi))
            right_lo, right_hi = lo - left_lo, hi - left_hi
            if right_hi - right_lo >= threshold:
                stack.append((node.children[1], right_lo, right_hi, current.appended(1)))
            if left_hi - left_lo >= threshold:
                stack.append((node.children[0], left_lo, left_hi, current.appended(0)))
        return out

    def top_k_in_range(
        self, start: int, stop: int, k: int, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """The ``k`` most frequent values in ``[start, stop)``, most frequent first.

        Best-first traversal: subtrees are expanded in decreasing order of
        their element count, so only the branches needed to certify the top-k
        are visited.  Ties are broken by trie (lexicographic) order.
        """
        self._check_range(start, stop)
        check_top_k(k)
        if k == 0 or start >= stop or self._root is None:
            return []
        node, lo, hi, accumulated = self._range_at_prefix(start, stop, prefix)
        if node is None or lo >= hi:
            return []
        # Entries are keyed (-count, path bits): the heap holds disjoint
        # subtrees, whose paths first differ at a branch bit inside both,
        # so equal counts pop in trie order and no two keys tie.
        heap: List[Tuple[int, Bits, Any, int, int]] = [
            (-(hi - lo), accumulated, node, lo, hi)
        ]
        results: List[Tuple[Any, int]] = []
        while heap and len(results) < k:
            negative_count, prefix_bits, node, lo, hi = heapq.heappop(heap)
            current = prefix_bits + node.label
            if node.is_leaf:
                results.append((self._codec.from_bits(current), -negative_count))
                continue
            left_lo, left_hi = node.bitvector.rank_many(0, (lo, hi))
            for bit, child_lo, child_hi in (
                (0, left_lo, left_hi), (1, lo - left_lo, hi - left_hi)
            ):
                if child_hi > child_lo:
                    heapq.heappush(
                        heap,
                        (child_lo - child_hi, current.appended(bit),
                         node.children[bit], child_lo, child_hi),
                    )
        return results

    # ------------------------------------------------------------------
    # Range counting
    # ------------------------------------------------------------------
    def range_count(self, value: Any, start: int, stop: int) -> int:
        """Occurrences of ``value`` within positions ``[start, stop)``."""
        self._check_range(start, stop)
        return self.rank(value, stop) - self.rank(value, start)

    def range_count_prefix(self, prefix: Any, start: int, stop: int) -> int:
        """Elements with ``prefix`` within positions ``[start, stop)``."""
        self._check_range(start, stop)
        return self.rank_prefix(prefix, stop) - self.rank_prefix(prefix, start)

    # ------------------------------------------------------------------
    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= self._size):
            raise OutOfBoundsError(
                f"range [{start}, {stop}) invalid for sequence of length {self._size}"
            )
