"""Fully dynamic RLE-compressed bitvector (paper Section 4.2, Theorem 4.9).

The paper adapts the dynamic bitvector of Makinen & Navarro by replacing gap
encoding + Elias delta with run-length encoding + Elias gamma, so that
``Init(b, n)`` -- creating a constant bitvector of arbitrary length -- takes
O(log n) time instead of Omega(n / w).  The underlying container is a balanced
search tree over the encoded runs.

This implementation keeps the same design: a randomised balanced tree (treap)
whose nodes are maximal runs ``(bit, length)``, augmented with subtree totals
of bits and ones.  All operations -- ``access``, ``rank``, ``select``,
``insert``, ``delete``, ``append``, ``init`` -- run in O(log r) expected time
where ``r`` is the number of runs, and the compressed payload is the sum of
the gamma code lengths of the runs, i.e. O(n H0) bits as in Theorem 4.9.

``Init(b, n)`` builds a single-node tree, which is exactly the property
(Remark 4.2) that makes the structure usable inside the dynamic Wavelet Trie.

Bulk paths (PR 2)
-----------------
Construction and bulk appends never go bit by bit: ``extend`` (the amortised
``Append`` of the paper) takes the maximal runs from
:func:`runs_of` -- one Python grouping pass over a list,
the word-level kernel for a :class:`Bits` payload -- and builds a treap over
them in O(r) with a right-spine Cartesian construction, then merges it in
O(log r).
``iter_runs(start, stop)`` descends the tree to the first overlapping run, so
a short slice near the end no longer pays for every run before it, and the
batch queries ``access_many``/``rank_many`` answer q sorted queries in one
in-order pass over the runs -- the primitive behind the dynamic Wavelet
Trie's batched Access/Rank.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bits.codes import gamma_code_length
from repro.bitvector.base import BitVector, validate_select_indexes
from repro.exceptions import OutOfBoundsError

__all__ = ["DynamicBitVector", "runs_of"]


def runs_of(bits: Union[Bits, Iterable[int]]) -> List[Tuple[int, int]]:
    """Return the maximal runs of ``bits`` as a list of ``(bit, length)`` pairs.

    A :class:`Bits` payload goes through the kernel's xor-shift boundary
    extraction.  Any other iterable is grouped in one Python pass, truthy
    items counting as 1 as in ``Bits.from_iterable``: on a 2-vCPU Xeon with
    Python 3.11 that pass beat packing a list into words and decoding the
    runs back, under both kernel backends, at every size from 1 to 10^6
    bits -- about 1 us against 5-17 us for 16 bits, the size a batched trie
    append hands one node.
    """
    if isinstance(bits, Bits):
        return kernel.runs_of_value(bits.value, len(bits))
    return _group_runs(bits)


def _group_runs(items: Iterable[object]) -> List[Tuple[int, int]]:
    """The maximal runs of the truth values of ``items``, in one pass."""
    runs: List[Tuple[int, int]] = []
    previous = -1
    length = 0
    for item in items:
        bit = 1 if item else 0
        if bit == previous:
            length += 1
        else:
            if length:
                runs.append((previous, length))
            previous = bit
            length = 1
    if length:
        runs.append((previous, length))
    return runs


class _RunNode:
    """A treap node holding one maximal run of equal bits."""

    __slots__ = (
        "bit",
        "length",
        "priority",
        "left",
        "right",
        "sub_length",
        "sub_ones",
        "sub_runs",
    )

    def __init__(self, bit: int, length: int, priority: float) -> None:
        self.bit = bit
        self.length = length
        self.priority = priority
        self.left: Optional["_RunNode"] = None
        self.right: Optional["_RunNode"] = None
        self.sub_length = length
        self.sub_ones = length if bit else 0
        self.sub_runs = 1

    def update(self) -> None:
        """Recompute subtree aggregates from children."""
        length = self.length
        ones = self.length if self.bit else 0
        runs = 1
        if self.left is not None:
            length += self.left.sub_length
            ones += self.left.sub_ones
            runs += self.left.sub_runs
        if self.right is not None:
            length += self.right.sub_length
            ones += self.right.sub_ones
            runs += self.right.sub_runs
        self.sub_length = length
        self.sub_ones = ones
        self.sub_runs = runs


def _merge(a: Optional[_RunNode], b: Optional[_RunNode]) -> Optional[_RunNode]:
    """Merge two treaps, all positions of ``a`` preceding those of ``b``."""
    if a is None:
        return b
    if b is None:
        return a
    if a.priority > b.priority:
        a.right = _merge(a.right, b)
        a.update()
        return a
    b.left = _merge(a, b.left)
    b.update()
    return b


def _split(
    node: Optional[_RunNode], pos: int
) -> Tuple[Optional[_RunNode], Optional[_RunNode]]:
    """Split a treap into (first ``pos`` bits, the rest), cutting runs if needed."""
    if node is None:
        return None, None
    left_len = node.left.sub_length if node.left is not None else 0
    if pos <= left_len:
        left, right = _split(node.left, pos)
        node.left = right
        node.update()
        return left, node
    if pos >= left_len + node.length:
        left, right = _split(node.right, pos - left_len - node.length)
        node.right = left
        node.update()
        return node, right
    # The cut falls inside this node's run: split the run into two nodes.  The
    # right half *inherits* the split node's priority -- it takes the node's
    # place at the root of the right subtree, so a fresh random priority here
    # would violate the max-heap invariant the O(log r) bounds depend on.
    cut = pos - left_len
    right_part = _RunNode(node.bit, node.length - cut, node.priority)
    right_part.left = None
    right_part.right = node.right
    right_part.update()
    node.length = cut
    node.right = None
    node.update()
    return node, right_part


class DynamicBitVector(BitVector):
    """Dynamic bitvector over RLE runs in a balanced (treap) search tree."""

    __slots__ = ("_root", "_rng")

    def __init__(self, bits: Iterable[int] = (), seed: int = 0x5EED) -> None:
        self._rng = random.Random(seed)
        self._root: Optional[_RunNode] = None
        self.extend(bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def init_run(cls, bit: int, length: int, seed: int = 0x5EED) -> "DynamicBitVector":
        """``Init(b, n)``: a constant bitvector built in O(1) nodes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        vector = cls(seed=seed)
        if length:
            vector._root = _RunNode(1 if bit else 0, length, vector._rng.random())
        return vector

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, int]], seed: int = 0x5EED) -> "DynamicBitVector":
        """Build from an iterable of ``(bit, length)`` runs in O(r).

        The runs are normalised (zero lengths dropped, adjacent equal bits
        coalesced) and loaded with the linear treap build -- the bulk
        counterpart of the paper's ``Init`` for multi-run content.
        """
        vector = cls(seed=seed)
        vector._root = vector._build_treap(vector._normalise_runs(runs))
        return vector

    @classmethod
    def from_bits(cls, bits: Bits, seed: int = 0x5EED) -> "DynamicBitVector":
        """Build from a :class:`Bits` payload; runs come from the kernel."""
        return cls(bits, seed=seed)

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._root.sub_length if self._root is not None else 0

    @property
    def ones(self) -> int:
        return self._root.sub_ones if self._root is not None else 0

    @property
    def run_count(self) -> int:
        """Number of run nodes currently in the tree (O(1), from aggregates)."""
        return self._root.sub_runs if self._root is not None else 0

    def tree_depth(self) -> int:
        """Height of the run treap (O(log r) expected when balanced).

        Exposed for the balance regression tests: the heap invariant on
        priorities is what keeps this logarithmic under update churn.
        """
        depth = 0
        stack: List[Tuple[Optional[_RunNode], int]] = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            if node is None:
                continue
            if level > depth:
                depth = level
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        return depth

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        self._check_pos(pos)
        node = self._root
        while node is not None:
            left_len = node.left.sub_length if node.left is not None else 0
            if pos < left_len:
                node = node.left
            elif pos < left_len + node.length:
                return node.bit
            else:
                pos -= left_len + node.length
                node = node.right
        raise AssertionError("aggregates inconsistent")  # pragma: no cover

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        ones = 0
        consumed = 0
        node = self._root
        remaining = pos
        while node is not None and remaining > 0:
            left_len = node.left.sub_length if node.left is not None else 0
            if remaining <= left_len:
                node = node.left
                continue
            # Take all of the left subtree.
            if node.left is not None:
                ones += node.left.sub_ones
            remaining -= left_len
            consumed += left_len
            take = min(remaining, node.length)
            if node.bit:
                ones += take
            remaining -= take
            consumed += take
            if remaining > 0:
                node = node.right
            else:
                break
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        total = self.count(bit)
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        node = self._root
        position = 0
        remaining = idx
        while node is not None:
            left_len = node.left.sub_length if node.left is not None else 0
            left_ones = node.left.sub_ones if node.left is not None else 0
            left_count = left_ones if bit else left_len - left_ones
            if remaining < left_count:
                node = node.left
                continue
            remaining -= left_count
            position += left_len
            node_count = node.length if node.bit == bit else 0
            if remaining < node_count:
                return position + remaining
            remaining -= node_count
            position += node.length
            node = node.right
        raise AssertionError("aggregates inconsistent")  # pragma: no cover

    def iter_runs(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(bit, length)`` pieces covering positions ``[start, stop)``.

        Descends the tree to the run containing ``start`` (O(log r), skipping
        whole subtrees by their aggregate lengths) and then walks in order,
        truncating the first and last runs to the range -- so a 1-bit slice at
        the end costs O(log r), not O(r).
        """
        self._check_range(start, stop)
        remaining = stop - start
        if remaining <= 0:
            return
        stack: List[_RunNode] = []
        node = self._root
        skip = start
        while node is not None:
            left_len = node.left.sub_length if node.left is not None else 0
            if skip < left_len:
                stack.append(node)
                node = node.left
                continue
            skip -= left_len
            if skip < node.length:
                take = min(node.length - skip, remaining)
                yield node.bit, take
                remaining -= take
                if remaining <= 0:
                    return
                node = node.right
                break
            skip -= node.length
            node = node.right
        # In-order continuation over the right subtree and stacked ancestors.
        while True:
            while node is not None:
                stack.append(node)
                node = node.left
            if not stack:
                return
            node = stack.pop()
            take = min(node.length, remaining)
            yield node.bit, take
            remaining -= take
            if remaining <= 0:
                return
            node = node.right

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        for bit, length in self.iter_runs(start, stop):
            yield from repeat(bit, length)

    # ------------------------------------------------------------------
    # Batch query paths (amortise the tree walk over sorted positions)
    # ------------------------------------------------------------------
    def _batch_prefers_scalar(self, queries: int) -> bool:
        """True when q O(log r) tree walks beat one O(r + q log q) runs pass.

        Uses the O(1) ``sub_runs`` aggregate: the runs pass touches up to r
        nodes, the scalar walks about q * log2(r), so small batches on
        run-heavy vectors fall back to the scalar loop.
        """
        run_count = self._root.sub_runs if self._root is not None else 0
        return queries * max(1, run_count.bit_length()) < run_count

    def access_many(self, positions: Sequence[int]) -> List[int]:
        """Bits at each of ``positions`` in one in-order pass over the runs.

        Sorts the positions once and advances a single runs iterator, so q
        queries cost amortised O(r + q log q) instead of q O(log r) tree
        walks -- the fast path behind the dynamic Wavelet Trie's batched
        Access.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        if not positions:
            return []
        length = len(self)
        if min(positions) < 0 or max(positions) >= length:
            bad = next(p for p in positions if not 0 <= p < length)
            raise OutOfBoundsError(
                f"position {bad} out of range for length {length}"
            )
        if self._batch_prefers_scalar(len(positions)):
            return [self.access(pos) for pos in positions]
        order = sorted(range(len(positions)), key=positions.__getitem__)
        out = [0] * len(positions)
        runs = self.runs()
        run_bit = 0
        run_end = 0
        for index in order:
            pos = positions[index]
            while pos >= run_end:
                run_bit, run_length = next(runs)
                run_end += run_length
            out[index] = run_bit
        return out

    def rank_many(self, bit: int, positions: Sequence[int]) -> List[int]:
        """``rank(bit, pos)`` for each position in one in-order runs pass.

        Amortised O(r + q log q) for q queries (sort once, advance a single
        runs iterator), against q O(log r) tree walks for the scalar loop.
        """
        self._check_bit(bit)
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        if not positions:
            return []
        length = len(self)
        if min(positions) < 0 or max(positions) > length:
            bad = next(p for p in positions if not 0 <= p <= length)
            raise OutOfBoundsError(
                f"rank position {bad} out of range for length {length}"
            )
        if self._batch_prefers_scalar(len(positions)):
            return [self.rank(bit, pos) for pos in positions]
        order = sorted(range(len(positions)), key=positions.__getitem__)
        out = [0] * len(positions)
        runs = self.runs()
        run_bit = 0
        run_start = 0
        run_end = 0
        ones_before = 0  # ones strictly before run_start
        for index in order:
            pos = positions[index]
            while pos > run_end:
                if run_bit:
                    ones_before += run_end - run_start
                run_bit, run_length = next(runs)
                run_start = run_end
                run_end += run_length
            ones = ones_before + (pos - run_start if run_bit else 0)
            out[index] = ones if bit else pos - ones
        return out

    def select_many(self, bit: int, indexes: Sequence[int]) -> List[int]:
        """``select(bit, idx)`` for each index, batch-amortised.

        The select-side twin of :meth:`rank_many`: the indexes are sorted
        once and a single in-order pass over the runs answers them all, so q
        queries cost amortised O(r + q log q) instead of q O(log r) tree
        walks.  Small batches on run-heavy vectors fall back to the scalar
        walks (see :meth:`_batch_prefers_scalar`).  This is the primitive
        behind the dynamic Wavelet Trie's batched Select.
        """
        self._check_bit(bit)
        indexes = validate_select_indexes(indexes, self.count(bit), bit)
        if not indexes:
            return []
        if self._batch_prefers_scalar(len(indexes)):
            return [self.select(bit, idx) for idx in indexes]
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        out = [0] * len(indexes)
        runs = self.runs()
        run_bit = 0
        run_length = 0
        position = 0  # start position of the current run
        seen = 0  # occurrences of `bit` before the current run
        for index in order:
            idx = indexes[index]
            while run_bit != bit or seen + run_length <= idx:
                if run_bit == bit:
                    seen += run_length
                position += run_length
                run_bit, run_length = next(runs)
            out[index] = position + (idx - seen)
        return out

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, pos: int, bit: int) -> None:
        """Insert ``bit`` so that it becomes the bit at position ``pos``."""
        self._check_bit(bit)
        if not 0 <= pos <= len(self):
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {len(self)}"
            )
        self.insert_run(pos, bit, 1)

    def insert_run(self, pos: int, bit: int, length: int) -> None:
        """Insert ``length`` copies of ``bit`` starting at position ``pos``."""
        self._check_bit(bit)
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return
        if not 0 <= pos <= len(self):
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {len(self)}"
            )
        left, right = _split(self._root, pos)
        left = self._absorb_or_append(left, bit, length)
        self._root = self._coalesced_merge(left, right)

    def insert_many(self, pos: int, bits: Union[Bits, Iterable[int]]) -> None:
        """Insert every bit of ``bits``, the first landing at position ``pos``.

        Bulk ``Insert``: the payload is decomposed into maximal runs by
        :func:`runs_of`, the treap is split *once* at
        ``pos``, a treap over the new runs is bulk-built in O(r_new) with the
        right-spine construction, and the two merges (with boundary
        coalescing) finish in O(log r) -- amortised O(k + r_new + log r) for
        k bits, instead of k root-to-leaf insertions costing O(k log r).
        """
        self.insert_runs(pos, runs_of(bits))

    def insert_runs(self, pos: int, runs: Iterable[Tuple[int, int]]) -> None:
        """Insert ``(bit, length)`` runs starting at position ``pos``.

        One O(log r) split, one O(r_new) treap build, two coalescing merges.
        """
        if not 0 <= pos <= len(self):
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {len(self)}"
            )
        tree = self._build_treap(self._normalise_runs(runs))
        if tree is None:
            return
        left, right = _split(self._root, pos)
        left = self._coalesced_merge(left, tree)
        self._root = self._coalesced_merge(left, right)

    def append(self, bit: int) -> None:
        """Append one bit at the end (the ``Append`` primitive)."""
        self.append_run(bit, 1)

    def append_run(self, bit: int, length: int) -> None:
        """Append ``length`` copies of ``bit`` at the end."""
        self._check_bit(bit)
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return
        self._root = self._absorb_or_append(self._root, bit, length)

    def delete(self, pos: int) -> int:
        """Delete the bit at position ``pos`` and return its value."""
        self._check_pos(pos)
        left, rest = _split(self._root, pos)
        middle, right = _split(rest, 1)
        assert middle is not None
        bit = middle.bit
        self._root = self._coalesced_merge(left, right)
        return bit

    def extend(self, bits: Union[Bits, Iterable[int]]) -> None:
        """Append every bit of ``bits`` (bulk ``Append``).

        Never bit by bit down the treap: :func:`runs_of`
        groups a list in one Python pass (truthy values count as 1, as in
        ``Bits.from_iterable``) and decomposes a :class:`Bits` payload with
        the word-level kernel; either way a treap over the new runs is built
        in O(r) and merged at the end in O(log r), instead of n per-bit walks
        down the right spine.
        """
        self.append_runs(runs_of(bits))

    def append_bits(self, bits: Bits) -> None:
        """Append a whole :class:`Bits` payload (alias of bulk :meth:`extend`)."""
        self.extend(bits)

    def append_runs(self, runs: Iterable[Tuple[int, int]]) -> None:
        """Append ``(bit, length)`` runs in O(r + log r) total."""
        tree = self._build_treap(self._normalise_runs(runs))
        if tree is None:
            return
        if self._root is None:
            self._root = tree
        else:
            self._root = self._coalesced_merge(self._root, tree)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise_runs(runs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Drop empty runs, validate, and coalesce adjacent equal-bit runs.

        Bits are validated strictly (as ``append_run`` does); iterables of
        truthy values are normalised upstream by :func:`runs_of`.
        """
        out: List[Tuple[int, int]] = []
        for bit, length in runs:
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            if length < 0:
                raise ValueError("run length must be non-negative")
            if length == 0:
                continue
            if out and out[-1][0] == bit:
                out[-1] = (bit, out[-1][1] + length)
            else:
                out.append((bit, length))
        return out

    def _build_treap(self, runs: Sequence[Tuple[int, int]]) -> Optional[_RunNode]:
        """Linear treap build from normalised runs (right-spine Cartesian).

        Each run gets a fresh random priority; nodes are appended on the
        right spine, popping spine nodes of smaller priority into the new
        node's left subtree.  Aggregates are patched exactly when a node's
        subtree becomes final, so the whole build is O(r).
        """
        spine: List[_RunNode] = []
        rand = self._rng.random
        for bit, length in runs:
            node = _RunNode(bit, length, rand())
            last: Optional[_RunNode] = None
            while spine and spine[-1].priority < node.priority:
                last = spine.pop()
                last.update()
            node.left = last
            if spine:
                spine[-1].right = node
            spine.append(node)
        for node in reversed(spine):
            node.update()
        return spine[0] if spine else None

    def _absorb_or_append(
        self, tree: Optional[_RunNode], bit: int, length: int
    ) -> Optional[_RunNode]:
        """Append a run at the end of ``tree``, extending its last run when possible."""
        if tree is None:
            return _RunNode(bit, length, self._rng.random())
        # Walk the rightmost spine; if the last run has the same bit, extend it
        # in place (aggregates along the spine are patched on the way back).
        last = tree
        spine: List[_RunNode] = []
        while last.right is not None:
            spine.append(last)
            last = last.right
        if last.bit == bit:
            last.length += length
            last.update()
            for node in reversed(spine):
                node.update()
            return tree
        return _merge(tree, _RunNode(bit, length, self._rng.random()))

    def _coalesced_merge(
        self, left: Optional[_RunNode], right: Optional[_RunNode]
    ) -> Optional[_RunNode]:
        """Merge two treaps, coalescing the boundary runs if they carry the same bit."""
        if left is None or right is None:
            return _merge(left, right)
        last_bit = self._last_run_bit(left)
        first_bit, first_len = self._first_run(right)
        if last_bit == first_bit:
            right = self._pop_first_run(right, first_len)
            left = self._absorb_or_append(left, first_bit, first_len)
        return _merge(left, right)

    @staticmethod
    def _last_run_bit(tree: _RunNode) -> int:
        node = tree
        while node.right is not None:
            node = node.right
        return node.bit

    @staticmethod
    def _first_run(tree: _RunNode) -> Tuple[int, int]:
        node = tree
        while node.left is not None:
            node = node.left
        return node.bit, node.length

    def _pop_first_run(self, tree: _RunNode, first_len: int) -> Optional[_RunNode]:
        """Remove the first run (of known length) from ``tree``."""
        _, right = _split(tree, first_len)
        return right

    def _runs_from(self, node: Optional[_RunNode]) -> Iterator[Tuple[int, int]]:
        """In-order traversal of the run nodes (iterative, avoids recursion limits)."""
        stack: List[_RunNode] = []
        current = node
        while stack or current is not None:
            while current is not None:
                stack.append(current)
                current = current.left
            current = stack.pop()
            yield current.bit, current.length
            current = current.right

    def runs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the stored ``(bit, length)`` runs in order."""
        return self._runs_from(self._root)

    def to_list(self) -> List[int]:
        out: List[int] = []
        for bit, length in self.runs():
            out.extend([bit] * length)
        return out

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Compressed payload: gamma codes of the runs plus one bit per run.

        This is the RLE+gamma size of Theorem 4.9 -- the quantity the space
        experiments report.  The pointer overhead of the balanced tree is
        reported separately by :meth:`overhead_bits`.
        """
        total = 0
        for _, length in self.runs():
            total += gamma_code_length(length) + 1
        return total + 64

    def overhead_bits(self, pointer_bits: int = 64) -> int:
        """Pointer/bookkeeping overhead of the balanced tree (engineering cost)."""
        # left, right, priority, lengths and aggregates: ~6 words per node.
        return self.run_count * 6 * pointer_bits
