"""The static Wavelet Trie (paper Section 3, Theorem 3.7).

Built once from a sequence of values; supports ``Access``, ``Rank``,
``Select``, ``RankPrefix``, ``SelectPrefix`` and the Section 5 range
analytics in ``O(|s| + h_s)`` time, with node bitvectors stored in RRR
compressed form so the total space is ``LT(Sset) + n H0(S)`` plus lower-order
terms.

The trie stores exactly Theorem 3.7's components, as its frozen image
holds them: the preorder internal flags (a full binary tree needs only
these, ``2|Sset| - 1`` bits), the labels concatenated in preorder and
delimited by Elias-Fano partial sums, and every internal node's bits
concatenated in preorder into one static bitvector, delimited the same way.
A build (:func:`~repro.core.builder.build_static_trie`), a frozen tier
(:class:`~repro.core.tiers.TrieFreezer`) and an opened image all hand it
these components, and one integer pass over the flags
(:func:`check_preorder_tree`) checks them and tabulates each internal
node's 1-child and the ones before each window.

The pass keeps its two tables packed at the width of their largest entry.

Queries run the one engine every Wavelet Trie runs
(:class:`~repro.core.base.WaveletTrieBase`) over node handles.  A handle
is made the first time a walk reaches its node: it slices its label out
of the concatenation and, for an internal node, makes its
:class:`~repro.bitvector.window.BitvectorWindow` onto the shared vector.
The trie keeps every handle it made, so later walks cost what walks over
pointer nodes cost, and an open makes none.  Batches (``access_many``,
``inverse_select_many``, ``rank_each``) take one per-depth descent
instead, at most ``height`` calls on the shared vector.  The wavelet trees
of :mod:`repro.wavelet` are this trie over a codec.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.kernel import SMALL_BATCH
from repro.bits.packed import PackedIntVector
from repro.bitvector.base import batch_min_max, normalize_batch
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.window import BitvectorWindow
from repro.core.base import WaveletTrieBase
from repro.core.builder import StaticTrieLayout, build_static_trie, distinct_codes
from repro.core.node import WaveletTrieNode
from repro.exceptions import (
    ImmutableStructureError,
    OutOfBoundsError,
    SerializationError,
)
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["BITVECTOR_KINDS", "WaveletTrie", "check_preorder_tree", "flags_of_words"]

#: The static bitvectors a trie's internal nodes can use, by kind name.
BITVECTOR_KINDS = {
    "rrr": RRRBitVector,
    "plain": PlainBitVector,
}

#: Items from which :meth:`WaveletTrie.rank_each` descends on numpy arrays
#: instead of lists.  Timed on the 3,000-URL BWT tree (plain nodes, numpy,
#: 2-vCPU host, three sweeps), the array descent cost 1.4-1.7x the list
#: one at 32 items, 0.98-1.44x at 64, 0.76-1.0x at 128 and 0.53-0.65x at
#: 256, falling to 0.27-0.30x at 2,048 (a 1,024-pattern ``count_many``).
#: 256 is the first width where the arrays won by a third in every sweep.
_ARRAY_WALKS = 256


def flags_of_words(words, count: int) -> List[bool]:
    """The first ``count`` bits of a packed word sequence, as booleans."""
    if len(words) != -(-count // 64):
        raise SerializationError(
            f"a flag section holds {len(words)} words for {count} nodes"
        )
    if not count:
        return []
    digits = format(kernel.unpack_value(words, count), f"0{count}b")
    return [digit == "1" for digit in digits]


def check_preorder_tree(
    flags: Sequence[int],
    size: int,
    window_ones: Callable[[int, int, int], int],
    where: str,
) -> Tuple[array, int]:
    """Check that ``flags`` lay one full binary tree over ``size`` rows.

    ``flags`` marks the nodes in preorder, 0-child first (1 internal, 0
    leaf).  The root receives ``size`` rows.  Internal node ``r`` (the
    ``r``-th internal node in preorder) owns the next window of the shared
    node vector: its windows tile the vector in preorder, so the window
    starts where the one before it ends and holds one bit per row that
    reaches the node.  ``window_ones(r, start, rows)`` returns the ones in
    that window, raising :class:`SerializationError` when the vector does
    not hold it.  The 0-child receives the window's zeros and the 1-child
    its ones, and every leaf must receive at least one row.

    One integer pass; returns ``(one_child, covered)``: each internal
    node's 1-child as a preorder index, and the bits the windows cover.
    """
    one_child = array("q")
    covered = 0
    if not flags:
        if size:
            raise SerializationError(f"{where}: stored size {size} for no nodes")
        return one_child, covered
    # The subtrees still to come, as (rows, the internal node whose
    # 1-child it is, or -1), nearest first.
    pending = [(size, -1)]
    for index, flag in enumerate(flags):
        if not pending:
            raise SerializationError(f"{where}: the node flags describe no tree")
        rows, parent = pending.pop()
        if parent >= 0:
            one_child[parent] = index
        if flag:
            node = len(one_child)
            ones = window_ones(node, covered, rows)
            covered += rows
            one_child.append(0)
            pending.append((ones, node))
            pending.append((rows - ones, -1))
        elif rows < 1:
            raise SerializationError(f"{where}: leaf {index} receives no rows")
    if pending:
        raise SerializationError(f"{where}: the node flags end inside the tree")
    return one_child, covered


class _Node:
    """One node of a static trie behind the node interface the engine walks.

    Has the attributes of :class:`~repro.core.node.WaveletTrieNode` that
    queries read: ``label``, ``bitvector`` (None on leaves), ``is_leaf``,
    ``children[bit]``, ``parent``, ``parent_bit`` and ``sequence_length``.
    A leaf's handle is complete when made; an internal node's is made as a
    :class:`_NewNode`, whose ``children`` is made on its first read.
    """

    __slots__ = (
        "label", "bitvector", "children", "parent", "parent_bit",
        "_trie", "_index", "_end", "_rank",
    )

    is_leaf = WaveletTrieNode.is_leaf
    sequence_length = WaveletTrieNode.sequence_length

    def __init__(
        self, trie: "WaveletTrie", index: int, end: int, rank: int,
        parent: Optional["_Node"], parent_bit: int,
    ) -> None:
        # Preorder node ``index``, whose subtree ends before node ``end``;
        # an internal node is the ``rank``-th internal node in preorder.
        self._trie = trie
        self._index = index
        self._end = end
        self._rank = rank
        self.parent = parent
        self.parent_bit = parent_bit
        self.label = trie._label(index)
        if end - index > 1:
            self.bitvector = trie._window(rank)
        else:
            self.bitvector = None
            self.children = [None, None]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"WaveletTrie node {self._index} ({kind}, label='{self.label.to01()}')"


class _NewNode(_Node):
    """An internal node's handle whose ``children`` no walk has read yet.

    The first read makes both children's handles, keeps them and turns
    the handle into a plain :class:`_Node`: a class with ``__getattr__``
    reads every attribute, slots included, about 4x slower on CPython.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "children":
            raise AttributeError(name)
        self.children = children = self._trie._children_of(self)
        self.__class__ = _Node
        return children


def _handle(
    trie: "WaveletTrie", index: int, end: int, rank: int,
    parent: Optional[_Node], parent_bit: int,
) -> _Node:
    """The handle of preorder node ``index``: a leaf's is a plain
    :class:`_Node` from the start, so no walk reads a leaf through
    ``__getattr__``."""
    kind = _NewNode if end - index > 1 else _Node
    return kind(trie, index, end, rank, parent, parent_bit)


class WaveletTrie(WaveletTrieBase):
    """Static compressed indexed sequence of strings.

    Parameters
    ----------
    values:
        The sequence to index.  Strings by default; other types need a
        matching ``codec``.
    codec:
        Binarisation codec (defaults to UTF-8 + NUL terminator).
    bitvector:
        Which static bitvector to store in the internal nodes: ``"rrr"``
        (default, the paper's choice) or ``"plain"``.

    Examples
    --------
    >>> wt = WaveletTrie(["/a/x", "/a/y", "/b", "/a/x"])
    >>> wt.access(0)
    '/a/x'
    >>> wt.rank("/a/x", 4)
    2
    >>> wt.select_prefix("/a", 2)
    3
    """

    #: Each leaf's value in preorder, once :meth:`_name_leaves` named them.
    _leaves: Optional[List[Any]] = None
    _int_leaves = False

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        bitvector: str = "rrr",
    ) -> None:
        super().__init__(codec)
        if bitvector not in BITVECTOR_KINDS:
            raise ValueError(
                f"unknown bitvector kind {bitvector!r}; "
                f"expected one of {sorted(BITVECTOR_KINDS)}"
            )
        self._bitvector_kind = bitvector
        self._build(values, self._codec.to_bits)

    # ------------------------------------------------------------------
    @classmethod
    def from_bits_sequence(
        cls,
        encoded: Sequence[Bits],
        codec: Optional[StringCodec] = None,
        bitvector: str = "rrr",
    ) -> "WaveletTrie":
        """Build directly from already-binarised values (testing/benchmarks)."""
        trie = cls([], codec=codec, bitvector=bitvector)
        trie._build(encoded, lambda bits: bits)
        return trie

    @classmethod
    def from_layout(
        cls, layout: StaticTrieLayout, size: int, codec: StringCodec
    ) -> "WaveletTrie":
        """Wrap components built elsewhere (the freezer): ``layout.vector``
        is an RRR bitvector over ``size`` rows."""
        trie = cls.__new__(cls)
        WaveletTrieBase.__init__(trie, codec)
        trie._bitvector_kind = "rrr"
        trie._install(layout, size)
        return trie

    def _build(self, values: Iterable[Any], encode) -> None:
        codes, rows = distinct_codes(values, encode)
        layout = build_static_trie(codes, rows, BITVECTOR_KINDS[self._bitvector_kind])
        self._install(layout, len(rows))

    def _install(self, layout: StaticTrieLayout, size: int) -> None:
        """Store a built layout; its window ones are known, so the check
        pass reads none off the vector."""
        self._set_components(
            layout.vector,
            StaticPartialSums(layout.lengths),
            BitBuffer(layout.flags).words(),
            layout.labels.words(),
            StaticPartialSums(layout.label_lengths),
            size,
            len(layout.flags),
            "a built trie",
            layout.ones,
        )

    def _set_components(
        self, vector, node_offsets: StaticPartialSums, flag_words, label_words,
        label_offsets: StaticPartialSums, size: int, count: int, where: str,
        ones: Optional[Sequence[int]] = None,
    ) -> None:
        """Store Theorem 3.7's components after one check pass.

        ``ones`` counts the ones in each window when the caller knows
        them; otherwise one ``rank_many`` over the window boundaries reads
        them off the vector, which then drops the batch handle that call
        prepared (an open keeps none that no query asked for).  The pass
        (:func:`check_preorder_tree`) then checks that every window holds
        the rows routed to it, and the trie keeps two integer tables from
        it, packed at the width of their largest entry: each internal
        node's 1-child and the ones before each window boundary.  No node
        is made.
        """
        flags = flags_of_words(flag_words, count)
        if len(label_offsets) != count or len(label_words) != -(
            -label_offsets.total // 64
        ):
            raise SerializationError(
                f"{where}: {len(label_offsets)} labels over {label_offsets.total} "
                f"bits for {count} nodes and {len(label_words)} label words"
            )
        internal = flags.count(True)
        if len(node_offsets) != internal or node_offsets.total != len(vector):
            raise SerializationError(
                f"{where}: {len(node_offsets)} node windows over {node_offsets.total} "
                f"bits for {internal} internal nodes and a {len(vector)}-bit vector"
            )
        starts = node_offsets.starts()
        if ones is None:
            ones_before = kernel.as_int_list(vector.rank_many(1, starts))
            vector.drop_batch_handle()
        else:
            ones_before = list(accumulate(ones, initial=0))

        def window_ones(node: int, start: int, rows: int) -> int:
            if starts[node + 1] - start != rows:
                raise SerializationError(
                    f"{where}: stored size {size} does not match the root "
                    f"window's {starts[1]} bits"
                    if not node
                    else f"{where}: node window {node} holds "
                    f"{starts[node + 1] - start} bits, {rows} rows reach it"
                )
            return ones_before[node + 1] - ones_before[node]

        one_child, _ = check_preorder_tree(flags, size, window_ones, where)
        self._one_child = PackedIntVector.from_values(one_child)
        self._ones_before = PackedIntVector.from_values(ones_before)
        self._shared = vector
        self._node_offsets = node_offsets
        self._flag_words = flag_words
        self._label_words = label_words
        self._label_offsets = label_offsets
        self._node_count = count
        self._size = size
        self._root_node = None
        self._arrays = None
        self._walks: Dict[Any, List[Tuple[int, int, int, int]]] = {}

    # ------------------------------------------------------------------
    # Node handles, made on demand and kept
    # ------------------------------------------------------------------
    @property
    def _root(self) -> Optional[_Node]:
        """The root's handle (None for the empty trie), made on first use."""
        root = self._root_node
        if root is None and self._node_count:
            root = self._root_node = _handle(self, 0, self._node_count, 0, None, 0)
        return root

    @_root.setter
    def _root(self, node) -> None:
        self._root_node = node

    def _label(self, index: int) -> Bits:
        """The label of preorder node ``index``, sliced out of the
        concatenated labels."""
        offsets = self._label_offsets
        start, stop = offsets.start(index), offsets.start(index + 1)
        return Bits(kernel.extract_bits_value(self._label_words, start, stop), stop - start)

    def _window(self, rank: int) -> BitvectorWindow:
        """The window of the ``rank``-th internal node onto the shared vector."""
        offsets, before = self._node_offsets, self._ones_before
        start, ones_before = offsets.start(rank), before[rank]
        return BitvectorWindow(
            self._shared,
            start,
            offsets.start(rank + 1) - start,
            ones_before,
            before[rank + 1] - ones_before,
        )

    def _children_of(self, node: _Node) -> List[_Node]:
        """Both children's handles of internal node ``node``.

        The 0-child follows its parent in preorder and the table gives the
        1-child.  The 0-child's subtree ends where the 1-child starts, and
        holds ``(one - index - 2) / 2`` internal nodes, so the 1-child is
        internal node ``rank + (one - index) / 2``.
        """
        index, end, rank = node._index, node._end, node._rank
        one = self._one_child[rank]
        return [
            _handle(self, index + 1, one, rank + 1, node, 0),
            _handle(self, one, end, rank + (one - index) // 2, node, 1),
        ]

    # ------------------------------------------------------------------
    # The per-depth batch descent
    # ------------------------------------------------------------------
    def _name_leaves(self, values: Sequence[Any]) -> None:
        """Name each leaf's value in preorder (the codes' sorted order), as a
        codec over a symbol alphabet can: a descent then reads them off this
        list instead of decoding keys, and over int64 symbols runs on arrays."""
        self._leaves = list(values)
        self._int_leaves = all(
            type(value) is int and -(1 << 63) <= value < 1 << 63
            for value in self._leaves
        )

    def _descend(self, positions: List[int]) -> Tuple[List[_Node], List[int]]:
        """``(leaves, ranks)``: each position's leaf handle and the position
        it carries into that leaf, one ``access_rank_many`` on the shared
        vector per depth over every item still above its leaf."""
        root = self._root
        leaves, ranks = [root] * len(positions), list(positions)
        slots = list(range(len(positions))) if root.bitvector is not None else []
        nodes, shared = leaves[:], self._shared
        while slots:
            bits, shared_ranks = shared.access_rank_many(
                [node.bitvector.start + pos for node, pos in zip(nodes, positions)]
            )
            live = zip(slots, nodes, bits, shared_ranks)
            slots, nodes, positions = [], [], []
            for slot, node, bit, rank in live:
                window = node.bitvector
                rank -= window.ones_before if bit else window.start - window.ones_before
                node = node.children[bit]
                if node.bitvector is None:
                    leaves[slot] = node
                    ranks[slot] = rank
                else:
                    slots.append(slot)
                    nodes.append(node)
                    positions.append(rank)
        return leaves, ranks

    def _descent_tables(self, np):
        """The shape as int64 arrays, made from the packed tables on the
        first array descent and kept: each internal node's window start;
        per internal node ``r`` and bit ``b``, at ``k = 2 r + b``, the
        ``b`` bits of the shared vector before the window and the child
        (an internal node's number, or ``~i`` for leaf ``i``); and the
        named leaf values when they are int64 symbols."""
        if self._arrays is None:
            internal = len(self._node_offsets)
            ranks = np.arange(internal, dtype=np.int64)
            starts = np.asarray(self._node_offsets.starts()[:internal], dtype=np.int64)
            ones = np.asarray(self._ones_before.get_many(ranks), dtype=np.int64)
            one = np.asarray(self._one_child.get_many(ranks), dtype=np.int64)
            flags = np.asarray(
                flags_of_words(self._flag_words, self._node_count), dtype=bool
            )
            index = np.flatnonzero(flags)  # each internal node's preorder index
            one_rank = ranks + (one - index) // 2
            child = np.empty(2 * internal, dtype=np.int64)
            child[0::2] = np.where(flags[index + 1], ranks + 1, ~(index - ranks))
            child[1::2] = np.where(flags[one], one_rank, ~(one - one_rank))
            before = np.empty(2 * internal, dtype=np.int64)
            before[0::2] = starts - ones
            before[1::2] = ones
            leaves = np.asarray(self._leaves, dtype=np.int64) if self._int_leaves else None
            self._arrays = (starts, before, child, leaves)
        return self._arrays

    def _descend_arrays(self, np, positions):
        """:meth:`_descend` on int64 arrays: ``(leaves, ranks)`` with each
        leaf as its preorder leaf number."""
        starts, before, child, _ = self._descent_tables(np)
        leaves, ranks = np.zeros(len(positions), dtype=np.int64), positions.copy()
        # A lone leaf: every position is its leaf's rank, with no descent.
        slots = np.arange(len(positions) if len(starts) else 0, dtype=np.int64)
        nodes = np.zeros(len(slots), dtype=np.int64)
        while slots.size:
            bits, shared_ranks = self._shared.access_rank_many(starts[nodes] + positions)
            k = 2 * nodes + bits
            nodes = child[k]
            positions = shared_ranks - before[k]
            leaf = nodes < 0
            if leaf.any():
                done = slots[leaf]
                leaves[done] = ~nodes[leaf]
                ranks[done] = positions[leaf]
                inner = ~leaf
                slots, nodes, positions = slots[inner], nodes[inner], positions[inner]
        return leaves, ranks

    def _values_of(self, leaves: List[_Node]) -> List[Any]:
        """The value of each leaf handle: read off the named leaves, or
        decoded once per distinct leaf from its key."""
        named = self._leaves
        if named is not None:
            return [named[leaf._index - leaf._rank] for leaf in leaves]
        values = dict.fromkeys(leaves)
        for leaf in values:
            values[leaf] = self._codec.from_bits(self._key_of(leaf))
        return [values[leaf] for leaf in leaves]

    @staticmethod
    def _leaf_range(node: _Node) -> Tuple[int, int]:
        """``(first, stop)``: the numbers of the leaves under ``node``, in
        preorder.  Its subtree of ``end - index`` nodes holds half of them
        plus one as leaves, after ``index - rank`` leaves before it."""
        first = node._index - node._rank
        return first, first + (node._end - node._index + 1) // 2

    @staticmethod
    def _key_of(leaf: _Node) -> Bits:
        """The binarised value of a leaf: the labels and branch bits on its
        root path, read up the parent links."""
        node, value, length = leaf, 0, 0
        while True:
            label = node.label
            value |= label.value << length
            length += len(label)
            if node.parent is None:
                return Bits(value, length)
            value |= node.parent_bit << length
            length += 1
            node = node.parent

    def _height(self) -> int:
        """Internal nodes on the longest root-to-leaf path, read off the
        preorder flags (0 for a lone leaf or the empty trie)."""
        height, pending = 0, [0]
        for flag in flags_of_words(self._flag_words, self._node_count):
            depth = pending.pop()
            if flag:
                pending += (depth + 1, depth + 1)
            elif depth > height:
                height = depth
        return height

    def inverse_select_many(self, positions):
        """``(values, ranks)``: the value at each position and its rank there.

        ``ranks[i] = rank(values[i], positions[i])``: the position a query
        carries into its leaf is its rank.  Every query moves down one
        depth per step, whichever node it is at: one ``access_rank_many``
        on the shared node vector gives each query's bit and its rank,
        which are its child and its position there.  So a batch makes at
        most ``height`` shared-vector calls, amortising to O(1) python work
        per query and depth plus the batched calls, and each leaf's value
        is read off the named leaves or decoded once per batch.  Under the
        numpy backend a trie whose named leaves are int64 symbols descends
        on int64 arrays (no per-query python work) when given an array or
        at least ``SMALL_BATCH`` positions; an array input then gets arrays
        back, a list input lists.  It is the FM-index LF step.
        """
        positions = normalize_batch(positions)
        count = len(positions)
        if not count:
            return [], []
        lo, hi = batch_min_max(positions)
        if lo < 0 or hi >= self._size:
            bad = next(p for p in positions if not 0 <= p < self._size)
            raise OutOfBoundsError(f"position {bad} out of range for length {self._size}")
        np = kernel.array_module()
        if np is not None and self._int_leaves:
            array_input = isinstance(positions, np.ndarray)
            if array_input or count >= SMALL_BATCH:
                leaves, ranks = self._descend_arrays(np, np.asarray(positions, dtype=np.int64))
                values = self._descent_tables(np)[3][leaves]
                return (values, ranks) if array_input else (values.tolist(), ranks.tolist())
        leaves, ranks = self._descend(kernel.as_int_list(positions))
        return self._values_of(leaves), ranks

    def access_many(self, positions) -> List[Any]:
        """The values at each of ``positions``, as a list: the first half
        of :meth:`inverse_select_many`, so the cost amortises the same way
        (at most ``height`` shared-vector calls per batch)."""
        values = self.inverse_select_many(positions)[0]
        return values if isinstance(values, list) else values.tolist()

    def rank_each(self, values: Sequence[Any], positions: Sequence[int]) -> List[int]:
        """``rank(values[i], positions[i])`` for each item, one value per item.

        Each value's path is located once and kept, like the handles on it
        (absent values are located again on each call); then the items
        descend their own paths together, one depth at a time: per depth one
        ``rank_many`` on the shared node vector over every item still
        above its leaf, so a batch makes at most ``height`` shared-vector
        calls whatever its values (the FM-index's backward step over every
        live interval endpoint; see
        :meth:`repro.text.fm_index.FMIndex.count_many`).  The items are
        ordered by decreasing path length once (bucketed), so the items
        still descending at any depth are a prefix of that order:
        amortised O(q) python work per depth plus the batched ranks.  Under
        the numpy backend a batch of at least ``_ARRAY_WALKS`` items
        descends on int64 arrays.  Values must be hashable; absent values
        rank 0.  Always a list.
        """
        positions = kernel.as_int_list(normalize_batch(positions))
        values = list(values)
        if len(values) != len(positions):
            raise ValueError(f"{len(values)} values for {len(positions)} positions")
        if not positions:
            return []
        if min(positions) < 0 or max(positions) > self._size:
            bad = next(p for p in positions if not 0 <= p <= self._size)
            raise OutOfBoundsError(f"position {bad} out of range for length {self._size}")
        steps = self._walks
        for value in values:
            if value not in steps:
                located = self._path_of(self._codec.to_bits(value))
                if located is not None:
                    steps[value] = [
                        (node.bitvector.start, node.bitvector.ones_before, bit, 2 * node._rank + bit)
                        for node, bit in located[1]
                    ]
        np = kernel.array_module()
        if np is not None and len(values) >= _ARRAY_WALKS:
            return self._rank_each_arrays(np, values, positions)
        walks = [steps.get(value) for value in values]
        height = max((len(walk) for walk in walks if walk is not None), default=0)
        buckets: List[List[int]] = [[] for _ in range(height + 1)]
        for slot, walk in enumerate(walks):
            if walk is not None:
                buckets[len(walk)].append(slot)
        out = [0] * len(positions)
        for slot in buckets[0]:  # a lone leaf: the root is every value's leaf
            out[slot] = positions[slot]
        order = [slot for bucket in reversed(buckets[1:]) for slot in bucket]
        walks = [walks[slot] for slot in order]
        current = [positions[slot] for slot in order]
        shared = self._shared
        live = len(order)
        depth = 0
        while live:
            step = [walk[depth] for walk in walks[:live]]
            at = [start + pos for (start, _, _, _), pos in zip(step, current)]
            ones = shared.rank_many(1, at)
            current = [
                count - before if bit else place - count - start + before
                for (start, before, bit, _), place, count in zip(step, at, ones)
            ]
            depth += 1
            done = live - len(buckets[depth])
            for slot, rank in zip(order[done:live], current[done:]):
                out[slot] = rank
            live = done
            del current[live:]
        return out

    def _rank_each_arrays(self, np, values, positions) -> List[int]:
        """:meth:`rank_each`'s descent on int64 arrays: each distinct
        value's kept path as table indexes ``k = 2 r + b``, one row per
        value (absent values have length -1)."""
        starts, before, _, _ = self._descent_tables(np)
        row_of = {value: row for row, value in enumerate(dict.fromkeys(values))}
        paths = [self._walks.get(value) for value in row_of]
        height = max((len(path) for path in paths if path is not None), default=0)
        table = np.zeros((len(row_of), max(height, 1)), dtype=np.int64)
        lengths_of = np.full(len(row_of), -1, dtype=np.int64)
        for row, path in enumerate(paths):
            if path is not None:
                table[row, : len(path)] = [k for _, _, _, k in path]
                lengths_of[row] = len(path)
        rows = np.asarray([row_of[value] for value in values], dtype=np.int64)
        lengths = lengths_of[rows]
        order = np.argsort(-lengths, kind="stable")
        rows, lengths = rows[order], lengths[order]
        current = np.asarray(positions, dtype=np.int64)[order]
        for depth in range(int(lengths[0])):
            live = int(np.count_nonzero(lengths > depth))
            ks = table[rows[:live], depth]
            at = starts[ks >> 1] + current[:live]
            ones = self._shared.rank_many(1, at)
            current[:live] = np.where(ks & 1, ones, at - ones) - before[ks]
        current[lengths < 0] = 0
        out = np.empty_like(current)
        out[order] = current
        return out.tolist()

    # ------------------------------------------------------------------
    @property
    def bitvector_kind(self) -> str:
        """Which static bitvector the internal nodes use."""
        return self._bitvector_kind

    @property
    def node_bitvector(self):
        """The one bitvector holding every internal node's bits, in preorder."""
        return self._shared

    def node_offsets(self) -> StaticPartialSums:
        """The partial sums delimiting the node windows."""
        return self._node_offsets

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str = "") -> dict:
        """Write the trie into a frozen-image sink as a fixed set of sections.

        ``bv.*`` holds the shared node bitvector's own sections, ``labels``
        the labels packed in preorder and ``loff.*`` their delimiters,
        ``int`` the preorder internal flags and ``noff.*`` the node-window
        delimiters.  The header meta is O(1) in the node count.
        """
        sink.add_u64(prefix + "labels", self._label_words)
        sink.add_u64(prefix + "int", self._flag_words)
        return {
            "size": self._size,
            "kind": self._bitvector_kind,
            "nodes": self._node_count,
            "bitvector": self._shared.to_words_image(sink, prefix + "bv."),
            "label_offsets": self._label_offsets.to_words_image(
                sink, prefix + "loff."
            ),
            "node_offsets": self._node_offsets.to_words_image(sink, prefix + "noff."),
        }

    @classmethod
    def from_words_image(
        cls, image, prefix: str, meta: dict, codec: Optional[StringCodec] = None
    ) -> "WaveletTrie":
        """Open from a frozen image; every component aliases it.

        No bitvector is decoded or re-encoded and no node is made: the
        check pass reads the window ones with one ``rank_many`` over the
        window boundaries.
        """
        kind = meta["kind"]
        factory = BITVECTOR_KINDS.get(kind)
        if factory is None:
            raise SerializationError(
                f"unknown node-bitvector kind {kind!r} in frozen image"
            )
        trie = cls.__new__(cls)
        WaveletTrieBase.__init__(trie, codec)
        trie._bitvector_kind = kind
        trie._set_components(
            factory.from_words_image(image, prefix + "bv.", meta["bitvector"]),
            StaticPartialSums.from_words_image(
                image, prefix + "noff.", meta["node_offsets"]
            ),
            image.words(prefix + "int"),
            image.words(prefix + "labels"),
            StaticPartialSums.from_words_image(
                image, prefix + "loff.", meta["label_offsets"]
            ),
            int(meta["size"]),
            int(meta["nodes"]),
            f"trie {prefix!r}",
        )
        return trie

    # ------------------------------------------------------------------
    # Updates are rejected: the structure is static.
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        raise ImmutableStructureError(
            "WaveletTrie is static; use AppendOnlyWaveletTrie or DynamicWaveletTrie"
        )

    def insert(self, value: Any, pos: int) -> None:
        raise ImmutableStructureError(
            "WaveletTrie is static; use DynamicWaveletTrie"
        )

    def delete(self, pos: int) -> Any:
        raise ImmutableStructureError(
            "WaveletTrie is static; use DynamicWaveletTrie"
        )

    # ------------------------------------------------------------------
    # Shape statistics, read off the components (no handle is made)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of trie nodes."""
        return self._node_count

    def distinct_count(self) -> int:
        """|Sset|: the leaves of a full binary tree of ``node_count`` nodes."""
        return (self._node_count + 1) // 2

    def label_bits(self) -> int:
        """Total label length ``|L|`` over all nodes."""
        return self._label_offsets.total

    def average_height(self) -> float:
        """``h̃`` (Definition 3.4): the node vector's length over ``n``."""
        return self._node_offsets.total / self._size if self._size else 0.0

    # ------------------------------------------------------------------
    # Space accounting (Theorem 3.7)
    # ------------------------------------------------------------------
    def bitvector_bits(self) -> int:
        """The shared node bitvector, charged once, plus the partial sums
        that delimit the node windows (tracks ``n H0(S)``)."""
        if not len(self._node_offsets):
            return 0
        return self._shared.size_in_bits() + self._node_offsets.size_in_bits()

    def table_bits(self) -> int:
        """The two integer tables the check pass keeps, each internal node's
        1-child and the ones before each window, packed at the width of
        their largest entry: ``O(|Sset| log n)`` bits beside Theorem 3.7's
        components.  Node handles a walk has made and the descent's int64
        tables are not charged."""
        if not len(self._one_child):
            return 0
        return self._one_child.size_in_bits() + self._ones_before.size_in_bits()

    def size_in_bits(self) -> int:
        """Measured size: the Theorem 3.7 components plus :meth:`table_bits`."""
        return self.succinct_space_breakdown()["total"] + self.table_bits()

    def succinct_space_breakdown(self) -> Dict[str, float]:
        """The Theorem 3.7 decomposition, measured on this instance.

        Components: the topology (the stored preorder internal flags), the
        concatenated labels ``L``, their delimiters, the concatenated node
        bitvector, and the partial sums delimiting its node windows.  All
        in bits.
        """
        if not self._node_count:
            return {
                "topology": 0, "labels": 0, "label_delimiters": 0,
                "bitvectors": 0, "bitvector_delimiters": 0, "total": 0,
            }
        internal = bool(len(self._node_offsets))
        breakdown = {
            "topology": 64 * len(self._flag_words),
            "labels": self._label_offsets.total,
            "label_delimiters": self._label_offsets.size_in_bits(),
            "bitvectors": self._shared.size_in_bits() if internal else 0,
            "bitvector_delimiters": (
                self._node_offsets.size_in_bits() if internal else 0
            ),
        }
        breakdown["total"] = sum(breakdown.values())
        return breakdown
