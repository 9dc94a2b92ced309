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

Queries run the one engine every Wavelet Trie runs
(:class:`~repro.core.base.WaveletTrieBase`) over node handles.  A handle
is made the first time a walk reaches its node: it slices its label out
of the concatenation and, for an internal node, makes its
:class:`~repro.bitvector.window.BitvectorWindow` onto the shared vector.
The trie keeps every handle it made, so later walks cost what walks over
pointer nodes cost, and an open makes none.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rle import RLEBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.window import BitvectorWindow
from repro.core.base import WaveletTrieBase
from repro.core.builder import StaticTrieLayout, build_static_trie, distinct_codes
from repro.core.node import WaveletTrieNode
from repro.exceptions import ImmutableStructureError, SerializationError
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["WaveletTrie", "check_preorder_tree", "flags_of_words"]

_BITVECTOR_FACTORIES = {
    "rrr": RRRBitVector,
    "plain": PlainBitVector,
    "rle": RLEBitVector,
}


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
        (default, the paper's choice), ``"plain"`` or ``"rle"``.

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

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        bitvector: str = "rrr",
    ) -> None:
        super().__init__(codec)
        if bitvector not in _BITVECTOR_FACTORIES:
            raise ValueError(
                f"unknown bitvector kind {bitvector!r}; "
                f"expected one of {sorted(_BITVECTOR_FACTORIES)}"
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
        layout, _ = build_static_trie(
            codes, rows, _BITVECTOR_FACTORIES[self._bitvector_kind]
        )
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
        them off the vector.  The pass (:func:`check_preorder_tree`) then
        checks that every window holds the rows routed to it, and the
        trie keeps two integer tables from it: each internal node's 1-child
        and the ones before each window boundary.  No node is made.
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
            ones_before = array("q", vector.rank_many(1, starts))
        else:
            ones_before = array("q", [0])
            for window in ones:
                ones_before.append(ones_before[-1] + window)

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

        self._one_child, _ = check_preorder_tree(flags, size, window_ones, where)
        self._ones_before = ones_before
        self._bitvector = vector
        self._node_offsets = node_offsets
        self._flag_words = flag_words
        self._label_words = label_words
        self._label_offsets = label_offsets
        self._node_count = count
        self._size = size
        self._root_node = None

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
        start = offsets.start(rank)
        return BitvectorWindow(
            self._bitvector,
            start,
            offsets.start(rank + 1) - start,
            before[rank],
            before[rank + 1] - before[rank],
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
    @property
    def bitvector_kind(self) -> str:
        """Which static bitvector the internal nodes use."""
        return self._bitvector_kind

    @property
    def node_bitvector(self):
        """The one bitvector holding every internal node's bits, in preorder."""
        return self._bitvector

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
            "bitvector": self._bitvector.to_words_image(sink, prefix + "bv."),
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
        factory = _BITVECTOR_FACTORIES.get(kind)
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
        return self._bitvector.size_in_bits() + self._node_offsets.size_in_bits()

    def table_bits(self) -> int:
        """The two integer tables the check pass keeps, each internal node's
        1-child and the ones before each window, at 64 bits an entry:
        ``Θ(|Sset| w)`` bits beside Theorem 3.7's components.  Node handles
        a walk has made are not charged."""
        one_child = self._one_child
        return 64 * (len(one_child) + len(self._ones_before)) if one_child else 0

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
            "bitvectors": self._bitvector.size_in_bits() if internal else 0,
            "bitvector_delimiters": (
                self._node_offsets.size_in_bits() if internal else 0
            ),
        }
        breakdown["total"] = sum(breakdown.values())
        return breakdown
