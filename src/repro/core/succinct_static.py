"""A fully succinct static Wavelet Trie (the literal Theorem 3.7 layout).

The default :class:`~repro.core.static.WaveletTrie` keeps one Python object
per node, which is convenient for navigation but charges pointer space.  This
module provides :class:`SuccinctWaveletTrie`, which stores exactly the
components of the paper's static representation and *navigates through them*:

* the trie topology as a DFUDS parenthesis sequence (``2k + o(k)`` bits);
* the node labels concatenated in preorder in one bitvector ``L``, delimited
  by an Elias-Fano partial-sum structure;
* the internal nodes' bitvectors concatenated in preorder into one RRR
  bitvector, delimited the same way; a node's bitvector is its
  :class:`~repro.bitvector.window.BitvectorWindow` onto it, indexed by the
  node's *internal rank* -- the same vector the pointer
  :class:`~repro.core.static.WaveletTrie` stores;
* a small indicator bitvector marking which preorder nodes are internal.

Queries run the one engine every Wavelet Trie runs
(:class:`~repro.core.base.WaveletTrieBase`: Lemmas 3.2 and 3.3, the batch
walks and the Section 5 range algorithms).  The engine walks node handles
that read their label, flag and bitvector from the components above as a
walk reaches them; only the root's handle outlives a query.  Updates are not
supported (the structure is static by construction).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.core.base import WaveletTrieBase
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie, open_node_windows
from repro.exceptions import ImmutableStructureError, SerializationError
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["SuccinctWaveletTrie"]


class _SuccinctNode:
    """One node of the DFUDS layout behind the node interface the engine walks.

    Has the attributes of :class:`~repro.core.node.WaveletTrieNode` that
    queries read: ``label``, ``bitvector`` (None on leaves), ``is_leaf``,
    ``children[bit]``, ``parent``, ``parent_bit`` and ``sequence_length``.
    The label, the internal flag and the node bitvector are read once, when
    the handle is created; ``children[bit]`` creates the child's handle.
    """

    __slots__ = ("_trie", "_index", "label", "bitvector", "parent", "parent_bit")

    is_leaf = WaveletTrieNode.is_leaf
    sequence_length = WaveletTrieNode.sequence_length

    def __init__(
        self,
        trie: "SuccinctWaveletTrie",
        index: int,
        parent: Optional["_SuccinctNode"] = None,
        parent_bit: int = 0,
    ) -> None:
        self._trie = trie
        self._index = index
        self.parent = parent
        self.parent_bit = parent_bit
        self.label = trie._label(index)
        flags = trie._is_internal
        self.bitvector = (
            trie._windows[flags.rank(1, index)] if flags.access(index) else None
        )

    @property
    def children(self) -> "_SuccinctNode":
        """Indexed by branch bit: ``children[bit]`` is that child's handle."""
        return self

    def __getitem__(self, bit: int) -> "_SuccinctNode":
        trie = self._trie
        return _SuccinctNode(trie, trie._dfuds.child(self._index, bit), self, bit)


class SuccinctWaveletTrie(WaveletTrieBase):
    """Static Wavelet Trie stored in the Theorem 3.7 succinct layout."""

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
    ) -> None:
        super().__init__(codec)
        # Build the pointer version once, then flatten it.
        self._init_from_pointer(WaveletTrie(values, codec=self._codec, bitvector="rrr"))

    @classmethod
    def from_pointer_trie(cls, trie: WaveletTrie) -> "SuccinctWaveletTrie":
        """Flatten an existing pointer-based static trie.

        Non-RRR node bitvectors are re-encoded to RRR so the result always
        matches the Theorem 3.7 layout.
        """
        self = cls.__new__(cls)
        WaveletTrieBase.__init__(self, trie.codec)
        self._init_from_pointer(trie)
        return self

    def _init_from_pointer(self, pointer_trie: WaveletTrie) -> None:
        """Flatten ``pointer_trie`` in preorder (children visited 0 then 1,
        matching the DFUDS child order) into the succinct components; its
        shared node bitvector is kept as it is when it is RRR."""
        self._size = len(pointer_trie)
        if pointer_trie.root is None:
            self._set_components(None, None, None, None, None, None)
            return
        degrees: List[int] = []
        labels: List[Bits] = []
        internal_flags: List[int] = []
        for node in pointer_trie.nodes():
            labels.append(node.label)
            degrees.append(0 if node.is_leaf else 2)
            internal_flags.append(0 if node.is_leaf else 1)
        vector = pointer_trie.node_bitvector
        if not isinstance(vector, RRRBitVector):
            vector = RRRBitVector(Bits.from_iterable(vector.iter_range(0, len(vector))))
        buffer = BitBuffer()
        for label in labels:
            buffer.append_bits(label)
        node_offsets = pointer_trie.node_offsets()
        self._set_components(
            DFUDSTree.from_degrees(degrees),
            PlainBitVector(buffer.to_bits()),
            StaticPartialSums(len(label) for label in labels),
            PlainBitVector(internal_flags),
            vector,
            node_offsets,
            open_node_windows(
                vector, node_offsets, internal_flags, self._size, "a succinct trie"
            ),
        )

    def _set_components(
        self, dfuds, labels, label_offsets, is_internal, bitvector, node_offsets,
        windows=(),
    ) -> None:
        """Store the Theorem 3.7 components (None for the empty trie), the
        internal nodes' windows and the root's handle, which the shared
        query engine starts from."""
        self._dfuds = dfuds
        self._labels = labels
        self._label_offsets = label_offsets
        self._is_internal = is_internal
        self._bitvector = bitvector
        self._node_offsets = node_offsets
        self._windows = list(windows)
        self._root = _SuccinctNode(self, 0) if dfuds is not None else None

    def _label(self, node: int) -> Bits:
        """The label of preorder node ``node``, sliced out of ``L``."""
        start = self._label_offsets.start(node)
        length = self._label_offsets.length(node)
        if length == 0:
            return Bits.empty()
        # Word-sliced through the kernel: one two-word extraction for typical
        # labels instead of a per-bit append loop.
        return self._labels.extract_bits(start, start + length)

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str = "") -> dict:
        """Write every Theorem 3.7 component into a frozen-image sink.

        The codec is *not* recorded here; the storage layer stores it in the
        container header and passes it back to :meth:`from_words_image`.
        The section set is fixed: ``dfuds.*``, ``labels.*``, ``loff.*``,
        ``int.*``, the shared node bitvector's ``bv.*`` and its window
        delimiters ``noff.*``.
        """
        if self._dfuds is None:
            return {"size": self._size, "empty": True}
        return {
            "size": self._size,
            "empty": False,
            "dfuds": self._dfuds.to_words_image(sink, prefix + "dfuds."),
            "labels": self._labels.to_words_image(sink, prefix + "labels."),
            "label_offsets": self._label_offsets.to_words_image(
                sink, prefix + "loff."
            ),
            "is_internal": self._is_internal.to_words_image(sink, prefix + "int."),
            "bitvector": self._bitvector.to_words_image(sink, prefix + "bv."),
            "node_offsets": self._node_offsets.to_words_image(sink, prefix + "noff."),
        }

    @classmethod
    def from_words_image(
        cls, image, prefix: str, meta: dict, codec: Optional[StringCodec] = None
    ) -> "SuccinctWaveletTrie":
        """Open from a frozen image; every component aliases the buffer.

        One pass over the internal flags, the same O(nodes) as building
        the windows, checks that each node window holds the rows routed to
        it (:func:`~repro.core.static.open_node_windows`).
        """
        self = cls.__new__(cls)
        WaveletTrieBase.__init__(self, codec)
        self._size = int(meta["size"])
        if meta.get("empty"):
            if self._size:
                raise SerializationError(
                    f"stored size {self._size} for an empty succinct trie"
                )
            self._set_components(None, None, None, None, None, None)
            return self
        dfuds = DFUDSTree.from_words_image(image, prefix + "dfuds.", meta["dfuds"])
        labels = PlainBitVector.from_words_image(
            image, prefix + "labels.", meta["labels"]
        )
        label_offsets = StaticPartialSums.from_words_image(
            image, prefix + "loff.", meta["label_offsets"]
        )
        is_internal = PlainBitVector.from_words_image(
            image, prefix + "int.", meta["is_internal"]
        )
        vector = RRRBitVector.from_words_image(image, prefix + "bv.", meta["bitvector"])
        node_offsets = StaticPartialSums.from_words_image(
            image, prefix + "noff.", meta["node_offsets"]
        )
        nodes = len(is_internal)
        if dfuds.node_count != nodes or len(label_offsets) != nodes:
            raise SerializationError(
                f"succinct trie {prefix!r}: {dfuds.node_count} DFUDS nodes, "
                f"{len(label_offsets)} labels and {nodes} internal flags"
            )
        windows = open_node_windows(
            vector,
            node_offsets,
            list(is_internal.iter_range(0, nodes)),
            self._size,
            f"succinct trie {prefix!r}",
        )
        self._set_components(
            dfuds, labels, label_offsets, is_internal, vector, node_offsets, windows
        )
        return self

    # ------------------------------------------------------------------
    # Updates are rejected
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        raise ImmutableStructureError("SuccinctWaveletTrie is static")

    def insert(self, value: Any, pos: int) -> None:
        raise ImmutableStructureError("SuccinctWaveletTrie is static")

    def delete(self, pos: int) -> Any:
        raise ImmutableStructureError("SuccinctWaveletTrie is static")

    # ------------------------------------------------------------------
    # Statistics and space accounting (the Theorem 3.7 decomposition)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of trie nodes."""
        return self._dfuds.node_count if self._dfuds is not None else 0

    def distinct_count(self) -> int:
        """Number of distinct values (= leaves)."""
        if self._is_internal is None:
            return 0
        return self._is_internal.count(0)

    def size_in_bits(self) -> int:
        """Total measured size of the succinct layout."""
        return sum(self.space_breakdown().values())

    def bitvector_bits(self) -> int:
        """The shared node bitvector, charged once, plus its window
        delimiters."""
        breakdown = self.space_breakdown()
        return breakdown["bitvectors"] + breakdown["bitvector_delimiters"]

    def space_breakdown(self) -> dict:
        """Sizes of the Theorem 3.7 components, in bits."""
        if self._dfuds is None:
            return {
                "topology_dfuds": 0,
                "labels": 0,
                "label_delimiters": 0,
                "internal_flags": 0,
                "bitvectors": 0,
                "bitvector_delimiters": 0,
            }
        internal = bool(len(self._node_offsets))
        return {
            "topology_dfuds": self._dfuds.size_in_bits(),
            "labels": self._labels.size_in_bits(),
            "label_delimiters": self._label_offsets.size_in_bits(),
            "internal_flags": self._is_internal.size_in_bits(),
            "bitvectors": self._bitvector.size_in_bits() if internal else 0,
            "bitvector_delimiters": (
                self._node_offsets.size_in_bits() if internal else 0
            ),
        }
