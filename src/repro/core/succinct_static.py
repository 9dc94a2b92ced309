"""A fully succinct static Wavelet Trie (the literal Theorem 3.7 layout).

The default :class:`~repro.core.static.WaveletTrie` keeps one Python object
per node, which is convenient for navigation but charges pointer space.  This
module provides :class:`SuccinctWaveletTrie`, which stores exactly the
components of the paper's static representation and *navigates through them*:

* the trie topology as a DFUDS parenthesis sequence (``2k + o(k)`` bits);
* the node labels concatenated in preorder in one bitvector ``L``, delimited
  by an Elias-Fano partial-sum structure;
* one RRR bitvector per internal node, indexed by the node's *internal rank*
  (the equivalent of concatenating the encodings and delimiting them);
* a small indicator bitvector marking which preorder nodes are internal.

Queries run the one engine every Wavelet Trie runs
(:class:`~repro.core.base.WaveletTrieBase`: Lemmas 3.2 and 3.3, the batch
walks and the Section 5 range algorithms).  The engine walks node handles
that read their label, flag and bitvector from the components above as a
walk reaches them; only the root's handle outlives a query.  Updates are not
supported (the structure is static by construction).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector, check_shared_image_params
from repro.core.base import WaveletTrieBase
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie
from repro.exceptions import ImmutableStructureError, SerializationError
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["SuccinctWaveletTrie"]


class _LazyNodeBitvectors:
    """Per-internal-node RRR views over a frozen image, materialised lazily.

    Keeps frozen-image opens O(1) in the node count: the wrapper object for
    an internal node's bitvector is built (zero-copy, from the image's
    sections) on first access and cached.  Quacks like the eager list the
    in-memory build stores in ``_bitvectors``.
    """

    __slots__ = ("_image", "_prefix", "_metas", "_cache")

    def __init__(self, image, prefix: str, metas: Sequence[dict]) -> None:
        self._image = image
        self._prefix = prefix
        self._metas = metas
        self._cache: List[Optional[RRRBitVector]] = [None] * len(metas)

    def __len__(self) -> int:
        return len(self._metas)

    def __getitem__(self, rank: int) -> RRRBitVector:
        vector = self._cache[rank]
        if vector is None:
            try:
                vector = RRRBitVector.from_words_image(
                    self._image, f"{self._prefix}bv{rank}.", self._metas[rank]
                )
            except (KeyError, TypeError, ValueError, OverflowError) as error:
                # The wrap runs inside a query, past the open's own handler.
                raise SerializationError(
                    f"malformed image meta for node bitvector {rank} "
                    f"({type(error).__name__}: {error})"
                ) from error
            self._cache[rank] = vector
        return vector

    def __iter__(self):
        return (self[rank] for rank in range(len(self._metas)))


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
            trie._bitvectors[flags.rank(1, index)] if flags.access(index) else None
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
        matching the DFUDS child order) into the succinct components."""
        self._size = len(pointer_trie)
        if pointer_trie.root is None:
            self._set_components(None, None, None, None, [])
            return
        degrees: List[int] = []
        labels: List[Bits] = []
        internal_flags: List[int] = []
        bitvectors: List[RRRBitVector] = []
        stack = [pointer_trie.root]
        while stack:
            node = stack.pop()
            labels.append(node.label)
            if node.is_leaf:
                degrees.append(0)
                internal_flags.append(0)
            else:
                degrees.append(2)
                internal_flags.append(1)
                vector = node.bitvector
                if not isinstance(vector, RRRBitVector):
                    vector = RRRBitVector(
                        Bits.from_iterable(vector.iter_range(0, len(vector)))
                    )
                bitvectors.append(vector)
                stack.append(node.children[1])
                stack.append(node.children[0])
        buffer = BitBuffer()
        for label in labels:
            buffer.append_bits(label)
        self._set_components(
            DFUDSTree.from_degrees(degrees),
            PlainBitVector(buffer.to_bits()),
            StaticPartialSums(len(label) for label in labels),
            PlainBitVector(internal_flags),
            bitvectors,
        )

    def _set_components(
        self, dfuds, labels, label_offsets, is_internal, bitvectors
    ) -> None:
        """Store the Theorem 3.7 components (None for the empty trie) and
        the root's handle, which the shared query engine starts from."""
        self._dfuds = dfuds
        self._labels = labels
        self._label_offsets = label_offsets
        self._is_internal = is_internal
        self._bitvectors = bitvectors
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
        Internal node ``r`` (by internal rank) writes its RRR bitvector
        under section prefix ``prefix + "bv{r}."``.
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
            "bitvectors": [
                vector.to_words_image(sink, f"{prefix}bv{rank}.")
                for rank, vector in enumerate(self._bitvectors)
            ],
        }

    @classmethod
    def from_words_image(
        cls, image, prefix: str, meta: dict, codec: Optional[StringCodec] = None
    ) -> "SuccinctWaveletTrie":
        """Open from a frozen image, wrapping no node bitvector but the root's.

        Topology, labels and flags alias the mapped buffer; the per-node RRR
        bitvectors are wrapped lazily on first touch (each wrap is itself
        zero-copy, and checks its meta against its arrays).  One pass over
        the header's node metas, the same O(nodes) as parsing them, checks
        that each node's stored length is the number of rows routed to it.
        """
        self = cls.__new__(cls)
        WaveletTrieBase.__init__(self, codec)
        self._size = int(meta["size"])
        if meta.get("empty"):
            if self._size:
                raise SerializationError(
                    f"stored size {self._size} for an empty succinct trie"
                )
            self._set_components(None, None, None, None, [])
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
        self._check_node_metas(is_internal, meta["bitvectors"])
        self._set_components(
            dfuds,
            labels,
            label_offsets,
            is_internal,
            _LazyNodeBitvectors(image, prefix, meta["bitvectors"]),
        )
        return self

    def _check_node_metas(self, is_internal, metas: Sequence[dict]) -> None:
        """Each internal node's stored length must be the rows routed to it:
        the sequence length at the root, the count of the branch bit in the
        parent below it (preorder visits the 0-child's subtree first).  And
        all nodes share one block size and sample rate."""
        rows_due = [self._size]
        rank = 0
        for flag in is_internal.iter_range(0, len(is_internal)):
            rows = rows_due.pop()
            if not flag:
                continue
            length, ones = int(metas[rank]["length"]), int(metas[rank]["ones"])
            if length != rows or not 0 <= ones <= length:
                raise SerializationError(
                    f"succinct node bitvector {rank} stores {length} bits "
                    f"with {ones} ones; {rows} rows reach it"
                )
            rows_due += [ones, length - ones]
            rank += 1
        if rank != len(metas) or rows_due:
            raise SerializationError(
                "succinct node metas do not match the internal-node flags"
            )
        check_shared_image_params(metas, "a succinct trie")

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
        bitvector_sizes = [vector.size_in_bits() for vector in self._bitvectors]
        return {
            "topology_dfuds": self._dfuds.size_in_bits(),
            "labels": self._labels.size_in_bits(),
            "label_delimiters": self._label_offsets.size_in_bits(),
            "internal_flags": self._is_internal.size_in_bits(),
            "bitvectors": sum(bitvector_sizes),
            "bitvector_delimiters": (
                StaticPartialSums(bitvector_sizes).size_in_bits()
                if bitvector_sizes else 0
            ),
        }
