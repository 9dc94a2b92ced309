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

Queries descend the DFUDS topology, so no Python node objects exist at query
time; the pointer-based and succinct variants are cross-checked against each
other in the test suite.  Updates are not supported (the structure is static
by construction).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.base import normalize_batch
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector, check_shared_image_params
from repro.core.interface import (
    IndexedStringSequence,
    check_select_prefix_index,
    validate_select_prefix_indexes,
)
from repro.core.static import WaveletTrie
from repro.exceptions import (
    ImmutableStructureError,
    OutOfBoundsError,
    SerializationError,
    ValueNotFoundError,
)
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec, default_codec

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


class SuccinctWaveletTrie(IndexedStringSequence):
    """Static Wavelet Trie stored in the Theorem 3.7 succinct layout."""

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
    ) -> None:
        self._codec = codec or default_codec()
        values = list(values)
        # Build the pointer version once, then flatten it.
        self._init_from_pointer(WaveletTrie(values, codec=self._codec, bitvector="rrr"))

    @classmethod
    def from_pointer_trie(cls, trie: WaveletTrie) -> "SuccinctWaveletTrie":
        """Flatten an existing pointer-based static trie (the frozen -> succinct
        tier transition; see :mod:`repro.core.tiers`).

        Non-RRR node bitvectors are re-encoded to RRR so the result always
        matches the Theorem 3.7 layout.
        """
        self = cls.__new__(cls)
        self._codec = trie.codec
        self._init_from_pointer(trie)
        return self

    def _init_from_pointer(self, pointer_trie: WaveletTrie) -> None:
        """Flatten ``pointer_trie`` in preorder (children visited 0 then 1,
        matching the DFUDS child order) into the succinct components."""
        self._size = len(pointer_trie)
        if pointer_trie.root is None:
            self._dfuds = None
            self._labels = None
            self._label_offsets = None
            self._is_internal = None
            self._bitvectors: List[RRRBitVector] = []
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
        self._dfuds = DFUDSTree.from_degrees(degrees)
        buffer = BitBuffer()
        for label in labels:
            buffer.append_bits(label)
        self._labels = PlainBitVector(buffer.to_bits())
        self._label_offsets = StaticPartialSums(len(label) for label in labels)
        self._is_internal = PlainBitVector(internal_flags)
        self._bitvectors = bitvectors

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
        """Open from a frozen image without wrapping any node bitvector.

        Topology, labels and flags alias the mapped buffer; the per-node RRR
        bitvectors are wrapped lazily on first touch (each wrap is itself
        zero-copy, and checks its meta against its arrays).  One pass over
        the header's node metas, the same O(nodes) as parsing them, checks
        that each node's stored length is the number of rows routed to it.
        """
        self = cls.__new__(cls)
        self._codec = codec or default_codec()
        self._size = int(meta["size"])
        if meta.get("empty"):
            if self._size:
                raise SerializationError(
                    f"stored size {self._size} for an empty succinct trie"
                )
            self._dfuds = None
            self._labels = None
            self._label_offsets = None
            self._is_internal = None
            self._bitvectors = []
            return self
        self._dfuds = DFUDSTree.from_words_image(
            image, prefix + "dfuds.", meta["dfuds"]
        )
        self._labels = PlainBitVector.from_words_image(
            image, prefix + "labels.", meta["labels"]
        )
        self._label_offsets = StaticPartialSums.from_words_image(
            image, prefix + "loff.", meta["label_offsets"]
        )
        self._is_internal = PlainBitVector.from_words_image(
            image, prefix + "int.", meta["is_internal"]
        )
        self._bitvectors = _LazyNodeBitvectors(image, prefix, meta["bitvectors"])
        self._check_node_metas(meta["bitvectors"])
        return self

    def _check_node_metas(self, metas: Sequence[dict]) -> None:
        """Each internal node's stored length must be the rows routed to it:
        the sequence length at the root, the count of the branch bit in the
        parent below it (preorder visits the 0-child's subtree first).  And
        all nodes share one block size and sample rate."""
        rows_due = [self._size]
        rank = 0
        for flag in self._is_internal.iter_range(0, len(self._is_internal)):
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
    # Succinct navigation helpers
    # ------------------------------------------------------------------
    def _label(self, node: int) -> Bits:
        start = self._label_offsets.start(node)
        length = self._label_offsets.length(node)
        if length == 0:
            return Bits.empty()
        # Word-sliced through the kernel: one two-word extraction for typical
        # labels instead of a per-bit append loop.
        return self._labels.extract_bits(start, start + length)

    def _is_leaf(self, node: int) -> bool:
        return self._is_internal.access(node) == 0

    def _node_bitvector(self, node: int) -> RRRBitVector:
        internal_rank = self._is_internal.rank(1, node)
        return self._bitvectors[internal_rank]

    def _child(self, node: int, bit: int) -> int:
        return self._dfuds.child(node, bit)

    # ------------------------------------------------------------------
    # IndexedStringSequence interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def access(self, pos: int) -> Any:
        """The element at position ``pos`` (Lemma 3.2 over the succinct layout)."""
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._size}"
            )
        node = 0
        out = self._label(node)
        while not self._is_leaf(node):
            vector = self._node_bitvector(node)
            bit = vector.access(pos)
            pos = vector.rank(bit, pos)
            node = self._child(node, bit)
            out = out.appended(bit) + self._label(node)
        return self._codec.from_bits(out)

    def rank(self, value: Any, pos: int) -> int:
        """Occurrences of ``value`` in the first ``pos`` positions."""
        return self._rank_bits(self._codec.to_bits(value), pos, full_match=True)

    def rank_prefix(self, prefix: Any, pos: int) -> int:
        """Elements with ``prefix`` among the first ``pos`` positions."""
        return self._rank_bits(self._codec.prefix_to_bits(prefix), pos, full_match=False)

    def _rank_bits(self, key: Bits, pos: int, full_match: bool) -> int:
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._size}"
            )
        if self._size == 0 or pos == 0:
            return 0
        node = 0
        remaining = key
        while True:
            label = self._label(node)
            lcp = remaining.lcp_length(label)
            if not full_match and lcp == len(remaining):
                return pos
            if self._is_leaf(node):
                if full_match and remaining == label:
                    return pos
                return 0
            if lcp < len(label) or len(remaining) == len(label):
                return 0
            bit = remaining[len(label)]
            vector = self._node_bitvector(node)
            pos = vector.rank(bit, pos)
            if pos == 0:
                return 0
            remaining = remaining.suffix_from(len(label) + 1)
            node = self._child(node, bit)

    def select(self, value: Any, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``value``."""
        return self._select_bits(self._codec.to_bits(value), idx, full_match=True)

    def select_prefix(self, prefix: Any, idx: int) -> int:
        """Position of the ``idx``-th element whose value starts with ``prefix``."""
        return self._select_bits(
            self._codec.prefix_to_bits(prefix), idx, full_match=False, label=prefix
        )

    def _locate(
        self, key: Bits, full_match: bool, label: Any = None
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """Descend to ``key``'s node, recording (internal node, branching bit)."""
        shown = key if label is None else label
        if self._size == 0:
            raise ValueNotFoundError("the sequence is empty")
        node = 0
        remaining = key
        path: List[Tuple[int, int]] = []
        while True:
            node_label = self._label(node)
            lcp = remaining.lcp_length(node_label)
            if not full_match and lcp == len(remaining):
                return node, path
            if self._is_leaf(node):
                if full_match and remaining == node_label:
                    return node, path
                raise ValueNotFoundError(f"value {shown!r} does not occur")
            if lcp < len(node_label) or len(remaining) == len(node_label):
                raise ValueNotFoundError(f"value {shown!r} does not occur")
            bit = remaining[len(node_label)]
            path.append((node, bit))
            remaining = remaining.suffix_from(len(node_label) + 1)
            node = self._child(node, bit)

    def _select_bits(
        self, key: Bits, idx: int, full_match: bool, label: Any = None
    ) -> int:
        if full_match and idx < 0:
            # Mirror WaveletTrieBase.select_bits: the full-match path rejects
            # negative indexes before locating (prefix mode instead raises
            # the canonical count-bearing error after the locate).
            raise OutOfBoundsError("select index must be non-negative")
        node, path = self._locate(key, full_match, label=label)
        available = self._subsequence_length(node, path)
        if full_match:
            if idx >= available:
                raise OutOfBoundsError(
                    f"select index {idx} out of range: only {available} matches"
                )
        else:
            check_select_prefix_index(
                key if label is None else label, idx, available
            )
        for ancestor, bit in reversed(path):
            idx = self._node_bitvector(ancestor).select(bit, idx)
        return idx

    def rank_prefix_many(self, prefix: Any, positions) -> List[int]:
        """``rank_prefix(prefix, pos)`` for each position (batched RankPrefix).

        One shared DFUDS descent to the prefix node; at every internal node
        on the way the whole position vector is mapped through the RRR
        bitvector's batch ``rank_many`` -- amortised, one per-node batch pass
        instead of one full succinct descent per queried position.
        """
        key = self._codec.prefix_to_bits(prefix)
        positions = normalize_batch(positions)
        for pos in positions:
            if not 0 <= pos <= self._size:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {self._size}"
                )
        if self._size == 0 or not len(positions):
            return [0] * len(positions)
        node = 0
        remaining = key
        current: List[int] = [int(pos) for pos in positions]
        while True:
            label = self._label(node)
            lcp = remaining.lcp_length(label)
            if lcp == len(remaining):
                return current
            if self._is_leaf(node) or lcp < len(label) or len(remaining) == len(label):
                return [0] * len(current)
            bit = remaining[len(label)]
            current = self._node_bitvector(node).rank_many(bit, current)
            remaining = remaining.suffix_from(len(label) + 1)
            node = self._child(node, bit)

    def select_prefix_many(self, prefix: Any, indexes) -> List[int]:
        """``select_prefix(prefix, idx)`` for each index (batched SelectPrefix).

        The prefix node is located with one DFUDS descent and the recorded
        path unwound with each RRR bitvector's batched ``select_many`` (one
        shared directory pass per node) -- amortised O(|p| + depth_p (D +
        q log q)) for q queries instead of q full succinct SelectPrefix
        walks.  Results come back in input order.
        """
        indexes = normalize_batch(indexes)
        if not len(indexes):
            return []  # an empty batch never raises, like the default loop
        key = self._codec.prefix_to_bits(prefix)
        node, path = self._locate(key, full_match=False, label=prefix)
        available = self._subsequence_length(node, path)
        current = validate_select_prefix_indexes(indexes, available, prefix)
        for ancestor, bit in reversed(path):
            current = self._node_bitvector(ancestor).select_many(bit, current)
        return list(current)

    def _subsequence_length(self, node: int, path: List[Tuple[int, int]]) -> int:
        if not path:
            return self._size
        parent, bit = path[-1]
        return self._node_bitvector(parent).count(bit)

    # ------------------------------------------------------------------
    # Updates are rejected
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Tier protocol (see repro.core.tiers)
    # ------------------------------------------------------------------
    @property
    def tier_state(self) -> str:
        """Always ``"frozen"``: the succinct trie is immutable."""
        return "frozen"

    def freeze_step(self, budget: int = 64) -> bool:
        """No freeze work on an already-frozen tier; returns True."""
        return True

    def to_succinct(self) -> "SuccinctWaveletTrie":
        """Already succinct: returns ``self``."""
        return self

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
