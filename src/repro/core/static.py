"""The static Wavelet Trie (paper Section 3, Theorem 3.7).

Built once from a sequence of values; supports ``Access``, ``Rank``,
``Select``, ``RankPrefix``, ``SelectPrefix`` and the Section 5 range
analytics in ``O(|s| + h_s)`` time, with node bitvectors stored in RRR
compressed form so the total space is ``LT(Sset) + n H0(S)`` plus lower-order
terms.

The topology is pointer-based (one Python object per trie node), and the
node bitvectors follow Theorem 3.7: every internal node's bits are
concatenated in preorder into one static bitvector, and each node holds a
:class:`~repro.bitvector.window.BitvectorWindow` onto it.  The space
reports charge that vector once, plus the partial sums delimiting the
windows; :meth:`WaveletTrie.succinct_space_breakdown` additionally
*measures* a DFUDS topology and concatenated labels, so the space
experiments can report both the engineered and the succinct accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rle import RLEBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.window import windows_over
from repro.core.base import WaveletTrieBase
from repro.core.builder import build_wavelet_trie_nodes, distinct_codes
from repro.core.node import WaveletTrieNode
from repro.exceptions import ImmutableStructureError, SerializationError
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["WaveletTrie", "flags_of_words", "open_node_windows"]

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


def open_node_windows(vector, node_offsets, flags: Sequence[bool], size: int, where: str):
    """The internal nodes' windows onto ``vector``, checked against the topology.

    ``node_offsets`` delimits the windows in preorder and ``flags`` marks
    the internal nodes in preorder (0-child first).  The root's window must
    hold ``size`` bits and every internal child's window as many bits as
    its parent routes to it (the parent's count of the branch bit); one
    ``rank_many`` on the shared vector gives every window's ones.
    """
    internal = sum(flags)
    if len(node_offsets) != internal or node_offsets.total != len(vector):
        raise SerializationError(
            f"{where}: {len(node_offsets)} node windows over {node_offsets.total} "
            f"bits for {internal} internal nodes and a {len(vector)}-bit vector"
        )
    starts = node_offsets.starts()
    windows = windows_over(vector, [b - a for a, b in zip(starts, starts[1:])])
    rows_due = [size] if flags else []
    rank = 0
    for flag in flags:
        if not rows_due:
            raise SerializationError(f"{where}: the node flags describe no tree")
        rows = rows_due.pop()
        if flag:
            window = windows[rank]
            if len(window) != rows:
                raise SerializationError(
                    f"{where}: stored size {size} does not match the root "
                    f"window's {len(window)} bits"
                    if not rank
                    else f"{where}: node window {rank} holds {len(window)} "
                    f"bits, {rows} rows reach it"
                )
            rows_due += [window.ones, rows - window.ones]
            rank += 1
    if rows_due:
        raise SerializationError(f"{where}: the node flags end inside the tree")
    return windows


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

    def _build(self, values: Iterable[Any], encode) -> None:
        codes, rows = distinct_codes(values, encode)
        self._set_nodes(
            *build_wavelet_trie_nodes(
                codes, rows, _BITVECTOR_FACTORIES[self._bitvector_kind]
            ),
            len(rows),
        )

    def _set_nodes(self, root, shared, size: int) -> None:
        """Install a node tree whose internal nodes are windows onto
        ``shared``, in preorder."""
        self._root = root
        self._bitvector = shared
        self._size = size
        self._node_offsets = None

    @classmethod
    def from_nodes(
        cls, root, shared, size: int, codec: StringCodec, kind: str = "rrr"
    ) -> "WaveletTrie":
        """Wrap a node tree built elsewhere (the freezer, an image open).

        ``shared`` is the concatenated node bitvector of kind ``kind`` and
        every internal node's bitvector a window onto it, in preorder.
        """
        trie = cls([], codec=codec, bitvector=kind)
        trie._set_nodes(root, shared, size)
        return trie

    @property
    def bitvector_kind(self) -> str:
        """Which static bitvector the internal nodes use."""
        return self._bitvector_kind

    @property
    def node_bitvector(self):
        """The one bitvector holding every internal node's bits, in preorder."""
        return self._bitvector

    def node_offsets(self) -> StaticPartialSums:
        """The partial sums delimiting the node windows (built once)."""
        if self._node_offsets is None:
            self._node_offsets = StaticPartialSums(
                len(node.bitvector) for node in self.nodes() if not node.is_leaf
            )
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
        labels = BitBuffer()
        flags = BitBuffer()
        label_lengths: List[int] = []
        for node in self.nodes():
            labels.append_bits(node.label)
            label_lengths.append(len(node.label))
            flags.append(0 if node.is_leaf else 1)
        sink.add_u64(prefix + "labels", labels.words())
        sink.add_u64(prefix + "int", flags.words())
        return {
            "size": self._size,
            "kind": self._bitvector_kind,
            "nodes": len(label_lengths),
            "bitvector": self._bitvector.to_words_image(sink, prefix + "bv."),
            "label_offsets": StaticPartialSums(label_lengths).to_words_image(
                sink, prefix + "loff."
            ),
            "node_offsets": self.node_offsets().to_words_image(sink, prefix + "noff."),
        }

    @classmethod
    def from_words_image(
        cls, image, prefix: str, meta: dict, codec: Optional[StringCodec] = None
    ) -> "WaveletTrie":
        """Open from a frozen image; the shared node bitvector aliases it.

        Rebuilds only the lightweight node shells (one per trie node) and
        their windows: no bitvector is decoded or re-encoded.  The preorder
        is replayed iteratively: after an internal node, the next subtree
        is its 0-child, then its 1-child.  :func:`open_node_windows` checks
        every window against the rows routed to it.
        """
        kind = meta["kind"]
        factory = _BITVECTOR_FACTORIES.get(kind)
        if factory is None:
            raise SerializationError(
                f"unknown node-bitvector kind {kind!r} in frozen image"
            )
        where = f"trie {prefix!r}"
        size = int(meta["size"])
        count = int(meta["nodes"])
        shared = factory.from_words_image(image, prefix + "bv.", meta["bitvector"])
        label_offsets = StaticPartialSums.from_words_image(
            image, prefix + "loff.", meta["label_offsets"]
        )
        node_offsets = StaticPartialSums.from_words_image(
            image, prefix + "noff.", meta["node_offsets"]
        )
        label_words = image.words(prefix + "labels")
        flags = flags_of_words(image.words(prefix + "int"), count)
        if len(label_offsets) != count or len(label_words) != -(
            -label_offsets.total // 64
        ):
            raise SerializationError(
                f"{where}: {len(label_offsets)} labels over {label_offsets.total} "
                f"bits for {count} nodes and {len(label_words)} label words"
            )
        if not count and size:
            raise SerializationError(f"stored size {size} for an empty trie")
        windows = iter(open_node_windows(shared, node_offsets, flags, size, where))
        bounds = label_offsets.starts()
        root = None
        pending: list = []  # (parent, bit) slots awaiting the next subtree
        for flag, start, stop in zip(flags, bounds, bounds[1:]):
            label = Bits(kernel.extract_bits_value(label_words, start, stop), stop - start)
            node = WaveletTrieNode(label, next(windows) if flag else None)
            if root is None:
                root = node
            else:
                parent, bit = pending.pop()
                parent.attach(bit, node)
            if flag:
                pending.append((node, 1))
                pending.append((node, 0))
        trie = cls.from_nodes(root, shared, size, codec, kind)
        trie._node_offsets = node_offsets
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
    # Succinct space accounting (Theorem 3.7)
    # ------------------------------------------------------------------
    def succinct_topology_bits(self) -> int:
        """Measured size of a DFUDS encoding of the trie topology."""
        if self._root is None:
            return 0
        dfuds = DFUDSTree.from_tree(
            self._root,
            lambda node: [] if node.is_leaf else
            [node.children[0], node.children[1]],
        )
        return dfuds.size_in_bits()

    def bitvector_bits(self) -> int:
        """The shared node bitvector, charged once, plus the partial sums
        that delimit the node windows (tracks ``n H0(S)``)."""
        if self._root is None or self._root.is_leaf:
            return 0
        return self._bitvector.size_in_bits() + self.node_offsets().size_in_bits()

    def size_in_bits(self) -> int:
        """Measured size: labels + node bitvectors + topology pointers."""
        nodes = self.node_count()
        return self.label_bits() + self.bitvector_bits() + nodes * 4 * 64

    def succinct_space_breakdown(self) -> Dict[str, float]:
        """The Theorem 3.7 decomposition, measured on this instance.

        Components: DFUDS topology, concatenated labels ``L``, label
        delimiters, the concatenated node bitvector, and the partial sums
        delimiting its node windows.  All in bits.
        """
        if self._root is None:
            return {
                "topology": 0, "labels": 0, "label_delimiters": 0,
                "bitvectors": 0, "bitvector_delimiters": 0, "total": 0,
            }
        label_lengths = [len(node.label) for node in self.nodes()]
        topology = self.succinct_topology_bits()
        labels = sum(label_lengths)
        label_delimiters = StaticPartialSums(label_lengths).size_in_bits()
        internal = not self._root.is_leaf
        bitvectors = self._bitvector.size_in_bits() if internal else 0
        bitvector_delimiters = self.node_offsets().size_in_bits() if internal else 0
        total = topology + labels + label_delimiters + bitvectors + bitvector_delimiters
        return {
            "topology": topology,
            "labels": labels,
            "label_delimiters": label_delimiters,
            "bitvectors": bitvectors,
            "bitvector_delimiters": bitvector_delimiters,
            "total": total,
        }
