"""Per-structure serialisers for the on-disk format.

Every serialiser writes a *logical* description of the structure -- the codec,
the trie topology (labels in preorder) and the node bitvector contents -- and
the loader rebuilds the in-memory representation from it.  This keeps the
format independent of internal layout details (RRR block sizes, frozen-block
boundaries, treap priorities), so files written by one version of the library
remain readable after the internals are tuned.

The node bitvector contents are written with the RAW/RLE payload encoding of
:mod:`repro.storage.varint`, so an on-disk Wavelet Trie is roughly the size of
its compressed in-memory form (the RLE mode captures the same skew the RRR
encoding exploits), not the size of the raw value list.

Supported types (see :data:`TYPE_TAGS`): the three Wavelet Trie variants,
the LSM-style :class:`~repro.core.tiers.TieredWaveletTrie` (frozen tiers as
nested static-trie payloads plus the live dynamic tail),
:class:`~repro.db.column.CompressedColumn`, :class:`~repro.db.table.ColumnStore`,
and the full-text structures
:class:`~repro.text.fm_index.FMIndex` (BWT codes plus the sampled suffix
array; the loader rebuilds the wavelet tree without re-running suffix
sorting) and :class:`~repro.db.doc_store.DocumentStore`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.bits.bitstring import Bits
from repro.bitvector.append_only import AppendOnlyBitVector
from repro.bitvector.dynamic import DynamicBitVector
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rle import RLEBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, freeze_trie
from repro.bits.packed import PackedIntVector
from repro.bitvector.sparse import SparseBitVector
from repro.db.column import CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.storage.varint import ByteReader, ByteWriter, bits_to_runs
from repro.text.fm_index import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree
from repro.tries.binarize import (
    BytesCodec,
    FixedWidthIntCodec,
    StringCodec,
    Utf8Codec,
)

__all__ = [
    "TYPE_TAGS",
    "read_object",
    "validate_size",
    "write_object",
]

# ----------------------------------------------------------------------
# Codec (de)serialisation
# ----------------------------------------------------------------------
_CODEC_UTF8 = 1
_CODEC_BYTES = 2
_CODEC_FIXED_INT = 3


def _write_codec(writer: ByteWriter, codec: StringCodec) -> None:
    if isinstance(codec, Utf8Codec):
        writer.write_u8(_CODEC_UTF8)
    elif isinstance(codec, BytesCodec):
        writer.write_u8(_CODEC_BYTES)
    elif isinstance(codec, FixedWidthIntCodec):
        writer.write_u8(_CODEC_FIXED_INT)
        writer.write_uvarint(codec.width)
        writer.write_bool(codec.lsb_first)
    else:
        raise SerializationError(
            f"codec {type(codec).__name__} has no registered serialiser"
        )


def _read_codec(reader: ByteReader) -> StringCodec:
    tag = reader.read_u8()
    if tag == _CODEC_UTF8:
        return Utf8Codec()
    if tag == _CODEC_BYTES:
        return BytesCodec()
    if tag == _CODEC_FIXED_INT:
        width = reader.read_uvarint()
        lsb_first = reader.read_bool()
        return FixedWidthIntCodec(width, lsb_first=lsb_first)
    raise SerializationError(f"unknown codec tag {tag}")


# ----------------------------------------------------------------------
# Trie topology (labels + node bitvector contents, preorder)
# ----------------------------------------------------------------------
_NODE_ABSENT = 0
_NODE_LEAF = 1
_NODE_INTERNAL = 2

# A factory takes the decoded bitvector content and returns the node bitvector.
BitvectorFactory = Callable[[Bits], Any]


def _bitvector_content(bitvector) -> Bits:
    """The logical bit content of a node bitvector, as a :class:`Bits` value."""
    return Bits.from_iterable(bitvector.iter_range(0, len(bitvector)))


def _write_node(writer: ByteWriter, node: Optional[WaveletTrieNode]) -> None:
    if node is None:
        writer.write_u8(_NODE_ABSENT)
        return
    if node.is_leaf:
        writer.write_u8(_NODE_LEAF)
        writer.write_bits(node.label)
        return
    writer.write_u8(_NODE_INTERNAL)
    writer.write_bits(node.label)
    writer.write_bits(_bitvector_content(node.bitvector))
    _write_node(writer, node.children[0])
    _write_node(writer, node.children[1])


def _read_node(
    reader: ByteReader, factory: BitvectorFactory
) -> Optional[WaveletTrieNode]:
    kind = reader.read_u8()
    if kind == _NODE_ABSENT:
        return None
    label = reader.read_bits()
    if kind == _NODE_LEAF:
        return WaveletTrieNode(label=label)
    if kind != _NODE_INTERNAL:
        raise SerializationError(f"unknown node kind {kind}")
    content = reader.read_bits()
    node = WaveletTrieNode(label=label, bitvector=factory(content))
    left = _read_node(reader, factory)
    right = _read_node(reader, factory)
    if left is None or right is None:
        raise SerializationError("internal node with a missing child")
    node.attach(0, left)
    node.attach(1, right)
    return node


# ----------------------------------------------------------------------
# Wavelet Trie variants
# ----------------------------------------------------------------------
def _write_static_trie(writer: ByteWriter, trie: WaveletTrie) -> None:
    _write_codec(writer, trie.codec)
    writer.write_text(trie.bitvector_kind)
    writer.write_uvarint(len(trie))
    _write_node(writer, trie.root)


def _read_static_trie(reader: ByteReader) -> WaveletTrie:
    codec = _read_codec(reader)
    kind = reader.read_text()
    size = reader.read_uvarint()
    factories: Dict[str, BitvectorFactory] = {
        "rrr": RRRBitVector,
        "plain": PlainBitVector,
        "rle": RLEBitVector,
    }
    if kind not in factories:
        raise SerializationError(f"unknown static bitvector kind {kind!r}")
    trie = WaveletTrie([], codec=codec, bitvector=kind)
    trie._root = _read_node(reader, factories[kind])
    trie._size = size
    validate_size(trie, size)
    return trie


def _write_append_only_trie(writer: ByteWriter, trie: AppendOnlyWaveletTrie) -> None:
    _write_codec(writer, trie.codec)
    writer.write_uvarint(trie._block_size)
    writer.write_uvarint(len(trie))
    _write_node(writer, trie.root)


def _read_append_only_trie(reader: ByteReader) -> AppendOnlyWaveletTrie:
    codec = _read_codec(reader)
    block_size = reader.read_uvarint()
    size = reader.read_uvarint()

    def factory(content: Bits) -> AppendOnlyBitVector:
        vector = AppendOnlyBitVector(block_size=block_size)
        vector.extend(content)
        return vector

    trie = AppendOnlyWaveletTrie([], codec=codec, block_size=block_size)
    trie._root = _read_node(reader, factory)
    trie._size = size
    validate_size(trie, size)
    return trie


def _write_dynamic_trie(writer: ByteWriter, trie: DynamicWaveletTrie) -> None:
    _write_codec(writer, trie.codec)
    writer.write_uvarint(trie._seed)
    writer.write_uvarint(len(trie))
    _write_node(writer, trie.root)


def _read_dynamic_trie(reader: ByteReader) -> DynamicWaveletTrie:
    codec = _read_codec(reader)
    seed = reader.read_uvarint()
    size = reader.read_uvarint()
    trie = DynamicWaveletTrie([], codec=codec, seed=seed)

    def factory(content: Bits) -> DynamicBitVector:
        trie._next_seed = (trie._next_seed * 6364136223846793005 + 1) % (1 << 63)
        return DynamicBitVector.from_runs(bits_to_runs(content), seed=trie._next_seed)

    trie._root = _read_node(reader, factory)
    trie._size = size
    validate_size(trie, size)
    return trie


def validate_size(trie, size: int) -> None:
    """Cross-check the stored element count against the root bitvector."""
    root = trie.root
    if root is None:
        if size != 0:
            raise SerializationError("non-zero size stored for an empty trie")
        return
    if root.is_leaf:
        return  # constant sequences carry no bitvector; size cannot be checked
    if len(root.bitvector) != size:
        raise SerializationError(
            f"stored size {size} does not match root bitvector length "
            f"{len(root.bitvector)}"
        )


# ----------------------------------------------------------------------
# Database layer
# ----------------------------------------------------------------------
def _write_column(writer: ByteWriter, column: CompressedColumn) -> None:
    writer.write_text(column.name)
    writer.write_bool(column.appendable)
    index = column.index
    if isinstance(index, AppendOnlyWaveletTrie):
        writer.write_u8(TYPE_TAGS[AppendOnlyWaveletTrie])
        _write_append_only_trie(writer, index)
    elif isinstance(index, WaveletTrie):
        writer.write_u8(TYPE_TAGS[WaveletTrie])
        _write_static_trie(writer, index)
    else:
        raise SerializationError(
            f"column index of type {type(index).__name__} cannot be serialised"
        )


def _read_column(reader: ByteReader) -> CompressedColumn:
    name = reader.read_text()
    appendable = reader.read_bool()
    tag = reader.read_u8()
    if tag == TYPE_TAGS[AppendOnlyWaveletTrie]:
        index = _read_append_only_trie(reader)
    elif tag == TYPE_TAGS[WaveletTrie]:
        index = _read_static_trie(reader)
    else:
        raise SerializationError(f"unexpected column index tag {tag}")
    column = CompressedColumn(name, appendable=appendable)
    column._index = index
    column._appendable = appendable
    return column


def _write_column_store(writer: ByteWriter, store: ColumnStore) -> None:
    writer.write_uvarint(len(store))
    writer.write_uvarint(len(store.column_names))
    for name in store.column_names:
        _write_column(writer, store.column(name))


def _read_column_store(reader: ByteReader) -> ColumnStore:
    row_count = reader.read_uvarint()
    column_count = reader.read_uvarint()
    if column_count == 0:
        raise SerializationError("a serialised ColumnStore must have columns")
    columns = [_read_column(reader) for _ in range(column_count)]
    store = ColumnStore([column.name for column in columns])
    store._columns = {column.name: column for column in columns}
    store._row_count = row_count
    for column in columns:
        if len(column) != row_count:
            raise SerializationError(
                f"column {column.name!r} has {len(column)} rows, table header says {row_count}"
            )
    return store


def _write_tiered_trie(writer: ByteWriter, trie: TieredWaveletTrie) -> None:
    # The in-flight sealing tier (if any) is written as a static tier: its
    # content is sealed, so freezing it eagerly changes no logical state.
    writer.write_uvarint(trie.active_capacity)
    writer.write_uvarint(trie.compact_budget)
    writer.write_uvarint(trie._seed)
    frozen = list(trie._frozen)
    if trie._sealing is not None:
        frozen.append(freeze_trie(trie._sealing[0]))
    writer.write_uvarint(len(frozen))
    for tier in frozen:
        _write_static_trie(writer, tier)
    _write_dynamic_trie(writer, trie._active)


def _read_tiered_trie(reader: ByteReader) -> TieredWaveletTrie:
    active_capacity = reader.read_uvarint()
    compact_budget = reader.read_uvarint()
    seed = reader.read_uvarint()
    frozen = [_read_static_trie(reader) for _ in range(reader.read_uvarint())]
    active = _read_dynamic_trie(reader)
    return TieredWaveletTrie._from_parts(
        frozen, active, active.codec, active_capacity, compact_budget, seed
    )


# ----------------------------------------------------------------------
# Full-text search layer
# ----------------------------------------------------------------------
def _write_fm_index(writer: ByteWriter, fm: FMIndex) -> None:
    # The BWT codes and the sampled suffix array fully determine the index;
    # the loader rebuilds the wavelet tree and the C table from them without
    # re-running suffix sorting.
    writer.write_uvarint(fm.sa_sample)
    writer.write_text(fm.bitvector_kind)
    writer.write_uvarint(fm.text_length)
    writer.write_text(fm.alphabet)
    rows = fm.text_length + 1
    for code in fm._bwt.access_many(range(rows)):
        writer.write_uvarint(code)
    writer.write_bits(_bitvector_content(fm._marked))
    writer.write_uvarint(len(fm._samples))
    for position in fm._samples:
        writer.write_uvarint(position)
    writer.write_uvarint(len(fm._isa_samples))
    for row in fm._isa_samples:
        writer.write_uvarint(row)


def _read_fm_index(reader: ByteReader) -> FMIndex:
    sa_sample = reader.read_uvarint()
    kind = reader.read_text()
    factories = {"plain": PlainBitVector, "rrr": RRRBitVector}
    if kind not in factories:
        raise SerializationError(f"unknown BWT bitvector kind {kind!r}")
    text_length = reader.read_uvarint()
    alphabet = reader.read_text()
    rows = text_length + 1
    bwt = [reader.read_uvarint() for _ in range(rows)]
    for code in bwt:
        if code > len(alphabet):
            raise SerializationError(
                f"BWT code {code} exceeds alphabet size {len(alphabet)}"
            )
    marked = reader.read_bits()
    if len(marked) != rows:
        raise SerializationError(
            f"sample bitvector has {len(marked)} bits for {rows} BWT rows"
        )
    width = max(1, (rows - 1).bit_length())
    samples = [reader.read_uvarint() for _ in range(reader.read_uvarint())]
    isa_samples = [reader.read_uvarint() for _ in range(reader.read_uvarint())]
    if len(samples) != sum(marked):
        raise SerializationError(
            f"{len(samples)} suffix-array samples stored but "
            f"{sum(marked)} rows are marked"
        )
    return FMIndex._from_parts(
        text_length,
        alphabet,
        sa_sample,
        kind,
        HuffmanWaveletTree(bwt, bitvector_factory=factories[kind]),
        RRRBitVector(list(marked)),
        PackedIntVector(width, samples),
        PackedIntVector(width, isa_samples),
    )


def _write_doc_store(writer: ByteWriter, store: DocumentStore) -> None:
    writer.write_uvarint(len(store))
    previous = 0
    for doc in range(len(store)):
        start = store._starts.select(1, doc)
        writer.write_uvarint(start - previous)  # delta coding; ascending
        previous = start
    _write_fm_index(writer, store.fm_index)


def _read_doc_store(reader: ByteReader) -> DocumentStore:
    doc_count = reader.read_uvarint()
    starts = []
    current = 0
    for _ in range(doc_count):
        current += reader.read_uvarint()
        starts.append(current)
    fm = _read_fm_index(reader)
    if doc_count and starts[-1] >= fm.text_length:
        raise SerializationError(
            f"document start {starts[-1]} beyond text length {fm.text_length}"
        )
    vector = SparseBitVector(max(fm.text_length, 1), starts) if doc_count else None
    return DocumentStore._from_parts(fm, vector, doc_count)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Stable numeric tag of every serialisable type (written into the container
#: header; never reuse a retired number).
TYPE_TAGS: Dict[type, int] = {
    WaveletTrie: 1,
    AppendOnlyWaveletTrie: 2,
    DynamicWaveletTrie: 3,
    CompressedColumn: 4,
    ColumnStore: 5,
    # 6: retired with AccessLogStore (an append-only trie plus timestamps).
    TieredWaveletTrie: 7,
    FMIndex: 8,
    DocumentStore: 9,
}

_WRITERS: Dict[type, Callable[[ByteWriter, Any], None]] = {
    WaveletTrie: _write_static_trie,
    AppendOnlyWaveletTrie: _write_append_only_trie,
    DynamicWaveletTrie: _write_dynamic_trie,
    CompressedColumn: _write_column,
    ColumnStore: _write_column_store,
    TieredWaveletTrie: _write_tiered_trie,
    FMIndex: _write_fm_index,
    DocumentStore: _write_doc_store,
}

_READERS: Dict[int, Callable[[ByteReader], Any]] = {
    TYPE_TAGS[WaveletTrie]: _read_static_trie,
    TYPE_TAGS[AppendOnlyWaveletTrie]: _read_append_only_trie,
    TYPE_TAGS[DynamicWaveletTrie]: _read_dynamic_trie,
    TYPE_TAGS[CompressedColumn]: _read_column,
    TYPE_TAGS[ColumnStore]: _read_column_store,
    TYPE_TAGS[TieredWaveletTrie]: _read_tiered_trie,
    TYPE_TAGS[FMIndex]: _read_fm_index,
    TYPE_TAGS[DocumentStore]: _read_doc_store,
}


def write_object(obj: Any) -> Tuple[int, bytes]:
    """Serialise ``obj``; returns ``(type_tag, payload_bytes)``.

    Subclasses are matched on their exact type first and then on their bases,
    so e.g. the dynamic trie (which inherits the static query machinery) is
    dispatched to its own serialiser.
    """
    for klass in type(obj).__mro__:
        if klass in _WRITERS:
            writer = ByteWriter()
            _WRITERS[klass](writer, obj)
            return TYPE_TAGS[klass], writer.getvalue()
    raise SerializationError(
        f"objects of type {type(obj).__name__} cannot be serialised; "
        f"supported types: {sorted(c.__name__ for c in TYPE_TAGS)}"
    )


def read_object(type_tag: int, payload: bytes) -> Any:
    """Rebuild the object stored with ``type_tag`` from ``payload``."""
    if type_tag not in _READERS:
        raise SerializationError(f"unknown type tag {type_tag}")
    reader = ByteReader(payload)
    obj = _READERS[type_tag](reader)
    reader.expect_end()
    return obj
