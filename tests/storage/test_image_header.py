"""Image header trust: the reader accepts only the layout the writer produces.

A frozen image's header passes its own CRC whenever a writer (buggy or
hostile) recomputes it, so the always-on open checks must not trust the
section table or the stored sizes: every entry is ``[str, int, int, int]``
with a unique name, sections sit at canonical 8-byte-aligned offsets in
table order, the file ends right after the last one, and stored sizes and
row counts agree with the structures.  The property here rewrites real
images' headers (recomputing the header CRC) and requires every mutation to
raise :class:`SerializationError` or to open an index equal to the
original -- with ``verify=False``, so the CRCs of the sections never help.
Every image type is covered.  The mutations reach every field of the shared
node bitvector's meta too (``length``, ``ones``, ``block_size``,
``sample_rate``, ``offset_len``; a Huffman tree's per-node metas likewise),
which the open checks against the mapped arrays; ``verify=True`` stays the
content check.
"""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.packed import PackedIntVector
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.column import CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.storage import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps_image,
    loads_image,
    open_image,
)
from repro.storage.image import SECTION_ALIGN, FrozenImage, ImageWriter, _write_entry
from repro.text.fm_index import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree
from repro.workloads.urls import UrlLogGenerator

VALUES = UrlLogGenerator(domains=6, depth=3, branching=3, seed=7).generate(200)


def _split(data: bytes):
    """(header dict, the data region after the header's padding)."""
    length = int.from_bytes(data[8:16], "little")
    start = -(-(20 + length) // SECTION_ALIGN) * SECTION_ALIGN
    return json.loads(data[20 : 20 + length]), data[start:]


def _join(header, body: bytes) -> bytes:
    """Re-encode ``header`` (with a fresh CRC) in front of ``body``."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = (
        IMAGE_MAGIC
        + IMAGE_VERSION.to_bytes(4, "little")
        + len(encoded).to_bytes(8, "little")
        + (zlib.crc32(encoded) & 0xFFFFFFFF).to_bytes(4, "little")
        + encoded
    )
    return prefix + bytes(-len(prefix) % SECTION_ALIGN) + body


def _trie_fingerprint(trie):
    """Length, every row, and rank/select answers for every distinct value."""
    rows = [trie.access(i) for i in range(len(trie))]
    distinct = sorted(set(rows))
    return (
        len(trie),
        rows,
        [trie.rank(value, len(trie) // 2) for value in distinct],
        [trie.rank(value, len(trie)) for value in distinct],
        [trie.select(value, 0) for value in distinct],
    )


PATTERNS = ["www", ".com/", "search1", "zz", "/"]


def _fm_fingerprint(fm):
    return (
        len(fm),
        [fm.count(pattern) for pattern in PATTERNS],
        [fm.locate(pattern) for pattern in PATTERNS[:3]],
        fm.extract(0, len(fm)),
    )


def _fingerprint(obj):
    if isinstance(obj, DocumentStore):
        return (
            [obj.document(i) for i in range(len(obj))],
            [obj.locate(pattern) for pattern in PATTERNS],
            _fm_fingerprint(obj.fm_index),
        )
    if isinstance(obj, FMIndex):
        return _fm_fingerprint(obj)
    if isinstance(obj, HuffmanWaveletTree):
        symbols = sorted(obj.codes)
        return (
            len(obj),
            [obj.access(i) for i in range(len(obj))],
            [obj.rank(symbol, len(obj) // 2) for symbol in symbols],
        )
    if isinstance(obj, PackedIntVector):
        return obj.width, obj.to_list()
    if isinstance(obj, ColumnStore):
        return (
            len(obj),
            {name: _trie_fingerprint(obj.column(name).index) for name in obj.column_names},
        )
    if isinstance(obj, CompressedColumn):
        return _trie_fingerprint(obj.index)
    return _trie_fingerprint(obj)


def _tiered():
    trie = TieredWaveletTrie(active_capacity=64)
    trie.extend(VALUES)
    trie.compact(merge=False)
    return trie


def _tiered_live():
    """Frozen tiers plus a live tail (seals at 64 rows; 8 rows stay live)."""
    trie = TieredWaveletTrie(active_capacity=64, compact_budget=1024)
    trie.extend(VALUES)
    return trie


TEXT = "\x00".join(VALUES[:40])


def _store():
    store = ColumnStore(["url", "host"])
    store.extend({"url": url, "host": url.split("/")[0]} for url in VALUES)
    return store


IMAGES = {
    "rrr": lambda: WaveletTrie(VALUES, bitvector="rrr"),
    "plain": lambda: WaveletTrie(VALUES, bitvector="plain"),
    "append_only": lambda: AppendOnlyWaveletTrie(VALUES),
    "dynamic": lambda: DynamicWaveletTrie(VALUES),
    "tiered": _tiered,
    "tiered_live": _tiered_live,
    "column": lambda: CompressedColumn("urls", VALUES),
    "static_column": lambda: CompressedColumn("urls", VALUES, appendable=False),
    "store": _store,
    "huffman": lambda: HuffmanWaveletTree([ord(char) for char in TEXT]),
    "packed": lambda: PackedIntVector(11, range(0, 2000, 7)),
    "fm_index": lambda: FMIndex(TEXT, sa_sample=4),
    "fm_index_rrr": lambda: FMIndex(TEXT, sa_sample=4, bitvector="rrr"),
    "doc_store": lambda: DocumentStore(VALUES[:40], sa_sample=4),
}


# One value: the root is a leaf, which must receive every row.  Its row
# count is stored only as the size, so a size rewritten to another positive
# count describes another valid image: these feed every header test but
# the mutation property, and TestStoredSizes rejects a leaf with no rows.
LONE_LEAF_IMAGES = {
    "one_value": lambda: WaveletTrie(["a"] * 5),
    "huffman_one_value": lambda: HuffmanWaveletTree([7] * 5),
}


def _image(name):
    data = dumps_image({**IMAGES, **LONE_LEAF_IMAGES}[name]())
    return data, _fingerprint(loads_image(data))


@pytest.fixture(scope="module", params=sorted(IMAGES) + sorted(LONE_LEAF_IMAGES))
def image(request):
    return _image(request.param)


@pytest.fixture(scope="module", params=sorted(IMAGES))
def sized_image(request):
    """An image whose stored sizes the structure pins."""
    return _image(request.param)


# The image types a header can name (a real image relabelled as another).
TYPE_NAMES = [
    "static_trie",
    "append_only_trie",
    "dynamic_trie",
    "tiered_trie",
    "column",
    "column_store",
    "huffman_tree",
    "packed_ints",
    "fm_index",
    "document_store",
]

# JSON values a rewritten header can carry in place of a well-formed one.
ODD_VALUES = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(-16, 16),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 3), max_size=3),
)


def _mutate_table(header, draw):
    table = header["sections"]
    i = draw(st.integers(0, len(table) - 1))
    kind = draw(
        st.sampled_from(
            ["field", "length", "offset", "name", "drop", "dup", "swap",
             "short", "long", "sections"]
        )
    )
    if kind == "field":
        table[i][draw(st.integers(0, 3))] = draw(ODD_VALUES)
    elif kind == "length":
        table[i][2] += draw(st.integers(-9, 9).filter(bool))
    elif kind == "offset":
        table[i][1] += draw(st.integers(-16, 16).filter(bool))
    elif kind == "name":
        table[i][0] = table[draw(st.integers(0, len(table) - 1))][0] + draw(
            st.sampled_from(["", "x"])
        )
    elif kind == "drop":
        del table[i]
    elif kind == "dup":
        table.insert(draw(st.integers(0, len(table))), list(table[i]))
    elif kind == "swap":
        j = draw(st.integers(0, len(table) - 1))
        table[i], table[j] = table[j], table[i]
    elif kind == "short":
        table[i] = table[i][:2]
    elif kind == "long":
        table[i] = table[i] + [0]
    else:
        header["sections"] = draw(ODD_VALUES)


def _int_fields(meta, keys, path=()):
    """Paths to every int stored under one of ``keys`` in a meta tree."""
    if isinstance(meta, dict):
        for key, value in meta.items():
            if key in keys and isinstance(value, int):
                yield path + (key,)
            else:
                yield from _int_fields(value, keys, path + (key,))
    elif isinstance(meta, list):
        for position, value in enumerate(meta):
            yield from _int_fields(value, keys, path + (position,))


def _bitvector_fields(meta, path=()):
    """Paths to every field of every node bitvector's meta: a trie's shared
    vector (``bitvector``) and a Huffman tree's nodes (``bitvectors``)."""
    if isinstance(meta, dict):
        for key, value in meta.items():
            if key in ("bitvector", "bitvectors"):
                yield from _int_fields(value, BITVECTOR_FIELDS, path + (key,))
            else:
                yield from _bitvector_fields(value, path + (key,))
    elif isinstance(meta, list):
        for position, value in enumerate(meta):
            yield from _bitvector_fields(value, path + (position,))


BITVECTOR_FIELDS = ("length", "ones", "block_size", "sample_rate", "offset_len")


def _mutate_meta(header, draw):
    kind = draw(st.sampled_from(["size", "bitvector", "empty", "replace", "type"]))
    if kind == "size":
        paths = list(_int_fields(header["meta"], ("size", "row_count")))
    else:
        paths = list(_bitvector_fields(header["meta"]))
    if kind in ("size", "bitvector") and paths:
        *parents, last = draw(st.sampled_from(paths))
        node = header["meta"]
        for key in parents:
            node = node[key]
        node[last] = draw(
            st.one_of(
                st.integers(-3, 400),
                st.integers(-9, 9).map(lambda delta: node[last] + delta),
                ODD_VALUES,
            )
        )
    elif kind == "empty":
        header["meta"] = {}
    elif kind == "replace":
        header["meta"] = draw(ODD_VALUES)
    else:
        header["type"] = draw(st.one_of(st.sampled_from(TYPE_NAMES), ODD_VALUES))


def _second_entry(header):
    """The table's second entry; a one-section image gets a copy of its
    first entry appended as one."""
    table = header["sections"]
    if len(table) < 2:
        table.append([table[0][0] + "2"] + table[0][1:])
    return table[1]


class TestRewrittenHeaders:
    def test_rewriting_the_header_unchanged_round_trips(self, image):
        data, expected = image
        header, body = _split(data)
        assert _join(header, body) == data
        assert _fingerprint(loads_image(_join(header, body))) == expected

    @settings(max_examples=125, deadline=None)
    @given(st.data())
    def test_mutated_header_raises_or_opens_the_original(self, sized_image, data):
        raw, expected = sized_image
        header, body = _split(raw)
        if data.draw(st.booleans()):
            _mutate_table(header, data.draw)
        else:
            _mutate_meta(header, data.draw)
        try:
            fingerprint = _fingerprint(loads_image(_join(header, body)))
        except SerializationError:
            return
        assert fingerprint == expected

    def test_negative_offset_and_length_are_rejected(self, image):
        raw, _ = image
        for field in (1, 2):
            header, body = _split(raw)
            header["sections"][0][field] = -8
            with pytest.raises(SerializationError, match="breaks the layout"):
                loads_image(_join(header, body))

    def test_two_entries_naming_the_same_bytes_are_rejected(self, image):
        raw, _ = image
        header, body = _split(raw)
        _second_entry(header)[1] = header["sections"][0][1]
        with pytest.raises(SerializationError, match="layout"):
            loads_image(_join(header, body))

    def test_duplicate_names_are_rejected(self, image):
        raw, _ = image
        header, body = _split(raw)
        _second_entry(header)[0] = header["sections"][0][0]
        with pytest.raises(SerializationError, match="duplicate section name"):
            loads_image(_join(header, body))

    def test_trailing_bytes_are_rejected(self, image):
        raw, _ = image
        with pytest.raises(SerializationError, match="section table describes"):
            loads_image(raw + bytes(SECTION_ALIGN))


class TestStoredSizes:
    def test_a_smaller_stored_size_is_rejected(self):
        raw = dumps_image(WaveletTrie(VALUES))
        header, body = _split(raw)
        header["meta"]["trie"]["size"] = 7
        with pytest.raises(SerializationError, match="stored size 7"):
            loads_image(_join(header, body))

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_one_value_trie_must_route_its_rows_to_the_leaf(self, size):
        header, body = _split(dumps_image(WaveletTrie(["a"] * 5)))
        header["meta"]["trie"]["size"] = size
        with pytest.raises(SerializationError, match="receives no rows"):
            loads_image(_join(header, body))

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_one_symbol_huffman_tree_must_route_its_rows_to_the_leaf(self, size):
        header, body = _split(dumps_image(HuffmanWaveletTree([7] * 5)))
        header["meta"]["size"] = size
        with pytest.raises(SerializationError, match="receives no rows"):
            loads_image(_join(header, body))

    def test_store_row_count_must_match_its_columns(self):
        raw = dumps_image(_store())
        header, body = _split(raw)
        header["meta"]["row_count"] = len(VALUES) - 1
        with pytest.raises(SerializationError, match="table header says"):
            loads_image(_join(header, body))

    def test_an_appendable_column_needs_a_growable_index(self):
        raw = dumps_image(CompressedColumn("urls", VALUES, appendable=False))
        header, body = _split(raw)
        header["meta"]["appendable"] = True
        with pytest.raises(SerializationError, match="appendable over a static index"):
            loads_image(_join(header, body))

    def test_empty_meta_is_a_serialization_error(self):
        raw = dumps_image(WaveletTrie(VALUES))
        header, body = _split(raw)
        header["meta"] = {}
        with pytest.raises(SerializationError, match="malformed"):
            loads_image(_join(header, body))


def _with_shared_meta(field, value):
    """A static RRR trie image whose shared node bitvector's meta says ``value``."""
    header, body = _split(dumps_image(WaveletTrie(VALUES)))
    header["meta"]["trie"]["bitvector"][field] = value
    return _join(header, body)


class TestBitvectorMeta:
    def test_zero_block_size_is_rejected_at_open(self, tmp_path):
        path = tmp_path / "zero-block.rwt2"
        path.write_bytes(_with_shared_meta("block_size", 0))
        with pytest.raises(SerializationError, match="block size 0"):
            open_image(path)

    def test_zero_sample_rate_is_rejected_at_open(self, tmp_path):
        path = tmp_path / "zero-sample.rwt2"
        path.write_bytes(_with_shared_meta("sample_rate", 0))
        with pytest.raises(SerializationError, match="sample rate 0"):
            open_image(path)

    def test_ones_must_match_the_classes(self):
        header, _ = _split(dumps_image(WaveletTrie(VALUES)))
        ones = header["meta"]["trie"]["bitvector"]["ones"]
        with pytest.raises(SerializationError, match=f"says {ones + 1} ones"):
            loads_image(_with_shared_meta("ones", ones + 1))

    @pytest.mark.parametrize("block_size", [31, 62])
    def test_the_shared_block_size_must_match_its_block_count(self, block_size):
        with pytest.raises(SerializationError, match="block classes"):
            loads_image(_with_shared_meta("block_size", block_size))


class _HalvedSuper(ImageWriter):
    """Writes a node vector's ``bv.super`` directory with half its entries;
    the section's CRC is the CRC of what it writes."""

    def add_i64(self, name, values):
        values = list(values)
        if name.endswith("bv.super"):
            values = values[: len(values) // 2]
        super().add_i64(name, values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: WaveletTrie(
            ["/v%d/%d" % (i % 50, i % 7) for i in range(5000)], bitvector="plain"
        ),
        lambda: FMIndex("abracadabra banana " * 40),
    ],
    ids=["plain_trie", "fm_index"],
)
def test_a_plain_vector_needs_its_whole_super_directory(make):
    """Every CRC of the image is valid, so only the check of a plain
    vector's ``super`` against its word count and its ones stops the open
    (else ``ones`` and every rank read the halved directory)."""
    sink = _HalvedSuper()
    entry = _write_entry(make(), sink, "")
    data = sink.tobytes(entry["type"], entry["meta"])
    with pytest.raises(SerializationError, match="super"):
        loads_image(data, verify=True)


# Images that name a node-bitvector kind, and the meta that holds it.
KIND_HOLDERS = {
    "static_trie": (lambda: WaveletTrie(VALUES), lambda meta: meta["trie"]),
    "huffman_tree": (lambda: HuffmanWaveletTree([3, 1, 4, 1, 5, 9, 2, 6] * 9), lambda meta: meta),
    "fm_index": (lambda: FMIndex("abracadabra banana " * 9), lambda meta: meta["bwt"]),
}


class TestNodeBitvectorKind:
    @pytest.mark.parametrize("image_type", sorted(KIND_HOLDERS))
    def test_an_unknown_kind_is_rejected_at_open(self, tmp_path, image_type):
        """A static trie image names its node-bitvector kind, and so do the
        Huffman tree and the FM-index's BWT, which open through the static
        trie's loader.  A kind with no bitvector class, such as ``rle``, is
        refused before any section is read as a bitvector."""
        make, holder = KIND_HOLDERS[image_type]
        header, body = _split(dumps_image(make()))
        holder(header["meta"])["kind"] = "rle"
        path = tmp_path / "rle.rwt2"
        path.write_bytes(_join(header, body))
        with pytest.raises(SerializationError, match="node-bitvector kind 'rle'"):
            open_image(path)


def _layout(rows):
    """(section count, header length, file length) of a static RRR trie
    image over ``rows`` URLs."""
    data = dumps_image(WaveletTrie(UrlLogGenerator(seed=3).generate(rows), bitvector="rrr"))
    return len(FrozenImage(data).section_names()), int.from_bytes(data[8:16], "little"), data


def test_header_is_constant_in_the_node_count():
    """600 and 6,000 rows (over 1,000 internal nodes) give the same section
    set and a header that differs only in the digits of its numbers."""
    small_sections, small_header, _ = _layout(600)
    large_sections, large_header, data = _layout(6000)
    image = FrozenImage(data)
    internal = len(image.meta["trie"]["node_offsets"]) and sum(
        1 for _ in range(image.meta["trie"]["node_offsets"]["count"])
    )
    assert internal >= 1000
    assert small_sections == large_sections == 20
    assert abs(large_header - small_header) < 64
    # The file is the header plus word-aligned sections.
    sections = sum(-(-length // 8) * 8 for _, length, _ in image._sections.values())
    assert len(data) <= 20 + large_header + 7 + sections
