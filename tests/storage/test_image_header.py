"""RWT2 header trust: the reader accepts only the layout the writer produces.

A frozen image's header passes its own CRC whenever a writer (buggy or
hostile) recomputes it, so the always-on open checks must not trust the
section table or the stored sizes: every entry is ``[str, int, int, int]``
with a unique name, sections sit at canonical 8-byte-aligned offsets in
table order, the file ends right after the last one, and stored sizes and
row counts agree with the structures.  The property here rewrites real
images' headers (recomputing the header CRC) and requires every mutation to
raise :class:`SerializationError` or to open an index equal to the
original -- with ``verify=False``, so the CRCs of the sections never help.
The mutations reach every field of each node bitvector's meta too
(``length``, ``ones``, ``block_size``, ``sample_rate``, ``offset_len``),
which the open checks against the mapped arrays; ``verify=True`` stays the
content check.
"""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.static import WaveletTrie
from repro.core.succinct_static import SuccinctWaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.column import CompressedColumn
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.storage import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps_image,
    loads_image,
    open_image,
)
from repro.storage.image import SECTION_ALIGN, FrozenImage
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


def _fingerprint(obj):
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
    return trie.frozen_snapshot()


def _store():
    store = ColumnStore(["url", "host"])
    store.extend({"url": url, "host": url.split("/")[0]} for url in VALUES)
    return store


IMAGES = {
    "rrr": lambda: WaveletTrie(VALUES, bitvector="rrr"),
    "plain": lambda: WaveletTrie(VALUES, bitvector="plain"),
    "succinct": lambda: SuccinctWaveletTrie(VALUES),
    "tiered": _tiered,
    "column": lambda: CompressedColumn("urls", VALUES),
    "store": _store,
}


@pytest.fixture(scope="module", params=sorted(IMAGES))
def image(request):
    data = dumps_image(IMAGES[request.param]())
    return data, _fingerprint(loads_image(data))


# The image types a header can name (a real image relabelled as another).
TYPE_NAMES = ["static_trie", "succinct_trie", "tiered_trie", "column", "column_store"]

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
    """Paths to every field of every node bitvector's meta."""
    if isinstance(meta, dict):
        for key, value in meta.items():
            if key == "bitvectors":
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


class TestRewrittenHeaders:
    def test_rewriting_the_header_unchanged_round_trips(self, image):
        data, expected = image
        header, body = _split(data)
        assert _join(header, body) == data
        assert _fingerprint(loads_image(_join(header, body))) == expected

    @settings(max_examples=125, deadline=None)
    @given(st.data())
    def test_mutated_header_raises_or_opens_the_original(self, image, data):
        raw, expected = image
        header, body = _split(raw)
        if data.draw(st.booleans()):
            _mutate_table(header, data.draw)
        else:
            _mutate_meta(header, data.draw)
        try:
            # The succinct trie wraps its node bitvectors on first touch, so
            # their checks may fire on the first query instead of the open.
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
        header["sections"][1][1] = header["sections"][0][1]
        with pytest.raises(SerializationError, match="layout"):
            loads_image(_join(header, body))

    def test_duplicate_names_are_rejected(self, image):
        raw, _ = image
        header, body = _split(raw)
        header["sections"][1][0] = header["sections"][0][0]
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

    def test_store_row_count_must_match_its_columns(self):
        raw = dumps_image(_store())
        header, body = _split(raw)
        header["meta"]["row_count"] = len(VALUES) - 1
        with pytest.raises(SerializationError, match="table header says"):
            loads_image(_join(header, body))

    def test_empty_meta_is_a_serialization_error(self):
        raw = dumps_image(WaveletTrie(VALUES))
        header, body = _split(raw)
        header["meta"] = {}
        with pytest.raises(SerializationError, match="malformed"):
            loads_image(_join(header, body))


def _with_node_meta(field, value, node=0):
    """A static RRR trie image whose ``node``'s bitvector meta says ``value``."""
    header, body = _split(dumps_image(WaveletTrie(VALUES)))
    header["meta"]["trie"]["bitvectors"][node][field] = value
    return _join(header, body)


class TestBitvectorMeta:
    def test_zero_block_size_is_rejected_at_open(self, tmp_path):
        path = tmp_path / "zero-block.rwt2"
        path.write_bytes(_with_node_meta("block_size", 0))
        with pytest.raises(SerializationError, match="block size 0"):
            open_image(path)

    def test_zero_sample_rate_is_rejected_at_open(self, tmp_path):
        path = tmp_path / "zero-sample.rwt2"
        path.write_bytes(_with_node_meta("sample_rate", 0))
        with pytest.raises(SerializationError, match="sample rate 0"):
            open_image(path)

    def test_ones_must_match_the_classes(self):
        header, _ = _split(dumps_image(WaveletTrie(VALUES)))
        ones = header["meta"]["trie"]["bitvectors"][0]["ones"]
        with pytest.raises(SerializationError, match=f"says {ones + 1} ones"):
            loads_image(_with_node_meta("ones", ones + 1))

    def test_one_node_cannot_change_its_block_size_alone(self):
        # 62 keeps a short node's block count and offset widths, so only
        # its siblings can tell.
        header, _ = _split(dumps_image(WaveletTrie(VALUES)))
        short = min(
            range(len(header["meta"]["trie"]["bitvectors"])),
            key=lambda rank: header["meta"]["trie"]["bitvectors"][rank]["length"],
        )
        with pytest.raises(SerializationError, match="disagree on block size"):
            loads_image(_with_node_meta("block_size", 62, node=short))


def test_image_size_is_header_plus_word_aligned_sections():
    # Enough distinct URLs for well over 1,000 internal trie nodes (two
    # sections each): per-section padding must stay within 8-byte words.
    values = UrlLogGenerator(seed=3).generate(6000)
    data = dumps_image(WaveletTrie(values, bitvector="rrr"))
    image = FrozenImage(data)
    internal = sum(1 for name in image.section_names() if name.endswith(".cls"))
    assert internal >= 1000
    header_length = int.from_bytes(data[8:16], "little")
    sections = sum(
        -(-length // 8) * 8 for _, length, _ in image._sections.values()
    )
    assert len(data) <= 20 + header_length + 7 + sections
