"""The RWT2 image: the one on-disk format, memory-mapped zero-copy.

Every persisted object -- each trie flavour, columns and stores, the
Huffman wavelet tree, packed integer vectors, the FM-index and the document
store -- is written as an *image*: its kernel word arrays, rank/select
directories and topology dumped verbatim as little-endian uint64 (or
narrower) sections, each 8-byte aligned, behind a JSON header holding a
section table with one CRC-32 per section.  :func:`open_image` memory-maps
the file and hands every static structure a zero-copy view of the mapped
bytes (``np.frombuffer`` under the numpy backend, an int-yielding
``memoryview`` cast under pure python), so a cold open of a static index
costs O(header + nodes) and N worker processes share one page-cache copy.

A growable trie (append-only, dynamic, a tiered trie's live tail) is
written as its frozen snapshot (:func:`~repro.core.tiers.freeze_trie`) plus
its parameters and is thawed on open (:func:`~repro.core.tiers.thaw`), so
it reopens as the same flavour and keeps taking writes.

File layout::

    offset 0   : magic  b"RWT2"                     (4 bytes)
    offset 4   : format version, uint32 LE          (4 bytes)
    offset 8   : header JSON length, uint64 LE      (8 bytes)
    offset 16  : header JSON CRC-32, uint32 LE      (4 bytes)
    offset 20  : header JSON  {"type", "meta", "sections"}
    ...        : zero padding to the next 8-byte boundary (= data_start)
    data_start : sections in table order, each starting where the previous
                 one ends, rounded up to 8 bytes; the file ends the same way

Section table entries are ``[name, offset_relative_to_data_start, length,
crc32]``; offsets are relative so the header can be sized before any
absolute offset is known.  The uint64 views need only 8-byte alignment (an
mmap starts on a page boundary), so padding costs at most 7 bytes a
section.  The reader accepts exactly the layout the writer produces -- a
well-formed table of unique names, canonical offsets, a file ending after
the last section -- plus stored sizes that agree with the structures, all
checked at open; ``verify=True`` (what :func:`load` and :func:`loads` use)
adds the per-section CRCs and zero padding, so any flipped byte raises.
Aliasing rule: everything returned by the loader is read-only and aliases
the mapped buffer -- the buffer stays alive as long as any loaded structure
does, and mutating the file while views exist is undefined behaviour.  See
docs/ARCHITECTURE.md, "Storage".
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Any, BinaryIO, Callable, Dict, List, Tuple, Union

from repro.bits import kernel
from repro.bits.packed import PackedIntVector
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, TrieFreezer, freeze_trie, thaw
from repro.db.column import CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.text.fm_index import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree
from repro.tries.binarize import (
    BytesCodec,
    FixedWidthIntCodec,
    StringCodec,
    Utf8Codec,
)

__all__ = [
    "IMAGE_MAGIC",
    "IMAGE_VERSION",
    "SECTION_ALIGN",
    "ImageWriter",
    "FrozenImage",
    "dumps",
    "dumps_image",
    "load",
    "loads",
    "loads_image",
    "save",
    "save_image",
    "open_image",
]

IMAGE_MAGIC = b"RWT2"
IMAGE_VERSION = 6
SECTION_ALIGN = 8

# magic + u32 version + u64 header length + u32 header CRC.
_HEADER_FIXED = 20


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) & ~(SECTION_ALIGN - 1)


def _le_bytes(typecode: str, values) -> bytes:
    """Encode an int sequence as little-endian fixed-width bytes."""
    if isinstance(values, memoryview):
        if values.format == typecode and sys.byteorder == "little":
            return bytes(values)
        values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        tolist = getattr(values, "tolist", None)  # numpy arrays
        if tolist is not None:
            values = tolist()
    encoded = array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian platforms only
        encoded.byteswap()
    return encoded.tobytes()


class ImageWriter:
    """Collects named sections and assembles the RWT2 byte layout.

    Structures append their arrays through the typed ``add_*`` methods
    (everything is normalised to little-endian bytes); :meth:`tobytes`
    computes the aligned physical layout, the per-section CRCs and the
    header, and returns the complete file image.
    """

    def __init__(self) -> None:
        self._sections: List[Tuple[str, bytes]] = []
        self._names: set = set()

    def _add(self, name: str, data: bytes) -> None:
        if name in self._names:
            raise SerializationError(f"duplicate image section name {name!r}")
        self._names.add(name)
        self._sections.append((name, data))

    def add_u64(self, name: str, values) -> None:
        """Add a section of unsigned 64-bit words (the kernel word layout)."""
        self._add(name, _le_bytes("Q", values))

    def add_i64(self, name: str, values) -> None:
        """Add a section of signed 64-bit integers (directory cumulatives)."""
        self._add(name, _le_bytes("q", values))

    def add_u16(self, name: str, values) -> None:
        """Add a section of unsigned 16-bit integers (in-superblock counts)."""
        self._add(name, _le_bytes("H", values))

    def add_bytes(self, name: str, data: bytes) -> None:
        """Add a raw byte section (popcount bytes, RRR class bytes)."""
        self._add(name, bytes(data))

    def tobytes(self, type_name: str, meta: dict) -> bytes:
        """Assemble the complete RWT2 file image (one copy of the data)."""
        table: List[List[Any]] = []
        relative = 0
        for name, data in self._sections:
            table.append([name, relative, len(data), zlib.crc32(data) & 0xFFFFFFFF])
            relative = _align(relative + len(data))
        header = json.dumps(
            {"type": type_name, "meta": meta, "sections": table},
            separators=(",", ":"),
        ).encode("utf-8")
        parts = [
            IMAGE_MAGIC,
            IMAGE_VERSION.to_bytes(4, "little"),
            len(header).to_bytes(8, "little"),
            (zlib.crc32(header) & 0xFFFFFFFF).to_bytes(4, "little"),
            header,
            _padding(_HEADER_FIXED + len(header)),
        ]
        for _, data in self._sections:
            parts.append(data)
            parts.append(_padding(len(data)))
        return b"".join(parts)


def _padding(length: int) -> bytes:
    """The zero bytes that round ``length`` up to the section alignment."""
    return bytes(_align(length) - length)


def _check_itemsize(view: memoryview, itemsize: int) -> memoryview:
    if view.nbytes % itemsize:
        raise SerializationError(
            f"section length {view.nbytes} is not a multiple of {itemsize}"
        )
    return view


def _scalar_view(view: memoryview, typecode: str, itemsize: int):
    """Cast a section to an int-yielding fixed-width read-only view."""
    _check_itemsize(view, itemsize)
    if sys.byteorder == "little":
        return view.cast(typecode)
    count = view.nbytes // itemsize  # pragma: no cover - big-endian only
    return struct.unpack(f"<{count}{typecode}", view)


class FrozenImage:
    """A parsed RWT2 container over an open buffer (mmap region or bytes).

    Presents each named section as a zero-copy view: :meth:`section` yields
    the raw bytes, :meth:`words` / :meth:`int64` / :meth:`uint16` the typed
    casts the structure loaders consume.  All views are read-only and alias
    the buffer; the image (and therefore the mapping) stays alive as long
    as any view-holding structure does.
    """

    def __init__(self, buffer, verify: bool = False, source: str = "<buffer>") -> None:
        view = memoryview(buffer)
        if not view.readonly:
            view = view.toreadonly()
        self._buffer = view
        self._source = source
        total = view.nbytes
        if total < _HEADER_FIXED:
            raise SerializationError(
                f"{source}: too short to be a frozen image ({total} bytes)"
            )
        magic = bytes(view[0:4])
        if magic != IMAGE_MAGIC:
            raise SerializationError(
                f"{source}: bad magic {magic!r}, expected {IMAGE_MAGIC!r}"
            )
        version = int.from_bytes(view[4:8], "little")
        if version != IMAGE_VERSION:
            raise SerializationError(
                f"{source}: unsupported image version: found {version}, "
                f"expected {IMAGE_VERSION}"
            )
        header_length = int.from_bytes(view[8:16], "little")
        if _HEADER_FIXED + header_length > total:
            raise SerializationError(f"{source}: header is truncated")
        header = bytes(view[_HEADER_FIXED : _HEADER_FIXED + header_length])
        stored_crc = int.from_bytes(view[16:20], "little")
        actual_crc = zlib.crc32(header) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise SerializationError(
                f"{source}: header checksum mismatch: stored {stored_crc:#010x}, "
                f"computed {actual_crc:#010x}"
            )
        try:
            parsed = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SerializationError(
                f"{source}: header is not valid JSON ({error})"
            ) from error
        try:
            self.type_name = parsed["type"]
            self.meta = parsed["meta"]
            entries = parsed["sections"]
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"{source}: header is missing required fields ({error})"
            ) from error
        if not (
            isinstance(self.type_name, str)
            and isinstance(self.meta, dict)
            and isinstance(entries, list)
        ):
            raise SerializationError(
                f"{source}: header needs a string type, an object meta and "
                "a section list"
            )
        # Always-on (cheap) table checks, run even when per-section CRCs are
        # not verified: every entry well-formed and uniquely named, and the
        # sections laid out exactly as the writer lays them out.
        data_start = _align(_HEADER_FIXED + header_length)
        self._header_end = _HEADER_FIXED + header_length
        self._data_start = data_start
        self._sections: Dict[str, Tuple[int, int, int]] = {}
        end = 0  # canonical offset of the next section, relative
        for entry in entries:
            if not (
                isinstance(entry, list)
                and len(entry) == 4
                and isinstance(entry[0], str)
                and all(type(field) is int for field in entry[1:])
            ):
                raise SerializationError(
                    f"{source}: malformed section entry {entry!r} "
                    "(expected [name, offset, length, crc32])"
                )
            name, relative, length, crc = entry
            if name in self._sections:
                raise SerializationError(
                    f"{source}: duplicate section name {name!r}"
                )
            if relative != end or length < 0:
                raise SerializationError(
                    f"{source}: section {name!r} at offset {relative} with "
                    f"length {length} breaks the layout (expected offset {end})"
                )
            offset = data_start + relative
            if offset + length > total:
                raise SerializationError(
                    f"{source}: section {name!r} is truncated "
                    f"(needs bytes up to {offset + length}, file has {total})"
                )
            self._sections[name] = (offset, length, crc)
            end = _align(relative + length)
        if data_start + end != total:
            raise SerializationError(
                f"{source}: file has {total} bytes, its section table "
                f"describes {data_start + end}"
            )
        if verify:
            self.verify_checksums()

    def section_names(self) -> List[str]:
        """All section names, in file order by construction."""
        return list(self._sections)

    def section(self, name: str) -> memoryview:
        """The raw bytes of a section as a read-only zero-copy view."""
        try:
            offset, length, _ = self._sections[name]
        except KeyError:
            raise SerializationError(
                f"{self._source}: frozen image has no section {name!r}"
            ) from None
        return self._buffer[offset : offset + length]

    def words(self, name: str):
        """A section as an int-yielding uint64 word view (kernel layout)."""
        return kernel.int_words_view(_check_itemsize(self.section(name), 8))

    def int64(self, name: str):
        """A section as an int-yielding signed 64-bit view."""
        return _scalar_view(self.section(name), "q", 8)

    def uint16(self, name: str):
        """A section as an int-yielding unsigned 16-bit view."""
        return _scalar_view(self.section(name), "H", 2)

    def verify_checksums(self) -> None:
        """Check every section's CRC-32 and that every padding byte is zero
        (touches all mapped pages), so any flipped byte raises."""
        for name, (offset, length, crc) in self._sections.items():
            actual = zlib.crc32(self._buffer[offset : offset + length]) & 0xFFFFFFFF
            if actual != crc:
                raise SerializationError(
                    f"{self._source}: section {name!r} checksum mismatch: "
                    f"stored {crc:#010x}, computed {actual:#010x}"
                )
        padding = [(self._header_end, self._data_start)] + [
            (offset + length, _align(offset + length))
            for offset, length, _ in self._sections.values()
        ]
        if any(self._buffer[lo:hi].tobytes().strip(b"\0") for lo, hi in padding):
            raise SerializationError(f"{self._source}: nonzero padding bytes")


# ----------------------------------------------------------------------
# Codec headers
# ----------------------------------------------------------------------
def _codec_meta(codec: StringCodec) -> dict:
    if isinstance(codec, Utf8Codec):
        return {"kind": "utf8"}
    if isinstance(codec, BytesCodec):
        return {"kind": "bytes"}
    if isinstance(codec, FixedWidthIntCodec):
        return {
            "kind": "fixed_int",
            "width": codec.width,
            "lsb_first": codec.lsb_first,
        }
    raise SerializationError(
        f"codec {type(codec).__name__} cannot be written to a frozen image"
    )


def _codec_from_meta(meta: dict) -> StringCodec:
    kind = meta.get("kind")
    if kind == "utf8":
        return Utf8Codec()
    if kind == "bytes":
        return BytesCodec()
    if kind == "fixed_int":
        return FixedWidthIntCodec(int(meta["width"]), bool(meta["lsb_first"]))
    raise SerializationError(f"unknown codec kind {kind!r} in frozen image")


# ----------------------------------------------------------------------
# Per-type image writers and loaders.  A writer puts its sections under a
# name prefix and returns the meta its loader needs; nested objects (a
# column's index, a store's columns, a tiered trie's tiers) nest prefixes.
# ----------------------------------------------------------------------
def _write_static_trie(trie, sink: ImageWriter, prefix: str) -> dict:
    return {"codec": _codec_meta(trie.codec), "trie": trie.to_words_image(sink, prefix)}


def _open_static_trie(image: "FrozenImage", meta: dict, prefix: str):
    return WaveletTrie.from_words_image(
        image, prefix, meta["trie"], codec=_codec_from_meta(meta["codec"])
    )


def _write_append_only_trie(trie, sink: ImageWriter, prefix: str) -> dict:
    meta = _write_static_trie(freeze_trie(trie), sink, prefix)
    meta["block_size"] = trie._block_size
    return meta


def _open_append_only_trie(image: "FrozenImage", meta: dict, prefix: str):
    frozen = _open_static_trie(image, meta, prefix)
    return thaw(frozen, AppendOnlyWaveletTrie, block_size=int(meta["block_size"]))


def _write_dynamic_trie(trie, sink: ImageWriter, prefix: str) -> dict:
    meta = _write_static_trie(freeze_trie(trie), sink, prefix)
    meta["seed"] = trie._seed
    return meta


def _open_dynamic_trie(image: "FrozenImage", meta: dict, prefix: str):
    frozen = _open_static_trie(image, meta, prefix)
    return thaw(frozen, DynamicWaveletTrie, seed=int(meta["seed"]))


def _write_tiered_trie(trie: TieredWaveletTrie, sink: ImageWriter, prefix: str) -> dict:
    # A seal in flight is frozen eagerly: its content is sealed, so this
    # changes no logical state, and the live instance keeps its freezer.
    tiers = list(trie._frozen)
    if trie._sealing is not None:
        tiers.append(TrieFreezer(trie._sealing[0]).finish())
    active = trie._active
    return {
        "codec": _codec_meta(trie.codec),
        "active_capacity": trie.active_capacity,
        "compact_budget": trie.compact_budget,
        "seed": trie._seed,
        "tiers": [
            tier.to_words_image(sink, f"{prefix}t{position}.")
            for position, tier in enumerate(tiers)
        ],
        "tail": {
            "seed": active._seed,
            "trie": freeze_trie(active).to_words_image(sink, prefix + "tail."),
        }
        if len(active)
        else None,
    }


def _open_tiered_trie(image: "FrozenImage", meta: dict, prefix: str) -> TieredWaveletTrie:
    codec = _codec_from_meta(meta["codec"])
    tiers = [
        WaveletTrie.from_words_image(image, f"{prefix}t{position}.", tier, codec=codec)
        for position, tier in enumerate(meta["tiers"])
    ]
    tail = meta["tail"]
    if tail is not None:
        frozen = WaveletTrie.from_words_image(
            image, prefix + "tail.", tail["trie"], codec=codec
        )
        tail = thaw(frozen, DynamicWaveletTrie, seed=int(tail["seed"]))
    return TieredWaveletTrie._from_parts(
        tiers,
        tail,
        codec,
        int(meta["active_capacity"]),
        int(meta["compact_budget"]),
        int(meta["seed"]),
    )


def _write_column(column: CompressedColumn, sink: ImageWriter, prefix: str) -> dict:
    return {
        "name": column.name,
        "appendable": column.appendable,
        "index": _write_entry(column.index, sink, prefix),
    }


def _open_column(image: "FrozenImage", meta: dict, prefix: str) -> CompressedColumn:
    index = _open_entry(image, meta["index"], prefix)
    if not isinstance(meta["name"], str) or not isinstance(meta["appendable"], bool):
        raise SerializationError("a column needs a string name and a bool appendable")
    if meta["appendable"] and isinstance(index, WaveletTrie):
        raise SerializationError(
            f"column {meta['name']!r} is appendable over a static index"
        )
    return CompressedColumn.from_index(meta["name"], index, appendable=meta["appendable"])


def _write_store(store: ColumnStore, sink: ImageWriter, prefix: str) -> dict:
    return {
        "row_count": len(store),
        "columns": [
            _write_column(store.column(name), sink, f"{prefix}c{position}.")
            for position, name in enumerate(store.column_names)
        ],
    }


def _open_store(image: "FrozenImage", meta: dict, prefix: str) -> ColumnStore:
    columns = [
        _open_column(image, column, f"{prefix}c{position}.")
        for position, column in enumerate(meta["columns"])
    ]
    store = ColumnStore([column.name for column in columns])
    store._row_count = int(meta["row_count"])
    store._columns = {column.name: column for column in columns}
    for column in columns:
        if len(column) != store._row_count:
            raise SerializationError(
                f"column {column.name!r} has {len(column)} rows, "
                f"table header says {store._row_count}"
            )
    return store


def _structure(cls):
    """Writer and loader of a structure that images itself."""
    return (
        lambda obj, sink, prefix: obj.to_words_image(sink, prefix),
        lambda image, meta, prefix: cls.from_words_image(image, prefix, meta),
    )


#: Every persisted type: ``type -> (image type name, writer, loader)``.
_TYPES = {
    WaveletTrie: ("static_trie", _write_static_trie, _open_static_trie),
    AppendOnlyWaveletTrie: (
        "append_only_trie", _write_append_only_trie, _open_append_only_trie
    ),
    DynamicWaveletTrie: ("dynamic_trie", _write_dynamic_trie, _open_dynamic_trie),
    TieredWaveletTrie: ("tiered_trie", _write_tiered_trie, _open_tiered_trie),
    CompressedColumn: ("column", _write_column, _open_column),
    ColumnStore: ("column_store", _write_store, _open_store),
    HuffmanWaveletTree: ("huffman_tree", *_structure(HuffmanWaveletTree)),
    PackedIntVector: ("packed_ints", *_structure(PackedIntVector)),
    FMIndex: ("fm_index", *_structure(FMIndex)),
    DocumentStore: ("document_store", *_structure(DocumentStore)),
}

_LOADERS = {name: loader for name, _, loader in _TYPES.values()}


def _write_entry(obj, sink: ImageWriter, prefix: str) -> dict:
    """``{"type", "meta"}`` of ``obj``, its sections written under ``prefix``."""
    entry = _TYPES.get(type(obj))
    if entry is None:
        raise SerializationError(
            f"objects of type {type(obj).__name__} cannot be written as a frozen "
            f"image; supported types: {sorted(cls.__name__ for cls in _TYPES)}"
        )
    type_name, writer, _ = entry
    return {"type": type_name, "meta": writer(obj, sink, prefix)}


def _open_entry(image: "FrozenImage", entry: dict, prefix: str):
    loader = _LOADERS.get(entry["type"])
    if loader is None:
        raise SerializationError(
            f"unknown image type {entry['type']!r} (this build reads {sorted(_LOADERS)})"
        )
    return loader(image, entry["meta"], prefix)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def dumps_image(obj) -> bytes:
    """Serialise ``obj`` to image bytes; it is not changed or frozen."""
    sink = ImageWriter()
    entry = _write_entry(obj, sink, "")
    return sink.tobytes(entry["type"], entry["meta"])


def loads_image(data, verify: bool = False):
    """Open an image held in a bytes-like buffer (zero-copy views)."""
    image = FrozenImage(data, verify=verify)
    return _load_from_image(image)


def write_durably(path: Union[str, os.PathLike], write: Callable[[BinaryIO], Any]):
    """Replace ``path`` with what ``write(handle)`` writes; returns its result.

    The bytes go to a temporary sibling file of a unique name, which is
    fsynced before ``os.replace`` renames it over ``path``; the directory is
    fsynced after, so the rename itself is durable.  A crash or power loss
    at any point leaves either the old file or the whole new one, never an
    empty or partial file under ``path``.  Saves of one path that overlap
    (a write callback that saves the same path) each publish whole, the last
    rename winning; a callback that raises leaves ``path`` untouched and no
    temporary file.  The file gets the permissions ``open(path, "wb")``
    would give it.
    """
    path = os.fspath(path)
    temporary = f"{path}.{os.urandom(8).hex()}.tmp"
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            result = write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return result


def save_image(obj, path: Union[str, os.PathLike]) -> int:
    """Write ``obj`` as an image file; returns the bytes written.

    The write is atomic and durable (:func:`write_durably`).
    """
    data = dumps_image(obj)  # before the temporary file: a rejected type leaves none
    return write_durably(path, lambda handle: handle.write(data))


def open_image(path: Union[str, os.PathLike], verify: bool = False):
    """Memory-map an image file and open its object with zero-copy views.

    No word array is read, decoded or copied for a static structure --
    pages fault in lazily on first query and are shared across every
    process that opens the same file; a growable trie is thawed.
    ``verify=True`` additionally checks each section's CRC-32 and the zero
    padding, which touches all pages (section-table bounds are always
    validated, so plain truncation is caught either way).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            raise SerializationError(
                f"{path}: cannot map file ({error})"
            ) from error
    image = FrozenImage(mapped, verify=verify, source=str(path))
    return _load_from_image(image)


#: The library's writer and reader names: one format, so ``save``/``dumps``
#: are the image writers, and ``load``/``loads`` open with every section
#: CRC verified (a flipped byte raises); the serving paths call
#: :func:`open_image`, which trusts section contents.
save = save_image
dumps = dumps_image


def load(path: Union[str, os.PathLike]):
    """Open the object stored at ``path``, verifying every section CRC."""
    return open_image(path, verify=True)


def loads(data):
    """Open the object stored in ``data``, verifying every section CRC."""
    return loads_image(data, verify=True)


def _load_from_image(image: FrozenImage):
    if image.type_name not in _LOADERS:
        raise SerializationError(
            f"unknown frozen-image type {image.type_name!r} "
            f"(this build reads {sorted(_LOADERS)})"
        )
    try:
        return _open_entry(image, {"type": image.type_name, "meta": image.meta}, "")
    except SerializationError:
        raise
    except (
        KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError
    ) as error:
        # A header that passed its CRC but whose meta does not describe a
        # structure of this type (missing or mistyped fields).
        raise SerializationError(
            f"{image._source}: malformed {image.type_name!r} image meta "
            f"({type(error).__name__}: {error})"
        ) from error
