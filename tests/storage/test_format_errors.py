"""Failure injection for the on-disk format: corrupted, truncated, foreign data.

``load``/``loads`` verify every section's CRC-32 and the zero padding, so a
flipped byte anywhere in a file raises :class:`SerializationError`, as do
truncation, trailing bytes and a header naming another type.
"""

import json
import zlib

import pytest

from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.exceptions import SerializationError
from repro.storage import IMAGE_MAGIC, IMAGE_VERSION, dumps, load, loads, save
from repro.storage.image import SECTION_ALIGN, FrozenImage


@pytest.fixture(scope="module")
def stored(url_log):
    return dumps(WaveletTrie(url_log[:60]))


def _relabel(data: bytes, type_name: str) -> bytes:
    """``data`` with its header's type replaced (and its CRC recomputed)."""
    length = int.from_bytes(data[8:16], "little")
    header = json.loads(data[20 : 20 + length])
    header["type"] = type_name
    encoded = json.dumps(header, separators=(",", ":")).encode()
    start = -(-(20 + length) // SECTION_ALIGN) * SECTION_ALIGN
    prefix = (
        IMAGE_MAGIC
        + IMAGE_VERSION.to_bytes(4, "little")
        + len(encoded).to_bytes(8, "little")
        + (zlib.crc32(encoded) & 0xFFFFFFFF).to_bytes(4, "little")
        + encoded
    )
    return prefix + bytes(-len(prefix) % SECTION_ALIGN) + data[start:]


class TestContainerValidation:
    def test_bad_magic(self, stored):
        corrupted = b"XXXX" + stored[4:]
        with pytest.raises(SerializationError, match="magic"):
            loads(corrupted)

    def test_empty_input(self):
        with pytest.raises(SerializationError):
            loads(b"")

    def test_not_a_wavelet_file(self):
        with pytest.raises(SerializationError):
            loads(b"PK\x03\x04 this is a zip archive, not an index")

    def test_bad_magic_names_what_was_found_and_expected(self, stored):
        with pytest.raises(SerializationError) as caught:
            loads(b"XXXX" + stored[4:])
        message = str(caught.value)
        assert "b'XXXX'" in message and "b'RWT2'" in message

    def test_bad_magic_from_file_names_the_magic(self, tmp_path):
        path = tmp_path / "notanindex.wt"
        path.write_bytes(b"PK\x03\x04 a zip archive, not an index" * 3)
        with pytest.raises(SerializationError, match="RWT2"):
            load(path)

    def test_unsupported_version(self, stored):
        corrupted = bytearray(stored)
        corrupted[4:8] = (IMAGE_VERSION + 1).to_bytes(4, "little")
        with pytest.raises(SerializationError, match="version"):
            loads(bytes(corrupted))

    def test_version_error_names_found_and_expected(self, stored):
        corrupted = bytearray(stored)
        corrupted[4:8] = (IMAGE_VERSION + 41).to_bytes(4, "little")
        with pytest.raises(
            SerializationError,
            match=f"found {IMAGE_VERSION + 41}, expected {IMAGE_VERSION}",
        ):
            loads(bytes(corrupted))

    def test_truncated_payload(self, stored):
        with pytest.raises(SerializationError):
            loads(stored[: len(stored) // 2])

    def test_truncated_end(self, stored):
        with pytest.raises(SerializationError):
            loads(stored[:-2])

    def test_flipped_payload_byte_fails_checksum(self, stored):
        corrupted = bytearray(stored)
        # Flip a byte of the last section, well past the header.
        corrupted[len(stored) - SECTION_ALIGN] ^= 0xFF
        with pytest.raises(SerializationError, match="checksum"):
            loads(bytes(corrupted))

    def test_trailing_garbage_rejected(self, stored):
        with pytest.raises(SerializationError, match="section table describes"):
            loads(stored + b"extra")

    def test_every_flipped_byte_raises(self):
        """One flipped bit anywhere in a file -- fixed header, header JSON,
        a section or the padding between them -- makes ``loads`` raise."""
        data = dumps(DynamicWaveletTrie(["/a/x", "/a/y", "/b", "/a/x"]))
        image = FrozenImage(data)
        assert len(image.section_names()) > 10
        for position in range(len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x04
            with pytest.raises(SerializationError):
                loads(bytes(corrupted))


class TestObjectValidation:
    def test_unknown_image_type(self, stored):
        with pytest.raises(SerializationError, match="unknown frozen-image type"):
            loads(_relabel(stored, "martian_index"))

    def test_unsupported_object(self):
        with pytest.raises(SerializationError, match="cannot be written"):
            dumps(object())

    def test_unsupported_builtin(self):
        with pytest.raises(SerializationError):
            dumps({"a": 1})

    @pytest.mark.parametrize(
        "type_name", ["dynamic_trie", "column", "fm_index", "huffman_tree"]
    )
    def test_image_under_another_type_name(self, stored, type_name):
        # A valid static-trie image presented as another type.
        with pytest.raises(SerializationError):
            loads(_relabel(stored, type_name))


class TestFileErrors:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "does-not-exist.wt")

    def test_load_corrupted_file(self, tmp_path, url_log):
        path = tmp_path / "index.wt"
        save(WaveletTrie(url_log[:30]), path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError):
            load(path)

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.wt"
        path.write_bytes(b"")
        with pytest.raises(SerializationError):
            load(path)

    def test_load_rejects_trailing_bytes(self, tmp_path, url_log):
        path = tmp_path / "index.wt"
        save(WaveletTrie(url_log[:30]), path)
        path.write_bytes(path.read_bytes() + b"garbage!")
        with pytest.raises(SerializationError, match="section table describes"):
            load(path)

    def test_load_oversized_header_length_fails_cleanly(self, tmp_path, url_log):
        # A header length claiming more bytes than the file holds must raise
        # instead of reading past the end.
        path = tmp_path / "index.wt"
        save(WaveletTrie(url_log[:30]), path)
        data = bytearray(path.read_bytes())
        data[8:16] = (1 << 60).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="header is truncated"):
            load(path)

    def test_load_truncated_file(self, tmp_path, url_log):
        path = tmp_path / "index.wt"
        save(WaveletTrie(url_log[:30]), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError):
            load(path)
