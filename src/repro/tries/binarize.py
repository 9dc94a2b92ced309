"""Binarisation codecs: application values <-> prefix-free bit-strings.

The paper (Sections 2 and 3) assumes without loss of generality that the
indexed values are *binary* strings forming a *prefix-free* set: any alphabet
can be binarised, and any set can be made prefix-free by appending a
terminator.  These codecs implement exactly that reduction and its inverse,
plus the prefix-query variant (a prefix is binarised *without* the
terminator so that ``RankPrefix``/``SelectPrefix`` see every completion).

* :class:`Utf8Codec` -- text strings; each UTF-8 byte becomes 8 bits and a NUL
  byte (8 zero bits) terminates the string.  Input must not contain NUL.
* :class:`BytesCodec` -- arbitrary byte strings; each byte becomes 9 bits
  (a 1 marker followed by the byte) and a single 0 bit terminates, so the
  encoding is prefix-free even when values contain NUL bytes.
* :class:`FixedWidthIntCodec` -- integers in a bounded universe, encoded with
  a fixed number of bits (fixed-length codes are prefix-free by themselves);
  supports the LSB-first bit order used by the Section 6 hashing scheme.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.bits.bitstring import Bits
from repro.exceptions import BinarizationError

__all__ = [
    "BytesCodec",
    "FixedWidthIntCodec",
    "StringCodec",
    "Utf8Codec",
    "default_codec",
]


class StringCodec(ABC):
    """Maps application-level values to prefix-free :class:`Bits` and back."""

    @abstractmethod
    def to_bits(self, value: Any) -> Bits:
        """Binarise a full value (prefix-free encoding, including terminator)."""

    @abstractmethod
    def from_bits(self, bits: Bits) -> Any:
        """Invert :meth:`to_bits`."""

    @abstractmethod
    def prefix_to_bits(self, prefix: Any) -> Bits:
        """Binarise a *prefix* (no terminator) for RankPrefix/SelectPrefix."""


class Utf8Codec(StringCodec):
    """Text codec: UTF-8 bytes, 8 bits per byte, NUL terminator.

    The encoded set is prefix-free because no encoded byte is ``0x00`` while
    every encoded value ends with ``0x00``.
    """

    terminator = Bits.zeros(8)

    def to_bits(self, value: str) -> Bits:
        if not isinstance(value, str):
            raise BinarizationError(f"Utf8Codec expects str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        if 0 in raw:
            raise BinarizationError("Utf8Codec values must not contain NUL bytes")
        return Bits.from_bytes(raw) + self.terminator

    def from_bits(self, bits: Bits) -> str:
        if len(bits) % 8 or len(bits) < 8:
            raise BinarizationError(
                f"bit length {len(bits)} is not a valid Utf8Codec encoding"
            )
        payload = bits.to_bytes()
        if payload[-1] != 0:
            raise BinarizationError("missing NUL terminator")
        return payload[:-1].decode("utf-8")

    def prefix_to_bits(self, prefix: str) -> Bits:
        if not isinstance(prefix, str):
            raise BinarizationError(f"Utf8Codec expects str, got {type(prefix).__name__}")
        raw = prefix.encode("utf-8")
        if 0 in raw:
            raise BinarizationError("Utf8Codec prefixes must not contain NUL bytes")
        return Bits.from_bytes(raw)


class BytesCodec(StringCodec):
    """Arbitrary byte strings: 9 bits per byte (1 + byte), 0-bit terminator."""

    def to_bits(self, value: bytes) -> Bits:
        if not isinstance(value, (bytes, bytearray)):
            raise BinarizationError(
                f"BytesCodec expects bytes, got {type(value).__name__}"
            )
        out = Bits.empty()
        for byte in value:
            out = out + Bits(1, 1) + Bits(byte, 8)
        return out + Bits(0, 1)

    def from_bits(self, bits: Bits) -> bytes:
        out = bytearray()
        position = 0
        while position < len(bits):
            marker = bits[position]
            if marker == 0:
                if position != len(bits) - 1:
                    raise BinarizationError("terminator before end of encoding")
                return bytes(out)
            if position + 9 > len(bits):
                raise BinarizationError("truncated BytesCodec encoding")
            out.append(bits.slice(position + 1, position + 9).value)
            position += 9
        raise BinarizationError("missing terminator in BytesCodec encoding")

    def prefix_to_bits(self, prefix: bytes) -> Bits:
        if not isinstance(prefix, (bytes, bytearray)):
            raise BinarizationError(
                f"BytesCodec expects bytes, got {type(prefix).__name__}"
            )
        out = Bits.empty()
        for byte in prefix:
            out = out + Bits(1, 1) + Bits(byte, 8)
        return out


class FixedWidthIntCodec(StringCodec):
    """Integers in ``[0, 2**width)`` encoded with exactly ``width`` bits.

    Fixed-length codes are prefix-free, so no terminator is needed.  With
    ``lsb_first=True`` the bits are written least-significant-bit first, the
    order used by the multiplicative-hashing scheme of Section 6 (so that the
    distinguishing bits of the hashes appear near the trie root).
    """

    def __init__(self, width: int, lsb_first: bool = False) -> None:
        if width <= 0:
            raise BinarizationError("width must be positive")
        self.width = width
        self.lsb_first = lsb_first

    def to_bits(self, value: int) -> Bits:
        if not isinstance(value, int) or isinstance(value, bool):
            raise BinarizationError(
                f"FixedWidthIntCodec expects int, got {type(value).__name__}"
            )
        if not 0 <= value < (1 << self.width):
            raise BinarizationError(
                f"value {value} out of range for width {self.width}"
            )
        if self.lsb_first:
            value = _reverse_bits(value, self.width)
        return Bits(value, self.width)

    def from_bits(self, bits: Bits) -> int:
        if len(bits) != self.width:
            raise BinarizationError(
                f"expected {self.width} bits, got {len(bits)}"
            )
        value = bits.value
        if self.lsb_first:
            value = _reverse_bits(value, self.width)
        return value

    def prefix_to_bits(self, prefix: Bits) -> Bits:
        """Prefixes of fixed-width integers are given directly as bits."""
        if not isinstance(prefix, Bits):
            raise BinarizationError("integer prefixes must be Bits values")
        return prefix


def _reverse_bits(value: int, width: int) -> int:
    """Reverse the ``width`` low-order bits of ``value``."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def default_codec() -> StringCodec:
    """The codec used by the public API when none is supplied (UTF-8 text)."""
    return Utf8Codec()
