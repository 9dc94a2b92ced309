"""An immutable bit-string value type.

:class:`Bits` is the currency of the whole package: binarised strings, Patricia
trie labels, prefixes and bitvector payloads are all ``Bits`` values.  A
``Bits`` object stores its payload as a single Python integer together with an
explicit length, so that slicing, concatenation and longest-common-prefix
computations are performed with big-integer arithmetic (word-parallel in
CPython) instead of per-bit Python loops.

Bit order convention
--------------------
Bit ``0`` is the *most significant* bit of the backing integer, i.e. the bits
read left-to-right exactly as they are written in the paper:
``Bits.from_string("0100")[0] == 0`` and ``[1] == 1``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.bits.kernel import pack_bits, unpack_value
from repro.exceptions import OutOfBoundsError

__all__ = ["Bits"]


class Bits:
    """Immutable sequence of bits backed by ``(int value, int length)``.

    Parameters
    ----------
    value:
        Non-negative integer whose ``length`` low-order bits are the payload.
        Bit ``i`` of the bit-string (0-based, left to right) is
        ``(value >> (length - 1 - i)) & 1``.
    length:
        Number of bits.  ``length == 0`` is the empty bit-string.

    The trie walks of :mod:`repro.core.base` read ``_value`` and ``_length``
    of each node label directly: a property call per label would cost as
    much as the label match itself.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0) -> None:
        if length < 0:
            raise ValueError("Bits length must be non-negative")
        if value < 0:
            raise ValueError("Bits value must be non-negative")
        if value >> length:
            raise ValueError(
                f"value {value} does not fit in {length} bits"
            )
        self._value = value
        self._length = length

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "Bits":
        """Return the empty bit-string."""
        return _EMPTY

    @classmethod
    def from_iterable(cls, bits: Iterable[int]) -> "Bits":
        """Build from an iterable of 0/1 integers (or booleans).

        Delegates to the kernel backend's bulk packer (``np.packbits`` under
        the numpy backend, the chunked word packer otherwise), so
        construction is O(n); the naive approach (shifting one growing big
        integer per bit) is O(n^2) in big-integer word operations.
        """
        words, length = pack_bits(bits)
        return cls(unpack_value(words, length), length)

    @classmethod
    def from_string(cls, text: str) -> "Bits":
        """Build from a string of ``'0'``/``'1'`` characters.

        Spaces and underscores are ignored so long literals can be grouped.
        """
        cleaned = text.replace(" ", "").replace("_", "")
        if cleaned and set(cleaned) - {"0", "1"}:
            raise ValueError(f"invalid bit characters in {text!r}")
        if not cleaned:
            return _EMPTY
        return cls(int(cleaned, 2), len(cleaned))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        """Build from raw bytes, 8 bits per byte, first byte first."""
        return cls(int.from_bytes(data, "big"), 8 * len(data)) if data else _EMPTY

    @classmethod
    def from_int(cls, value: int, width: int) -> "Bits":
        """Build the ``width``-bit big-endian representation of ``value``."""
        return cls(value, width)

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        """A run of ``length`` zero bits."""
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "Bits":
        """A run of ``length`` one bits."""
        return cls((1 << length) - 1, length)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """The backing integer (the bits read as a big-endian number)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[int]:
        value, length = self._value, self._length
        for shift in range(length - 1, -1, -1):
            yield (value >> shift) & 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return Bits.from_iterable(
                    self[i] for i in range(start, stop, step)
                )
            return self.slice(start, stop)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise OutOfBoundsError(
                f"bit index {index} out of range for length {self._length}"
            )
        return (self._value >> (self._length - 1 - index)) & 1

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __lt__(self, other: "Bits") -> bool:
        """Lexicographic comparison (a proper prefix sorts first)."""
        if not isinstance(other, Bits):
            return NotImplemented
        common = min(self._length, other._length)
        a = self._value >> (self._length - common) if self._length else 0
        b = other._value >> (other._length - common) if other._length else 0
        if a != b:
            return a < b
        return self._length < other._length

    def __le__(self, other: "Bits") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Bits") -> bool:
        return not self <= other

    def __ge__(self, other: "Bits") -> bool:
        return not self < other

    def __add__(self, other: "Bits") -> "Bits":
        """Concatenation."""
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __repr__(self) -> str:
        return f"Bits('{self.to01()}')"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def to01(self) -> str:
        """Render as a string of ``'0'``/``'1'`` characters."""
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")

    def to_bytes(self) -> bytes:
        """Render as bytes; the length must be a multiple of 8."""
        if self._length % 8:
            raise ValueError("Bits length is not a multiple of 8")
        return self._value.to_bytes(self._length // 8, "big")

    def popcount(self) -> int:
        """Number of 1 bits."""
        return self._value.bit_count()

    def count(self, bit: int) -> int:
        """Number of occurrences of ``bit`` (0 or 1)."""
        ones = self._value.bit_count()
        return ones if bit else self._length - ones

    def slice(self, start: int, stop: int) -> "Bits":
        """Return the sub-bit-string ``self[start:stop]``.

        O(n / w), not O(1): the shift copies the value's first ``stop``
        bits, so slices near the end of a long value copy all of it.
        Repeated reads from one long payload belong on packed words
        (``kernel.extract_bits_value``).
        """
        start = max(0, min(start, self._length))
        stop = max(start, min(stop, self._length))
        width = stop - start
        if width == 0:
            return _EMPTY
        shifted = self._value >> (self._length - stop)
        return Bits(shifted & ((1 << width) - 1), width)

    def prefix(self, k: int) -> "Bits":
        """The first ``k`` bits."""
        return self.slice(0, k)

    def suffix_from(self, k: int) -> "Bits":
        """The bits from position ``k`` to the end."""
        return self.slice(k, self._length)

    def startswith(self, prefix: "Bits") -> bool:
        """True if ``prefix`` is a (possibly equal) prefix of this value."""
        if prefix._length > self._length:
            return False
        return (self._value >> (self._length - prefix._length)) == prefix._value \
            if prefix._length else True

    def lcp_length(self, other: "Bits") -> int:
        """Length of the longest common prefix with ``other``."""
        common = min(self._length, other._length)
        if common == 0:
            return 0
        a = self._value >> (self._length - common)
        b = other._value >> (other._length - common)
        diff = a ^ b
        if diff == 0:
            return common
        return common - diff.bit_length()

    def appended(self, bit: int) -> "Bits":
        """Return a new value with ``bit`` appended at the end."""
        return Bits((self._value << 1) | (1 if bit else 0), self._length + 1)


_EMPTY = Bits(0, 0)
