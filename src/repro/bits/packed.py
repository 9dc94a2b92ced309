"""Fixed-width packed integer vectors.

:class:`PackedIntVector` stores ``n`` integers of ``width`` bits each in a
contiguous bit payload, giving ``n * width`` bits of storage plus O(1) words
of bookkeeping.  It is used for RRR class arrays, sampled rank/select
directories and the low halves of Elias-Fano sequences.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator, List, Sequence

from repro.bits import kernel
from repro.bits.kernel import SMALL_BATCH
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["PackedIntVector"]

_WORD = 64


class PackedIntVector:
    """A static array of fixed-width unsigned integers packed into words."""

    __slots__ = ("_width", "_length", "_words", "_batch_handle", "_batch_backend")

    def __init__(self, width: int, values: Iterable[int] = ()) -> None:
        if width < 0 or width > _WORD:
            raise ValueError("width must be between 0 and 64")
        self._width = width
        self._length = 0
        self._words: List[int] = []
        self._batch_handle = None
        self._batch_backend = None
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Bits per element."""
        return self._width

    def __len__(self) -> int:
        return self._length

    def append(self, value: int) -> None:
        """Append one value (used only at construction time)."""
        width = self._width
        if value < 0 or (width < _WORD and value >> width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._batch_backend = None  # the batch handle aliases stale words
        if width == 0:
            self._length += 1
            return
        bit_pos = self._length * width
        word_index, offset = divmod(bit_pos, _WORD)
        while len(self._words) <= (bit_pos + width - 1) // _WORD:
            self._words.append(0)
        # Write the value across at most two words, LSB-packed.
        self._words[word_index] |= (value << offset) & ((1 << _WORD) - 1)
        spill = offset + width - _WORD
        if spill > 0:
            self._words[word_index + 1] |= value >> (width - spill)
        self._length += 1

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise OutOfBoundsError(
                f"index {index} out of range for length {self._length}"
            )
        width = self._width
        if width == 0:
            return 0
        bit_pos = index * width
        word_index, offset = divmod(bit_pos, _WORD)
        value = self._words[word_index] >> offset
        spill = offset + width - _WORD
        if spill > 0:
            value |= self._words[word_index + 1] << (width - spill)
        return value & ((1 << width) - 1)

    def get_many(self, indexes: Sequence[int]):
        """The values at each of ``indexes`` (non-negative), batch-amortised.

        Validation is one min/max pass; small list batches loop
        ``__getitem__``, larger ones are one kernel ``fields_many`` gather
        over a lazily prepared handle -- amortised O(1) per index, two
        whole-array word gathers under numpy.  Array inputs come back as
        arrays under the numpy backend, as lists under python.
        """
        if isinstance(indexes, (list, tuple)) and len(indexes) < SMALL_BATCH:
            return [self[index] for index in indexes]
        if len(indexes) == 0:
            return []
        if isinstance(indexes, (list, tuple)):
            lo, hi = min(indexes), max(indexes)
        else:
            lo, hi = indexes.min(), indexes.max()
        if lo < 0 or hi >= self._length:
            bad = next(i for i in indexes if not 0 <= i < self._length)
            raise OutOfBoundsError(
                f"index {bad} out of range for length {self._length}"
            )
        backend = kernel.active_backend()
        if self._batch_backend != backend:
            self._batch_handle = kernel.prepare_fields(self._words, self._width)
            self._batch_backend = backend
        return kernel.fields_many(self._batch_handle, indexes)

    def __iter__(self) -> Iterator[int]:
        for index in range(self._length):
            yield self[index]

    def to_list(self) -> List[int]:
        """Render as a plain Python list."""
        return list(self)

    def size_in_bits(self) -> int:
        """Bits used by the packed payload (excluding Python object overhead)."""
        return len(self._words) * _WORD

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "PackedIntVector":
        """Build with the minimal width that fits ``max(values)`` (the
        values are non-negative), packed eight fields at a time: eight
        ``width``-bit fields fill ``width`` whole bytes, so one integer and
        one ``to_bytes`` per eight values replace a word update per value.
        The words are an ``array`` of uint64."""
        values = list(values)
        width = max(values, default=0).bit_length()
        if values and min(values) < 0:
            raise ValueError("from_values packs non-negative integers")
        s1, s2, s3, s4, s5, s6, s7 = (width * field for field in range(1, 8))
        fields = iter(values + [0] * (-len(values) % 8))
        payload = b"".join([
            (a | b << s1 | c << s2 | d << s3 | e << s4 | f << s5 | g << s6 | h << s7)
            .to_bytes(width, "little")
            for a, b, c, d, e, f, g, h in zip(*[fields] * 8)
        ])
        size = 8 * -(-len(values) * width // _WORD)
        words = array("Q", payload[:size].ljust(size, b"\0"))
        if sys.byteorder == "big":  # pragma: no cover - big-endian platforms only
            words.byteswap()
        return cls.from_words(width, len(values), words)

    @classmethod
    def from_words(
        cls, width: int, length: int, words: Sequence[int]
    ) -> "PackedIntVector":
        """Wrap an existing LSB-packed word sequence without copying.

        ``words`` may be a list or a read-only frozen-image word view; the
        vector aliases it, so the caller must not mutate it afterwards and
        :meth:`append` must not be used on the result.
        """
        if width < 0 or width > _WORD:
            raise ValueError("width must be between 0 and 64")
        self = cls.__new__(cls)
        self._width = width
        self._length = length
        self._words = words
        self._batch_handle = None
        self._batch_backend = None
        return self

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the packed words (section ``prefix + "words"``) to a sink."""
        sink.add_u64(prefix + "words", self._words)
        return {"width": self._width, "length": self._length}

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "PackedIntVector":
        """Open from a frozen image; the words alias it.  The word count
        must be what ``length`` fields of ``width`` bits need."""
        width, length = int(meta["width"]), int(meta["length"])
        words = image.words(prefix + "words")
        expected = -(-length * width // _WORD)
        if length < 0 or not 0 <= width <= _WORD or len(words) != expected:
            raise SerializationError(
                f"image meta for {prefix} says {length} fields of {width} bits, "
                f"its section holds {len(words)} words"
            )
        return cls.from_words(width, length, words)

    def __repr__(self) -> str:
        return (
            f"PackedIntVector(width={self._width}, length={self._length})"
        )
