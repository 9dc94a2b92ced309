"""Fixed-width packed integer vectors.

:class:`PackedIntVector` stores ``n`` integers of ``width`` bits each in a
contiguous bit payload, giving ``n * width`` bits of storage plus O(1) words
of bookkeeping.  It is used for RRR class arrays, sampled rank/select
directories and DFUDS auxiliary arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.bits import kernel
from repro.exceptions import OutOfBoundsError

__all__ = ["PackedIntVector"]

_WORD = 64

# Below this many indexes ``get_many`` loops ``__getitem__`` instead of
# paying for a kernel batch call.
_SMALL_BATCH = 32


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
        if isinstance(indexes, (list, tuple)) and len(indexes) < _SMALL_BATCH:
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
        """Build with the minimal width that fits ``max(values)``."""
        width = max((int(v).bit_length() for v in values), default=0)
        return cls(width, values)

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

    def __repr__(self) -> str:
        return (
            f"PackedIntVector(width={self._width}, length={self._length})"
        )
