"""A mutable, appendable bit buffer backed by the kernel's packed word list.

:class:`BitBuffer` is used wherever an encoding is built incrementally: RRR
block streams, concatenated trie labels, the tail buffer of the append-only
bitvector.  It stores bits in the same MSB-first order as
:class:`~repro.bits.bitstring.Bits` and can be frozen into one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bits.kernel import WORD, WORD_MASK
from repro.exceptions import OutOfBoundsError

__all__ = ["BitBuffer"]


class BitBuffer:
    """A growable sequence of bits supporting append, random access and freeze.

    The buffer is backed by the kernel's *packed word list* (full 64-bit
    words, MSB-first) plus one small spill integer holding the trailing
    partial word.  ``append`` therefore touches only the spill word -- O(1)
    amortised, never a shift of the whole payload -- which is what lets the
    append-only bitvector keep arbitrarily long tails without a per-bit
    O(length / w) cost.  Bulk producers should still prefer
    ``extend``/``append_bits``/``append_int``, which splice whole payloads
    word-at-a-time through the kernel.
    """

    __slots__ = ("_words", "_spill", "_fill", "_length", "_ones")

    def __init__(self, initial: Iterable[int] = ()) -> None:
        self._words: List[int] = []  # full 64-bit words, MSB-first
        self._spill = 0  # trailing partial word, right-aligned
        self._fill = 0  # bits currently in the spill word (0..63)
        self._length = 0
        self._ones = 0
        self.extend(initial)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, bit: int) -> None:
        """Append a single bit (any truthy value counts as 1) in O(1) amortised.

        Only the small spill integer is shifted; a full word is flushed to the
        packed word list every 64 appends.
        """
        bit = 1 if bit else 0
        self._spill = (self._spill << 1) | bit
        self._fill += 1
        self._length += 1
        self._ones += bit
        if self._fill == WORD:
            self._words.append(self._spill)
            self._spill = 0
            self._fill = 0

    def extend(self, bits: Iterable[int]) -> None:
        """Append each bit of an iterable (bulk ``Append``).

        A :class:`Bits` payload is spliced word-at-a-time; any other iterable
        is first packed into words by the kernel backend (O(k / 8), one
        ``np.packbits`` pass under the numpy backend) and then spliced --
        never one Python-level append per bit.  A word-aligned buffer takes
        the packed words verbatim, with no big-integer round trip.
        """
        if isinstance(bits, Bits):
            self.append_bits(bits)
            return
        self.append_words(*kernel.pack_bits(bits))

    def append_words(self, words, length: int) -> None:
        """Splice the top ``length`` bits of a kernel packed word sequence
        (list or word array) onto the end of the buffer, O(length / w)."""
        if length == 0:
            return
        words = kernel.as_int_list(words)
        if self._fill:
            self.append_int(kernel.unpack_value(words, length), length)
            return
        n_full, rem = divmod(length, WORD)
        self._ones += kernel.popcount_words(words)
        self._length += length
        self._words.extend(words[:n_full])
        if rem:
            self._spill = words[n_full] >> (WORD - rem)
            self._fill = rem

    def append_bits(self, bits: Bits) -> None:
        """Append a whole :class:`Bits` payload in O(|bits| / w) word splices."""
        self.append_int(bits.value, len(bits))

    def append_run(self, bit: int, count: int) -> None:
        """Append ``count`` copies of ``bit`` in O(count / w) word splices."""
        if count < 0:
            raise ValueError("run length must be non-negative")
        if count == 0:
            return
        if bit:
            self.append_int((1 << count) - 1, count)
        else:
            self.append_int(0, count)

    def append_int(self, value: int, width: int) -> None:
        """Append the ``width``-bit big-endian representation of ``value``.

        O(width / w): the head tops up the current spill word, the body goes
        through one kernel bulk pack, and the remainder becomes the new spill.
        """
        if value < 0 or width < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width == 0:
            return
        self._ones += value.bit_count()
        self._length += width
        if self._fill:
            room = WORD - self._fill
            if width < room:
                self._spill = (self._spill << width) | value
                self._fill += width
                return
            rest = width - room
            self._words.append(
                ((self._spill << room) | (value >> rest)) & WORD_MASK
            )
            value &= (1 << rest) - 1
            self._spill = 0
            self._fill = 0
            width = rest
            if width == 0:
                return
        n_full, rem = divmod(width, WORD)
        if n_full:
            self._words.extend(
                kernel.pack_value(value >> rem, n_full * WORD)
            )
            value &= (1 << rem) - 1
        self._spill = value
        self._fill = rem

    def clear(self) -> None:
        """Remove all bits."""
        self._words = []
        self._spill = 0
        self._fill = 0
        self._length = 0
        self._ones = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        """Number of 1 bits currently in the buffer."""
        return self._ones

    @property
    def zeros(self) -> int:
        """Number of 0 bits currently in the buffer."""
        return self._length - self._ones

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise OutOfBoundsError(
                f"bit index {index} out of range for length {self._length}"
            )
        word_index, offset = divmod(index, WORD)
        if word_index < len(self._words):
            return (self._words[word_index] >> (WORD - 1 - offset)) & 1
        return (self._spill >> (self._fill - 1 - offset)) & 1

    def __iter__(self) -> Iterator[int]:
        yield from kernel.broadword_iter_words(
            self._words, 0, len(self._words) * WORD
        )
        spill, fill = self._spill, self._fill
        for shift in range(fill - 1, -1, -1):
            yield (spill >> shift) & 1

    def rank(self, bit: int, pos: int) -> int:
        """Number of occurrences of ``bit`` among the first ``pos`` bits.

        O(pos / w) word popcounts; the buffer is meant to stay small
        (poly-logarithmic) as in Lemma 4.6 of the paper.
        """
        if pos < 0 or pos > self._length:
            raise OutOfBoundsError(f"rank position {pos} out of range")
        if pos == 0:
            return 0
        full_bits = len(self._words) << 6
        if pos <= full_bits:
            ones = kernel.popcount_range(self._words, 0, pos)
        else:
            ones = kernel.popcount_words(self._words)
            ones += (self._spill >> (self._fill - (pos - full_bits))).bit_count()
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        """Position of the ``idx``-th (0-based) occurrence of ``bit``.

        O(length / w): the kernel's directory-free word-scan select over the
        padded word list.
        """
        total = self._ones if bit else self.zeros
        if idx < 0 or idx >= total:
            raise OutOfBoundsError(
                f"select index {idx} out of range ({total} occurrences)"
            )
        return kernel.select_bit_in_words(self.words(), self._length, bit, idx)

    def to_bits(self) -> Bits:
        """Freeze into an immutable :class:`Bits` value (one bulk conversion)."""
        value = (kernel.words_to_int(self._words) << self._fill) | self._spill
        return Bits(value, self._length)

    @property
    def full_words(self) -> List[int]:
        """The live list of completed 64-bit words (grows as bits are
        appended; the trailing partial word is not in it)."""
        return self._words

    def words(self) -> List[int]:
        """The payload as a kernel packed word list (last word zero-padded)."""
        out = list(self._words)
        if self._fill:
            out.append((self._spill << (WORD - self._fill)) & WORD_MASK)
        return out

    def to_list(self) -> List[int]:
        """Render as a list of integers."""
        return list(self)

    def __repr__(self) -> str:
        shown = self.to_bits().to01()
        if len(shown) > 64:
            shown = shown[:61] + "..."
        return f"BitBuffer('{shown}', length={self._length})"
