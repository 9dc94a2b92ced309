"""Partial sums used to delimit variable-length pieces of one bitvector.

The paper's static Wavelet Trie (Section 3) concatenates the node labels
into one bitvector ``L`` and the per-node RRR encodings into another, and
delimits each with a partial-sum structure that finds where the ``i``-th
piece starts (cost ``B(e, |L| + e) + o(...)`` bits).
:class:`~repro.core.static.WaveletTrie` stores both concatenations this
way: its labels, and its internal nodes' windows onto one shared node
bitvector.

:class:`StaticPartialSums` stores the cumulative sums as an Elias-Fano
sequence, matching the paper's space bound up to lower-order terms.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.bitvector.sparse import EliasFanoSequence
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["StaticPartialSums"]


class StaticPartialSums:
    """Immutable partial sums of a sequence of non-negative lengths.

    ``start(i)`` returns the sum of the first ``i`` lengths; ``find(pos)``
    returns the index of the piece containing offset ``pos``.
    """

    __slots__ = ("_cumulative", "_count")

    def __init__(self, lengths: Iterable[int]) -> None:
        cumulative: List[int] = [0]
        for length in lengths:
            if length < 0:
                raise ValueError("lengths must be non-negative")
            cumulative.append(cumulative[-1] + length)
        self._count = len(cumulative) - 1
        self._cumulative = EliasFanoSequence(
            cumulative, universe=cumulative[-1] + 1
        )

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the Elias-Fano cumulative sequence into an image sink."""
        return {
            "count": self._count,
            "cumulative": self._cumulative.to_words_image(sink, prefix + "cum."),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "StaticPartialSums":
        """Open from a frozen image; the cumulative sequence aliases it."""
        self = cls.__new__(cls)
        self._count = int(meta["count"])
        self._cumulative = EliasFanoSequence.from_words_image(
            image, prefix + "cum.", meta["cumulative"]
        )
        if len(self._cumulative) != self._count + 1:
            raise SerializationError(
                f"image meta for {prefix} says {self._count} pieces, its "
                f"sequence holds {len(self._cumulative)} sums"
            )
        return self

    @property
    def total(self) -> int:
        """Sum of all lengths."""
        return self._cumulative[self._count]

    def start(self, index: int) -> int:
        """Sum of the first ``index`` lengths (start offset of piece ``index``)."""
        if not 0 <= index <= self._count:
            raise OutOfBoundsError(f"index {index} out of range for {self._count} pieces")
        return self._cumulative[index]

    def starts(self) -> List[int]:
        """Every start offset, then the total: the ``len(self) + 1`` sums
        decoded in one pass over the Elias-Fano halves."""
        return self._cumulative.to_list()

    def length(self, index: int) -> int:
        """Length of piece ``index``."""
        if not 0 <= index < self._count:
            raise OutOfBoundsError(f"index {index} out of range for {self._count} pieces")
        return self._cumulative[index + 1] - self._cumulative[index]

    def find(self, pos: int) -> int:
        """Index of the piece containing global offset ``pos``."""
        if not 0 <= pos < self.total:
            raise OutOfBoundsError(f"offset {pos} out of range for total {self.total}")
        # rank over the monotone cumulative sequence: number of starts <= pos.
        return self._cumulative.rank(pos + 1) - 1

    def size_in_bits(self) -> int:
        """Encoded size in bits."""
        return self._cumulative.size_in_bits()
