"""Baseline 2: concatenate-and-compress ("Dynamic Text Collection" style).

The strings are concatenated with a separator character and the resulting
text is stored in a character-level Huffman-shaped Wavelet Tree, with a
sparse bitvector marking where each string starts.  This is the approach the
paper calls "Dynamic Text Collection" (Makinen & Navarro): it compresses only
to the *character* entropy of the text -- it cannot exploit whole-string
repetitions -- and every sequence operation must reconstruct or scan strings
character by character, so both space and time are worse than the Wavelet
Trie on string-heavy workloads.  ``test_space_ranking_of_approaches`` in
``tests/integration/test_end_to_end.py`` checks the space half.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.bitvector.sparse import SparseBitVector
from repro.core.interface import IndexedStringSequence, check_select_prefix_index
from repro.exceptions import OutOfBoundsError
from repro.wavelet.huffman import HuffmanWaveletTree

__all__ = ["TextCollectionSequence"]

_SEPARATOR = "\x00"


class TextCollectionSequence(IndexedStringSequence):
    """Concatenated text + character-level compressed index + start markers."""

    def __init__(self, values: Iterable[str] = ()) -> None:
        values = list(values)
        for value in values:
            if _SEPARATOR in value:
                raise ValueError("values must not contain the NUL separator")
        self._size = len(values)
        text: List[str] = []
        starts: List[int] = []
        offset = 0
        for value in values:
            starts.append(offset)
            text.append(value)
            text.append(_SEPARATOR)
            offset += len(value) + 1
        self._text_length = offset
        self._text_tree = HuffmanWaveletTree("".join(text)) if offset else None
        self._starts = (
            SparseBitVector(max(offset, 1), starts) if values else None
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")

    def _string_at(self, pos: int) -> str:
        start = self._starts.select(1, pos)
        characters: List[str] = []
        offset = start
        while offset < self._text_length:
            char = self._text_tree.access(offset)
            if char == _SEPARATOR:
                break
            characters.append(char)
            offset += 1
        return "".join(characters)

    # ------------------------------------------------------------------
    def access(self, pos: int) -> str:
        """Extract the ``pos``-th string character by character from the text."""
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        return self._string_at(pos)

    def rank(self, value: str, pos: int) -> int:
        """Counting scan: extract and compare each of the first ``pos`` strings."""
        self._check_rank_pos(pos)
        return sum(1 for index in range(pos) if self._string_at(index) == value)

    def select(self, value: str, idx: int) -> int:
        seen = 0
        for index in range(self._size):
            if self._string_at(index) == value:
                if seen == idx:
                    return index
                seen += 1
        raise OutOfBoundsError(
            f"select({value!r}, {idx}) out of range: only {seen} occurrences"
        )

    def rank_prefix(self, prefix: str, pos: int) -> int:
        self._check_rank_pos(pos)
        return sum(
            1 for index in range(pos) if self._string_at(index).startswith(prefix)
        )

    def select_prefix(self, prefix: str, idx: int) -> int:
        seen = 0
        for index in range(self._size):
            if self._string_at(index).startswith(prefix):
                if seen == idx:
                    return index
                seen += 1
        # Scan exhausted: ``seen`` is the total match count and ``idx`` is
        # out of range -- raise the canonical error.
        check_select_prefix_index(prefix, idx, seen)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Character-entropy-compressed text plus the start-marker bitvector."""
        text_bits = self._text_tree.size_in_bits() if self._text_tree else 0
        start_bits = self._starts.size_in_bits() if self._starts else 0
        return text_bits + start_bits
