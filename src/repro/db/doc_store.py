"""A searchable document store over the FM-index.

The documents are concatenated with NUL separators, the text-collection
layout the paper's introduction names as related work, and the
concatenation is indexed by an :class:`~repro.text.fm_index.FMIndex`, with
a sparse bitvector marking where each document starts.  Substring
queries run over the whole collection at once (backward search never scans a
document), and the starts bitvector maps every matched text position back to
its ``(document, offset)`` pair: patterns cannot contain the separator, so a
match never crosses a document boundary.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.bitvector.sparse import SparseBitVector
from repro.exceptions import OutOfBoundsError, SerializationError
from repro.text.fm_index import FMIndex

__all__ = ["DocumentStore"]

_SEPARATOR = "\x00"


class DocumentStore:
    """Full-text searchable collection of documents (FM-index backed).

    Parameters
    ----------
    documents:
        The document bodies (strings; the NUL separator is reserved).
    sa_sample:
        Suffix-array sampling rate forwarded to the FM-index -- the
        space/time knob for ``locate``/``document``.
    bitvector:
        BWT node bitvector flavour forwarded to the FM-index (``"plain"``
        or ``"rrr"``; see :class:`~repro.text.fm_index.FMIndex`).

    Examples
    --------
    >>> store = DocumentStore(["state of the art", "art of state"])
    >>> store.count("state")
    2
    >>> store.locate("art")
    [(0, 13), (1, 0)]
    >>> store.document(1)
    'art of state'
    """

    def __init__(
        self,
        documents: Iterable[str] = (),
        sa_sample: int = 32,
        bitvector: str = "plain",
    ) -> None:
        documents = list(documents)
        for document in documents:
            if _SEPARATOR in document:
                raise ValueError("documents must not contain the NUL separator")
        self._doc_count = len(documents)
        parts: List[str] = []
        starts: List[int] = []
        offset = 0
        for document in documents:
            starts.append(offset)
            parts.append(document)
            parts.append(_SEPARATOR)
            offset += len(document) + 1
        self._text_length = offset
        self._fm = FMIndex("".join(parts), sa_sample=sa_sample, bitvector=bitvector)
        self._starts = SparseBitVector(max(offset, 1), starts) if documents else None

    @classmethod
    def _from_parts(
        cls, fm: FMIndex, starts: SparseBitVector, doc_count: int
    ) -> "DocumentStore":
        """Rebuild from deserialised parts (no re-indexing)."""
        self = cls.__new__(cls)
        self._doc_count = doc_count
        self._text_length = fm.text_length
        self._fm = fm
        self._starts = starts
        return self

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the FM-index (``fm.*``) and the Elias-Fano document
        starts (``starts.*``; absent for an empty store)."""
        return {
            "documents": self._doc_count,
            "fm": self._fm.to_words_image(sink, prefix + "fm."),
            "starts": (
                self._starts.to_words_image(sink, prefix + "starts.")
                if self._starts is not None
                else None
            ),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "DocumentStore":
        """Open from a frozen image (no re-indexing); the starts must mark
        one document per start, the first at 0, inside the text."""
        doc_count = int(meta["documents"])
        fm = FMIndex.from_words_image(image, prefix + "fm.", meta["fm"])
        starts = None
        if meta["starts"] is not None:
            starts = SparseBitVector.from_words_image(
                image, prefix + "starts.", meta["starts"]
            )
        if (starts is None) != (doc_count == 0) or (
            starts is not None
            and (
                starts.ones != doc_count
                or len(starts) != fm.text_length
                or starts.select(1, 0) != 0
            )
        ):
            raise SerializationError(
                f"document store image {prefix!r}: its starts do not mark "
                f"{doc_count} documents of a {fm.text_length}-character text"
            )
        return cls._from_parts(fm, starts, doc_count)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._doc_count

    @property
    def text_length(self) -> int:
        """Concatenated text length, separators included."""
        return self._text_length

    @property
    def fm_index(self) -> FMIndex:
        """The underlying FM-index over the separator-joined text."""
        return self._fm

    def _check_document(self, doc: int) -> None:
        if not 0 <= doc < self._doc_count:
            raise OutOfBoundsError(
                f"document {doc} out of range for {self._doc_count} documents"
            )

    def _check_pattern(self, pattern: str) -> None:
        if not isinstance(pattern, str):
            raise TypeError(
                f"pattern must be str, got {type(pattern).__name__}"
            )
        if not pattern:
            raise ValueError("pattern must be non-empty (it would match everywhere)")
        if _SEPARATOR in pattern:
            raise ValueError("pattern must not contain the NUL separator")

    def _bounds(self, doc: int) -> Tuple[int, int]:
        start = self._starts.select(1, doc)
        if doc + 1 < self._doc_count:
            return start, self._starts.select(1, doc + 1) - 1
        return start, self._text_length - 1

    # ------------------------------------------------------------------
    def document(self, doc: int) -> str:
        """The body of document ``doc``, extracted from the FM-index."""
        self._check_document(doc)
        start, stop = self._bounds(doc)
        return self._fm.extract(start, stop)

    def count(self, pattern: str) -> int:
        """Total occurrences of ``pattern`` across all documents."""
        self._check_pattern(pattern)
        return self._fm.count(pattern)

    def count_many(self, patterns: Sequence[str]) -> List[int]:
        """``count`` for each pattern; the backward searches advance
        together, amortised to one wavelet-tree descent per step over every
        live endpoint (see :meth:`repro.text.fm_index.FMIndex.count_many`)."""
        for pattern in patterns:
            self._check_pattern(pattern)
        return self._fm.count_many(patterns)

    def locate(self, pattern: str) -> List[Tuple[int, int]]:
        """Every occurrence as ``(document, offset)``, ascending.

        The FM-index yields text positions; one batched ``rank``/``select``
        pair on the starts bitvector maps them all to document coordinates.
        """
        self._check_pattern(pattern)
        positions = self._fm.locate(pattern)
        if not positions:
            return []
        docs = [rank - 1 for rank in self._starts.rank_many(1, [p + 1 for p in positions])]
        doc_starts = self._starts.select_many(1, docs)
        return [
            (doc, position - start)
            for doc, position, start in zip(docs, positions, doc_starts)
        ]

    def count_in_document(self, doc: int, pattern: str) -> int:
        """Occurrences of ``pattern`` inside document ``doc`` alone."""
        self._check_document(doc)
        self._check_pattern(pattern)
        return sum(1 for match_doc, _ in self.locate(pattern) if match_doc == doc)

    def locate_in_document(self, doc: int, pattern: str) -> List[int]:
        """Offsets of ``pattern`` inside document ``doc``, ascending."""
        self._check_document(doc)
        self._check_pattern(pattern)
        return [
            offset for match_doc, offset in self.locate(pattern) if match_doc == doc
        ]

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """FM-index space plus the document-starts bitvector."""
        starts_bits = self._starts.size_in_bits() if self._starts else 0
        return self._fm.size_in_bits() + starts_bits
