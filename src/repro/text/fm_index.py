"""The FM-index: compressed full-text search over a BWT + wavelet tree.

Ferragina-Manzini backward search (PAPERS.md, *Indexing Compressed Text*):
the Burrows-Wheeler transform of the terminator-extended text is stored in a
:class:`~repro.wavelet.huffman.HuffmanWaveletTree`, so the index occupies
roughly the character entropy of the text while answering

* ``count(pattern)`` -- number of occurrences, in ``|pattern|`` backward
  steps, each issuing **one** ``rank_many`` pair on the wavelet tree instead
  of two scalar rank walks;
* ``locate(pattern)`` -- all occurrence positions, via a sampled suffix
  array (``sa_sample`` is the space/time knob: one stored position every
  ``sa_sample`` text positions, at most ``sa_sample - 1`` batched LF steps
  per occurrence, each one sorted search of the Elias-Fano marked rows
  plus one ``inverse_select_many`` descent);
* ``extract(start, stop)`` -- any text slice, via inverse-suffix-array
  samples (at most ``sa_sample`` extra LF steps past the slice).

``count_many`` additionally batches backward search *across* patterns:
every step ranks every live interval endpoint by its own pattern's next
character in one descent of the wavelet tree, one batched rank on its
shared node vector per depth.  See docs/ARCHITECTURE.md, "Full-text
search".
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bits import kernel
from repro.bits.kernel import SMALL_BATCH
from repro.bits.packed import PackedIntVector
from repro.bitvector.sparse import SparseBitVector
from repro.core.static import BITVECTOR_KINDS
from repro.exceptions import OutOfBoundsError, SerializationError
from repro.text.suffix_array import bwt_from_suffix_array, suffix_array
from repro.wavelet.huffman import HuffmanWaveletTree

__all__ = ["FMIndex"]

_TERMINATOR = 0  # code of the appended sentinel; smaller than every character

#: Node bitvector kinds for the BWT wavelet tree.  Backward search is
#: rank-bound, so the default is the plain vector whose ``rank_many`` is
#: kernel-vectorised (one gather + popcount for a whole batch); the Huffman
#: shape already holds total node bits near ``n * H0``.  The ``rrr`` kind
#: compresses the nodes; its batched ranks go through the kernel's RRR
#: block decode instead of a word gather.
_BWT_KINDS = ("plain", "rrr")


class FMIndex:
    """Compressed full-text index supporting count, locate and extract.

    Parameters
    ----------
    text:
        The text to index (any ``str``, including embedded NUL separators).
    sa_sample:
        Suffix-array sampling rate: every ``sa_sample``-th text position is
        stored explicitly.  Smaller values make ``locate``/``extract``
        faster and the index larger; the default 32 costs
        ``~2 * 64 / 32 = 4`` bits per character of sampled positions.
    bitvector:
        Node bitvector flavour of the BWT wavelet tree: ``"plain"``
        (default; word-gather batched ranks, ~``n * H0`` total node bits
        from the Huffman shape alone) or ``"rrr"`` (compressed nodes,
        batched ranks through the kernel's RRR block decode).

    Examples
    --------
    >>> fm = FMIndex("abracadabra")
    >>> fm.count("abra")
    2
    >>> fm.locate("abra")
    [0, 7]
    >>> fm.extract(4, 8)
    'cada'
    """

    def __init__(
        self, text: str = "", sa_sample: int = 32, bitvector: str = "plain"
    ) -> None:
        if not isinstance(text, str):
            raise TypeError(f"text must be str, got {type(text).__name__}")
        if sa_sample < 1:
            raise ValueError(f"sa_sample must be at least 1, got {sa_sample}")
        if bitvector not in _BWT_KINDS:
            raise ValueError(
                f"unknown bitvector flavour {bitvector!r}; "
                f"choose from {sorted(_BWT_KINDS)}"
            )
        alphabet = sorted(set(text))
        code_of = {char: code + 1 for code, char in enumerate(alphabet)}
        codes = [code_of[char] for char in text]
        codes.append(_TERMINATOR)
        order = suffix_array(codes)
        bwt = bwt_from_suffix_array(codes, order)
        rows = len(codes)
        marked_rows: List[int] = []
        samples: List[int] = []
        for row, position in enumerate(order):
            if position % sa_sample == 0:
                marked_rows.append(row)
                samples.append(position)
        isa_samples = [0] * ((rows - 1) // sa_sample + 1)
        for row, position in enumerate(order):
            if position % sa_sample == 0:
                isa_samples[position // sa_sample] = row
        width = max(1, (rows - 1).bit_length())
        self._init_parts(
            len(text),
            "".join(alphabet),
            sa_sample,
            bitvector,
            HuffmanWaveletTree(bwt, bitvector_factory=BITVECTOR_KINDS[bitvector]),
            SparseBitVector(rows, marked_rows),
            PackedIntVector(width, samples),
            PackedIntVector(width, isa_samples),
        )

    def _init_parts(
        self,
        text_length: int,
        alphabet: str,
        sa_sample: int,
        bitvector: str,
        bwt_tree: HuffmanWaveletTree,
        marked: SparseBitVector,
        samples: PackedIntVector,
        isa_samples: PackedIntVector,
    ) -> None:
        self._bitvector_kind = bitvector
        self._text_length = text_length
        self._alphabet = alphabet
        self._code_of: Dict[str, int] = {
            char: code + 1 for code, char in enumerate(alphabet)
        }
        self._sa_sample = sa_sample
        self._bwt = bwt_tree
        self._marked = marked
        self._samples = samples
        self._isa_samples = isa_samples
        # C table: _c_table[c] = number of BWT symbols with code < c.
        counts = [0] * (len(alphabet) + 2)
        for code in range(len(alphabet) + 1):
            counts[code + 1] = counts[code] + bwt_tree.count(code)
        self._c_table = counts[: len(alphabet) + 1]

    @classmethod
    def _from_parts(
        cls,
        text_length: int,
        alphabet: str,
        sa_sample: int,
        bitvector: str,
        bwt_tree: HuffmanWaveletTree,
        marked: SparseBitVector,
        samples: PackedIntVector,
        isa_samples: PackedIntVector,
    ) -> "FMIndex":
        """Rebuild from stored parts without re-running suffix sorting."""
        self = cls.__new__(cls)
        self._init_parts(
            text_length,
            alphabet,
            sa_sample,
            bitvector,
            bwt_tree,
            marked,
            samples,
            isa_samples,
        )
        return self

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the alphabet's code points (``alphabet``), the BWT tree
        (``bwt.*``), the marked rows (``mark.*``) and the suffix-array and
        inverse samples (``sa.*``, ``isa.*``): a fixed set of sections and
        a header whatever the alphabet."""
        sink.add_i64(prefix + "alphabet", [ord(char) for char in self._alphabet])
        return {
            "text_length": self._text_length,
            "sa_sample": self._sa_sample,
            "bitvector": self._bitvector_kind,
            "bwt": self._bwt.to_words_image(sink, prefix + "bwt."),
            "marked": self._marked.to_words_image(sink, prefix + "mark."),
            "samples": self._samples.to_words_image(sink, prefix + "sa."),
            "isa_samples": self._isa_samples.to_words_image(sink, prefix + "isa."),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "FMIndex":
        """Open from a frozen image without re-running suffix sorting.

        Every part aliases the image.  The open checks that the parts
        describe one text: the BWT and the marked rows cover its rows, one
        suffix-array sample per marked row, one inverse sample per
        ``sa_sample`` positions and one marked row per inverse sample
        (each sampled position has exactly one row), all of the width the
        row count needs.
        """
        text_length = int(meta["text_length"])
        points = list(image.int64(prefix + "alphabet"))
        if points != sorted(set(points)) or not all(0 <= p < 0x110000 for p in points):
            raise SerializationError(
                f"FM-index image {prefix!r}: its alphabet is not ascending code points"
            )
        alphabet = "".join(map(chr, points))
        sa_sample = int(meta["sa_sample"])
        kind = meta["bitvector"]
        bwt = HuffmanWaveletTree.from_words_image(image, prefix + "bwt.", meta["bwt"])
        marked = SparseBitVector.from_words_image(image, prefix + "mark.", meta["marked"])
        samples = PackedIntVector.from_words_image(image, prefix + "sa.", meta["samples"])
        isa = PackedIntVector.from_words_image(image, prefix + "isa.", meta["isa_samples"])
        rows = text_length + 1
        width = max(1, (rows - 1).bit_length())
        if (
            kind not in _BWT_KINDS
            or bwt.bitvector_kind != kind
            or sa_sample < 1
            or len(bwt) != rows
            or len(marked) != rows
            or len(samples) != marked.ones
            or len(isa) != (rows - 1) // sa_sample + 1
            or marked.ones != len(isa)
            or samples.width != width
            or isa.width != width
            or not set(bwt.codes) <= set(range(len(alphabet) + 1))
        ):
            raise SerializationError(
                f"FM-index image {prefix!r} holds parts of different texts"
            )
        return cls._from_parts(
            text_length, alphabet, sa_sample, kind, bwt, marked, samples, isa
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._text_length

    @property
    def text_length(self) -> int:
        """Characters in the indexed text (excluding the terminator)."""
        return self._text_length

    @property
    def sa_sample(self) -> int:
        """The suffix-array sampling rate (the space/time knob)."""
        return self._sa_sample

    @property
    def alphabet(self) -> str:
        """The distinct characters of the text, ascending."""
        return self._alphabet

    @property
    def bitvector_kind(self) -> str:
        """Node bitvector flavour of the BWT wavelet tree."""
        return self._bitvector_kind

    # ------------------------------------------------------------------
    # Backward search
    # ------------------------------------------------------------------
    def _check_pattern(self, pattern: str) -> None:
        if not isinstance(pattern, str):
            raise TypeError(
                f"pattern must be str, got {type(pattern).__name__}"
            )

    def _interval(self, pattern: str) -> Tuple[int, int]:
        """The suffix-array row interval of suffixes prefixed by ``pattern``.

        One batched backward step per character: both interval endpoints go
        through a single ``rank_many`` pair on the BWT wavelet tree.
        """
        low, high = 0, len(self._bwt)
        for char in reversed(pattern):
            code = self._code_of.get(char)
            if code is None:
                return (0, 0)
            base = self._c_table[code]
            low, high = self._bwt.rank_many(code, (low, high))
            low += base
            high += base
            if low >= high:
                return (0, 0)
        return (low, high)

    def _interval_scalar(self, pattern: str) -> Tuple[int, int]:
        """The unbatched backward search: two scalar ranks per character.

        Kept as the measured baseline of the batched path (the ``search``
        case of ``benchmarks/run.py``); results are identical.
        """
        low, high = 0, len(self._bwt)
        for char in reversed(pattern):
            code = self._code_of.get(char)
            if code is None:
                return (0, 0)
            base = self._c_table[code]
            low = base + self._bwt.rank(code, low)
            high = base + self._bwt.rank(code, high)
            if low >= high:
                return (0, 0)
        return (low, high)

    def count(self, pattern: str) -> int:
        """Occurrences of ``pattern`` in the text (the empty pattern matches
        at every position, so it counts ``text_length + 1``)."""
        self._check_pattern(pattern)
        low, high = self._interval(pattern)
        return high - low

    def count_many(self, patterns: Sequence[str]) -> List[int]:
        """``count(pattern)`` for each pattern, batched across patterns.

        All backward searches advance in lock-step: each step ranks both
        endpoints of every live interval by that pattern's next (rightmost
        unconsumed) character in **one** descent of the BWT wavelet tree
        (:meth:`~repro.wavelet.huffman.HuffmanWaveletTree.rank_each`),
        which makes one batched rank on the shared node vector per depth
        whatever the characters -- at most ``height`` batched ranks per
        step against ``2 q`` scalar walks.
        """
        for pattern in patterns:
            self._check_pattern(pattern)
        results = [0] * len(patterns)
        code_of, c_table = self._code_of, self._c_table
        live = [(slot, 0, len(self._bwt)) for slot in range(len(patterns))]
        step = 0
        while live:
            advancing: List[Tuple[int, int]] = []
            codes: List[int] = []
            endpoints: List[int] = []
            for slot, low, high in live:
                pattern = patterns[slot]
                if step == len(pattern):
                    results[slot] = high - low
                    continue
                code = code_of.get(pattern[len(pattern) - 1 - step])
                if code is not None:
                    advancing.append((slot, code))
                    codes += (code, code)
                    endpoints += (low, high)
            ranks = self._bwt.rank_each(codes, endpoints)
            live = []
            for index, (slot, code) in enumerate(advancing):
                low = c_table[code] + ranks[2 * index]
                high = c_table[code] + ranks[2 * index + 1]
                if low < high:
                    live.append((slot, low, high))
            step += 1
        return results

    # ------------------------------------------------------------------
    # Locate / extract via the sampled suffix array
    # ------------------------------------------------------------------
    def locate(self, pattern: str) -> List[int]:
        """All occurrence positions of ``pattern``, ascending.

        Each of the ``occ`` matching rows walks the LF mapping until it hits
        a sampled row (< ``sa_sample`` steps, since LF decrements the text
        position and every ``sa_sample``-th position is sampled).  The walks
        advance together; per step, one ``access_rank_many`` on the
        Elias-Fano marked rows (one sorted search of the marked row
        numbers) yields each row's mark and, for a marked row, its sample
        index, and one ``inverse_select_many`` on the BWT tree
        yields ``BWT[row]`` and its rank -- the LF step
        ``C[c] + rank_c(row)`` -- from one descent of at most ``height``
        shared-vector calls.  Under the numpy backend the live rows stay
        int64 arrays from step to step.
        """
        self._check_pattern(pattern)
        low, high = self._interval(pattern)
        np = kernel.array_module()
        if np is not None and high - low >= SMALL_BATCH:
            return self._locate_arrays(np, low, high)
        positions: List[int] = []
        rows = list(range(low, high))
        steps = 0
        while rows:
            marks, ranks = self._marked.access_rank_many(rows)
            pending = []
            for row, mark, rank in zip(rows, marks, ranks):
                if mark:
                    positions.append(self._samples[rank] + steps)
                else:
                    pending.append(row)
            if not pending:
                break
            codes, ranks = self._bwt.inverse_select_many(pending)
            c_table = self._c_table
            rows = [c_table[code] + rank for code, rank in zip(codes, ranks)]
            steps += 1
        return sorted(positions)

    def _locate_arrays(self, np, low: int, high: int) -> List[int]:
        """:meth:`locate`'s LF walk with the live rows as int64 arrays."""
        c_table = np.asarray(self._c_table, dtype=np.int64)
        found = []
        rows = np.arange(low, high, dtype=np.int64)
        steps = 0
        while rows.size:
            marks, ranks = self._marked.access_rank_many(rows)
            marked = marks.astype(bool)
            if marked.any():
                found.append(self._samples.get_many(ranks[marked]) + steps)
                rows = rows[~marked]
                if not rows.size:
                    break
            codes, ranks = self._bwt.inverse_select_many(rows)
            rows = c_table[codes] + ranks
            steps += 1
        return np.sort(np.concatenate(found)).tolist()

    def extract(self, start: int, stop: int) -> str:
        """The text slice ``[start, stop)``, decoded from the BWT.

        Starts at the nearest inverse-suffix-array sample at or after
        ``stop`` (the terminator row when ``stop`` is near the end) and
        walks LF backwards collecting characters, so the cost is
        ``stop - start + sa_sample`` LF steps.
        """
        length = self._text_length
        if not 0 <= start <= stop <= length:
            raise OutOfBoundsError(
                f"extract range [{start}, {stop}) invalid for text length {length}"
            )
        if start == stop:
            return ""
        sample = self._sa_sample
        anchor = ((stop + sample - 1) // sample) * sample
        if anchor >= length:
            # Suffix-array row 0 is always the terminator suffix (position
            # ``length``): the terminator code is the unique smallest.
            anchor, row = length, 0
        else:
            row = self._isa_samples[anchor // sample]
        alphabet = self._alphabet
        out: List[str] = []
        position = anchor
        while position > start:
            code, rank = self._bwt.inverse_select(row)
            row = self._c_table[code] + rank
            position -= 1
            if position < stop:
                out.append(alphabet[code - 1])
        out.reverse()
        return "".join(out)

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """BWT wavelet tree + sampled-SA structures + the C table."""
        return (
            self._bwt.size_in_bits()
            + self._marked.size_in_bits()
            + self._samples.size_in_bits()
            + self._isa_samples.size_in_bits()
            + len(self._c_table) * 64
        )
