"""Static run-length encoded bitvector with Elias gamma coded runs.

``RLE + gamma`` is the encoding the paper adopts for the node bitvectors of the
fully dynamic Wavelet Trie (Section 4.2, following Foschini et al.).  This
module provides the *static* variant, used for space comparisons and as the
static trie's ``bitvector="rle"`` node encoding; the dynamic variant lives in
:mod:`repro.bitvector.dynamic`.

The bitvector ``0^{r0} 1^{r1} 0^{r2} ...`` is stored as the gamma codes of the
runs ``r0, r1, r2, ...`` (a leading zero-length run is encoded when the vector
starts with a 1), plus a sampled directory with one entry every ``sample_rate``
runs recording the starting position, the number of ones before the run and
the bit offset of its gamma code.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple, Union

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bits.codes import BitReader, BitWriter, gamma_code_length
from repro.bits.kernel import runs_of_value
from repro.bitvector.base import StaticBitVector, validate_select_indexes
from repro.exceptions import OutOfBoundsError, SerializationError

__all__ = ["RLEBitVector", "runs_of"]

_DEFAULT_SAMPLE = 32


def runs_of(bits: Union[Bits, Iterable[int]]) -> List[Tuple[int, int]]:
    """Return the maximal runs of ``bits`` as a list of ``(bit, length)`` pairs.

    A :class:`Bits` payload goes through the kernel's xor-shift boundary
    extraction.  Any other iterable is grouped in one Python pass, truthy
    items counting as 1 as in ``Bits.from_iterable``: on a 2-vCPU Xeon with
    Python 3.11 that pass beat packing a list into words and decoding the
    runs back, under both kernel backends, at every size from 1 to 10^6
    bits -- about 1 us against 5-17 us for 16 bits, the size a batched trie
    append hands one node.
    """
    if isinstance(bits, Bits):
        return runs_of_value(bits.value, len(bits))
    return _group_runs(bits)


def _group_runs(items: Iterable[object]) -> List[Tuple[int, int]]:
    """The maximal runs of the truth values of ``items``, in one pass."""
    runs: List[Tuple[int, int]] = []
    previous = -1
    length = 0
    for item in items:
        bit = 1 if item else 0
        if bit == previous:
            length += 1
        else:
            if length:
                runs.append((previous, length))
            previous = bit
            length = 1
    if length:
        runs.append((previous, length))
    return runs


class RLEBitVector(StaticBitVector):
    """Static RLE + Elias gamma bitvector with sampled rank/select directories."""

    __slots__ = (
        "_length",
        "_ones",
        "_codes",
        "_n_runs",
        "_first_bit",
        "_sample_rate",
        "_sample_pos",
        "_sample_ones",
        "_sample_code",
    )

    def __init__(
        self,
        bits: Union[Bits, Iterable[int]] = (),
        sample_rate: int = _DEFAULT_SAMPLE,
    ) -> None:
        if sample_rate < 1:
            raise ValueError("sample_rate must be positive")
        self._sample_rate = sample_rate
        self._build_from_runs(runs_of(bits))

    def _build_from_runs(self, runs: List[Tuple[int, int]]) -> None:
        sample_rate = self._sample_rate
        self._n_runs = len(runs)
        self._first_bit = runs[0][0] if runs else 0
        writer = BitWriter()
        sample_pos: List[int] = []
        sample_ones: List[int] = []
        sample_code: List[int] = []
        position = 0
        ones = 0
        for index, (bit, length) in enumerate(runs):
            if index % sample_rate == 0:
                sample_pos.append(position)
                sample_ones.append(ones)
                sample_code.append(len(writer))
            writer.write_gamma(length)
            position += length
            if bit:
                ones += length
        self._length = position
        self._ones = ones
        self._codes = writer.to_bits()
        self._sample_pos = sample_pos
        self._sample_ones = sample_ones
        self._sample_code = sample_code

    # ------------------------------------------------------------------
    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, int]], sample_rate: int = _DEFAULT_SAMPLE) -> "RLEBitVector":
        """Build from an iterable of ``(bit, length)`` runs.

        Adjacent same-bit and zero-length runs are normalised away; the runs
        are encoded directly, never expanded bit by bit.
        """
        if sample_rate < 1:
            raise ValueError("sample_rate must be positive")
        normalized: List[Tuple[int, int]] = []
        for bit, length in runs:
            if length < 0:
                raise ValueError("run length must be non-negative")
            if length == 0:
                continue
            bit = 1 if bit else 0
            if normalized and normalized[-1][0] == bit:
                normalized[-1] = (bit, normalized[-1][1] + length)
            else:
                normalized.append((bit, length))
        vector = cls.__new__(cls)
        vector._sample_rate = sample_rate
        vector._build_from_runs(normalized)
        return vector

    @classmethod
    def from_words(
        cls,
        words: List[int],
        length: int,
        sample_rate: int = _DEFAULT_SAMPLE,
    ) -> "RLEBitVector":
        """Build from a kernel packed word sequence (list or word array).

        The array-aware construction path: the runs are decoded straight
        from the packed words by the kernel backend (one boundary-diff pass
        under numpy) and gamma-encoded, never expanded bit by bit.
        """
        return cls.from_runs(
            kernel.runs_of_words(words, length), sample_rate=sample_rate
        )

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink, prefix: str) -> dict:
        """Write the gamma stream and the sampled directory to a sink.

        Sections: ``codes`` (the gamma-coded runs, packed words) and
        ``spos``/``sones``/``scode`` (the samples).  Returns the meta dict
        :meth:`from_words_image` needs.
        """
        codes = self._codes
        sink.add_u64(prefix + "codes", kernel.pack_value(codes.value, len(codes)))
        sink.add_i64(prefix + "spos", self._sample_pos)
        sink.add_i64(prefix + "sones", self._sample_ones)
        sink.add_i64(prefix + "scode", self._sample_code)
        return {
            "length": self._length,
            "ones": self._ones,
            "runs": self._n_runs,
            "first_bit": self._first_bit,
            "sample_rate": self._sample_rate,
            "code_len": len(self._codes),
        }

    @classmethod
    def from_words_image(cls, image, prefix: str, meta: dict) -> "RLEBitVector":
        """Open from a frozen image: the samples alias it, and the gamma
        stream becomes one :class:`Bits` value (one O(codes / w) copy).

        The meta is checked against the sections: the word and sample
        counts, and the length, ones and code length against the last
        sample plus the runs after it (at most ``sample_rate`` decodes).
        """
        self = cls.__new__(cls)
        self._length = int(meta["length"])
        self._ones = int(meta["ones"])
        self._n_runs = int(meta["runs"])
        self._first_bit = int(meta["first_bit"])
        self._sample_rate = int(meta["sample_rate"])
        code_len = int(meta["code_len"])
        words = image.words(prefix + "codes")
        self._sample_pos = image.int64(prefix + "spos")
        self._sample_ones = image.int64(prefix + "sones")
        self._sample_code = image.int64(prefix + "scode")
        samples = len(self._sample_pos)
        if (
            self._sample_rate < 1
            or self._first_bit not in (0, 1)
            or min(self._n_runs, code_len) < 0
            or len(words) != -(-code_len // 64)
            or samples != -(-self._n_runs // self._sample_rate)
            or len(self._sample_ones) != samples
            or len(self._sample_code) != samples
        ):
            raise SerializationError(
                f"image meta for {prefix} does not match its sections"
            )
        self._codes = Bits(kernel.unpack_value(words, code_len), code_len)
        length = ones = end = 0
        if samples:
            last = samples - 1
            length, ones = self._sample_pos[last], self._sample_ones[last]
            if not 0 <= self._sample_code[last] <= code_len:
                raise SerializationError(f"image section {prefix}scode is out of range")
            reader = BitReader(self._codes, self._sample_code[last])
            try:
                for run_index in range(last * self._sample_rate, self._n_runs):
                    run = reader.read_gamma()
                    length += run
                    ones += run if self._run_bit(run_index) else 0
            except (OutOfBoundsError, ValueError) as error:
                raise SerializationError(
                    f"image section {prefix}codes ends inside a run ({error})"
                ) from error
            end = reader.position
        if (length, ones, end) != (self._length, self._ones, code_len):
            raise SerializationError(
                f"image meta for {prefix} says {self._length} bits, "
                f"{self._ones} ones and {code_len} code bits; its sections "
                f"hold {length}, {ones} and {end}"
            )
        return self

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def run_count(self) -> int:
        """Number of maximal runs."""
        return self._n_runs

    # ------------------------------------------------------------------
    def _run_bit(self, run_index: int) -> int:
        """Bit value of run ``run_index`` (runs alternate starting at _first_bit)."""
        return self._first_bit ^ (run_index & 1)

    def _locate_position(self, pos: int) -> Tuple[int, int, int, int]:
        """Find the run containing position ``pos``.

        Returns ``(run_index, run_start, ones_before_run, code_offset)``.
        """
        sample_index = bisect_right(self._sample_pos, pos) - 1
        run_index = sample_index * self._sample_rate
        run_start = self._sample_pos[sample_index]
        ones = self._sample_ones[sample_index]
        reader = BitReader(self._codes, self._sample_code[sample_index])
        while True:
            length = reader.read_gamma()
            if run_start + length > pos or run_index == self._n_runs - 1:
                return run_index, run_start, ones, length
            if self._run_bit(run_index):
                ones += length
            run_start += length
            run_index += 1

    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        self._check_pos(pos)
        run_index, _, _, _ = self._locate_position(pos)
        return self._run_bit(run_index)

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        if pos == 0:
            return 0
        run_index, run_start, ones, _ = self._locate_position(pos - 1)
        if self._run_bit(run_index):
            ones += pos - run_start
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        total = self._ones if bit else self._length - self._ones
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        # Binary search on sampled counts of `bit` before each sample.
        if bit:
            counts = self._sample_ones
        else:
            counts = [
                pos - ones for pos, ones in zip(self._sample_pos, self._sample_ones)
            ]
        sample_index = bisect_right(counts, idx) - 1
        run_index = sample_index * self._sample_rate
        run_start = self._sample_pos[sample_index]
        seen = counts[sample_index]
        reader = BitReader(self._codes, self._sample_code[sample_index])
        while True:
            length = reader.read_gamma()
            if self._run_bit(run_index) == bit:
                if seen + length > idx:
                    return run_start + (idx - seen)
                seen += length
            run_start += length
            run_index += 1

    def select_many(self, bit: int, indexes) -> List[int]:
        """``select(bit, idx)`` for each index, batch-amortised.

        The indexes are sorted once, the zeros-count sample directory is
        materialised once (the scalar path rebuilds it per call), and the
        gamma-coded runs are decoded monotonically -- a sample re-jump happens
        only when the next query overshoots the current sample region, so
        each touched run is decoded exactly once.  Amortised O(q log q + R)
        where R is the number of touched runs, against one directory search
        plus run scan per query for the scalar loop.
        """
        self._check_bit(bit)
        total = self._ones if bit else self._length - self._ones
        indexes = validate_select_indexes(indexes, total, bit)
        if not indexes:
            return []
        if bit:
            counts = self._sample_ones
        else:
            counts = [
                pos - ones
                for pos, ones in zip(self._sample_pos, self._sample_ones)
            ]
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        out = [0] * len(indexes)
        sample_rate = self._sample_rate
        n_samples = len(counts)
        run_index = run_start = seen = 0
        reader = None
        current_len = None
        for index in order:
            idx = indexes[index]
            next_sample = run_index // sample_rate + 1
            if reader is None or (
                next_sample < n_samples and counts[next_sample] <= idx
            ):
                sample_index = bisect_right(counts, idx) - 1
                run_index = sample_index * sample_rate
                run_start = self._sample_pos[sample_index]
                seen = counts[sample_index]
                reader = BitReader(self._codes, self._sample_code[sample_index])
                current_len = None
            while True:
                if current_len is None:
                    current_len = reader.read_gamma()
                if self._run_bit(run_index) == bit:
                    if seen + current_len > idx:
                        out[index] = run_start + (idx - seen)
                        break
                    seen += current_len
                run_start += current_len
                run_index += 1
                current_len = None
        return out

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        self._check_range(start, stop)
        if start >= stop:
            return
        # Walk runs from the nearest sample point before `start`.
        sample_index = bisect_right(self._sample_pos, start) - 1
        run_index = sample_index * self._sample_rate
        run_start = self._sample_pos[sample_index]
        reader = BitReader(self._codes, self._sample_code[sample_index])
        pos = start
        while pos < stop:
            length = reader.read_gamma()
            run_end = run_start + length
            if run_end > pos:
                bit = self._run_bit(run_index)
                emit_until = min(run_end, stop)
                # C-level run emission: one repeat() per run, no per-bit loop.
                yield from repeat(bit, emit_until - pos)
                pos = emit_until
            run_start = run_end
            run_index += 1

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        codes = len(self._codes)
        samples = 3 * len(self._sample_pos) * 64
        return codes + samples + 64  # + first-bit/word of metadata

    def payload_bits(self) -> int:
        """Bits of the gamma-coded runs only."""
        return len(self._codes)

    def runs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the ``(bit, length)`` runs."""
        reader = BitReader(self._codes)
        for run_index in range(self._n_runs):
            yield self._run_bit(run_index), reader.read_gamma()
