"""Append-only compressed bitvector (paper Section 4.1, Theorem 4.5).

The paper's construction keeps a small mutable tail (Lemma 4.6), a collection
of frozen RRR-compressed blocks, and partial-sum directories over the block
lengths and popcounts; appends are O(1) (amortised in Lemma 4.7, worst-case
after de-amortisation) and queries are O(1).

This implementation follows the same decomposition:

* a :class:`~repro.bits.bitbuffer.BitBuffer` tail of at most ``block_size``
  bits (the paper's ``B'`` / ``F1``);
* a *staged* payload being compressed incrementally -- the de-amortisation of
  Lemma 4.7: when the tail fills it is handed off to an
  :class:`~repro.bitvector.rrr.IncrementalRRRBuilder` and a fresh tail starts,
  with a bounded number of RRR blocks encoded per subsequent append, so no
  single ``append`` ever pays the O(block_size) stop-the-world freeze;
* a list of frozen :class:`~repro.bitvector.rrr.RRRBitVector` blocks
  (the paper's ``F_i``);
* append-only cumulative arrays of block lengths and block popcounts, queried
  with binary search (the engineered stand-in for the constant-time partial
  sum structures; the log factor is over the number of blocks only).

The logical bit order is ``offset | frozen blocks | staged | tail``.

It additionally supports the ``Init`` operation needed by the *append-only
Wavelet Trie* (Theorem 4.3): a constant run of bits can be prepended as a pure
offset (``offset_bit``/``offset_length``), exactly as the paper prescribes
("Init can be implemented simply by adding a left offset in each bitvector").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.kernel import WORD
from repro.bitvector.base import BitVector, validate_select_indexes
from repro.bitvector.rrr import IncrementalRRRBuilder, RRRBitVector
from repro.exceptions import OutOfBoundsError

__all__ = ["AppendOnlyBitVector"]

_DEFAULT_BLOCK = 1024
_DEFAULT_FREEZE_BUDGET = 2


class AppendOnlyBitVector(BitVector):
    """Compressed bitvector supporting ``Append`` plus O(1)-style queries.

    Parameters
    ----------
    initial:
        Optional iterable of bits appended at construction time.
    block_size:
        Number of tail bits accumulated before freezing them into an RRR
        block (the paper's ``L = Theta(polylog n)``).
    offset_bit, offset_length:
        Implements ``Init(b, n)``: the bitvector behaves as if it started with
        ``offset_length`` copies of ``offset_bit`` (paper Theorem 4.3).
    freeze_blocks_per_append:
        De-amortisation budget: RRR blocks encoded from the staged payload per
        ``append`` call, at least 1.  Any budget keeps worst-case append
        latency bounded (a stage of ``ceil(block_size / 63)`` RRR blocks
        always completes long before the fresh tail refills).
    """

    __slots__ = (
        "_block_size",
        "_blocks",
        "_cum_length",
        "_cum_ones",
        "_cum_zeros",
        "_tail",
        "_stage",
        "_staged_ones",
        "_freeze_budget",
        "_last_freeze_blocks",
        "_offset_bit",
        "_offset_length",
    )

    def __init__(
        self,
        initial: Iterable[int] = (),
        block_size: int = _DEFAULT_BLOCK,
        offset_bit: int = 0,
        offset_length: int = 0,
        freeze_blocks_per_append: int = _DEFAULT_FREEZE_BUDGET,
    ) -> None:
        if block_size < 64:
            raise ValueError("block_size must be at least 64 bits")
        if offset_length < 0:
            raise ValueError("offset_length must be non-negative")
        if freeze_blocks_per_append < 1:
            raise ValueError("freeze_blocks_per_append must be at least 1")
        self._block_size = block_size
        self._blocks: List[RRRBitVector] = []
        # _cum_length[i] / _cum_ones[i] / _cum_zeros[i] = bits / ones / zeros
        # in blocks[0..i-1]
        self._cum_length: List[int] = [0]
        self._cum_ones: List[int] = [0]
        self._cum_zeros: List[int] = [0]
        self._tail = BitBuffer()
        self._stage: Optional[IncrementalRRRBuilder] = None
        self._staged_ones = 0  # the ones of the staged payload, 0 when idle
        self._freeze_budget = freeze_blocks_per_append
        self._last_freeze_blocks = 0
        self._offset_bit = 1 if offset_bit else 0
        self._offset_length = offset_length
        self.extend(initial)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def init_run(cls, bit: int, length: int, block_size: int = _DEFAULT_BLOCK) -> "AppendOnlyBitVector":
        """``Init(b, n)``: a bitvector equal to ``length`` copies of ``bit``.

        Runs in O(1) regardless of ``length`` -- the property (Remark 4.2)
        required by the append-only Wavelet Trie.
        """
        return cls(block_size=block_size, offset_bit=bit, offset_length=length)

    # ------------------------------------------------------------------
    # Size / structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return (
            self._offset_length
            + self._cum_length[-1]
            + self._staged_length
            + len(self._tail)
        )

    @property
    def ones(self) -> int:
        offset_ones = self._offset_length if self._offset_bit else 0
        return (
            offset_ones + self._cum_ones[-1] + self._staged_ones + self._tail.ones
        )

    @property
    def block_count(self) -> int:
        """Number of frozen RRR blocks."""
        return len(self._blocks)

    @property
    def offset_length(self) -> int:
        """Length of the implicit constant prefix installed by ``Init``."""
        return self._offset_length

    @property
    def _staged_length(self) -> int:
        return self._stage.length if self._stage is not None else 0

    @property
    def pending_freeze_bits(self) -> int:
        """Staged bits whose RRR encoding has not happened yet (0 when idle)."""
        return self._stage.pending_bits if self._stage is not None else 0

    @property
    def last_freeze_blocks(self) -> int:
        """RRR blocks encoded by the most recent ``append`` call.

        Exposed for the de-amortisation regression test: this never
        exceeds the freeze budget, i.e. no append pays the
        O(block_size / 63)-block stop-the-world freeze.
        """
        return self._last_freeze_blocks

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, bit: int) -> None:
        """Append one bit in O(1) amortised *and* bounded worst case.

        The tail append itself is O(1), and at most
        ``freeze_blocks_per_append`` RRR blocks of the staged payload are
        encoded -- the Lemma 4.7 de-amortisation.  A full tail is handed off
        to the incremental freezer (an O(tail / w) word-list move, no
        encoding) only once the previous stage has drained; until then the
        tail transiently overshoots ``block_size`` by at most the stage's
        remaining block count, so *no* append ever pays a synchronous
        O(block_size) freeze.
        """
        self._tail.append(1 if bit else 0)
        blocks = 0
        if self._stage is not None:
            blocks = self._advance_freeze()
        if self._stage is None and len(self._tail) >= self._block_size:
            self._stage_tail()
            if blocks == 0:
                blocks = self._advance_freeze()
        self._last_freeze_blocks = blocks

    def _advance_freeze(self) -> int:
        """Encode this append's share of the staged payload; returns blocks.

        At most the budget's blocks; the stage commits once it drains.
        """
        blocks = self._stage.encode_blocks(self._freeze_budget)
        if self._stage.done:
            self._finish_stage()
        return blocks

    def extend(self, bits: Iterable[int]) -> None:
        """Append every bit of ``bits`` in order (bulk ``Append``).

        Amortised O(k / 8 + k / block_size * encode(block_size)): the input
        is packed once through the kernel and spliced into the tail block by
        block; full blocks are frozen synchronously (bulk callers pay the
        amortised cost by definition, so no staging is needed).
        """
        if not isinstance(bits, Bits):
            bits = Bits.from_iterable(bits)
        self.append_bits(bits)

    def append_bits(self, bits: Bits) -> None:
        """Append a :class:`Bits` payload via word-level block slices.

        The payload is packed into words once (O(k / 8)); each block is then
        carved out with :func:`~repro.bits.kernel.extract_bits_value`, which
        touches only that block's words -- ``Bits.slice`` would shift the
        whole backing integer per block and make bulk appends quadratic.
        """
        total = len(bits)
        if total == 0:
            return
        words = kernel.pack_value(bits.value, total)
        pos = 0
        # The tail can transiently exceed block_size while a stage drains
        # (see append); flush that state first so every carve below fits.
        if len(self._tail) >= self._block_size:
            self._stage_tail()
            self._finish_stage()
        while pos < total:
            take = min(self._block_size - len(self._tail), total - pos)
            self._tail.append_int(
                kernel.extract_bits_value(words, pos, pos + take), take
            )
            pos += take
            if len(self._tail) >= self._block_size:
                self._stage_tail()
                self._finish_stage()

    def _stage_tail(self) -> None:
        """Hand the full tail to the incremental freezer; start a fresh tail.

        O(tail / w): only the packed word list moves -- no combinatorial
        encoding happens here.  The bounded ``append`` path only calls this
        with no stage in flight; the bulk path may still meet one, and
        completes it first to preserve block order (bulk work is amortised
        by definition).
        """
        if self._stage is not None:
            self._finish_stage()
        self._stage = IncrementalRRRBuilder(self._tail.words(), len(self._tail))
        self._staged_ones = self._tail.ones
        self._tail = BitBuffer()

    def _finish_stage(self) -> None:
        """Run the staged encode to completion (the builder's ``finish``
        encodes the blocks still pending) and append the RRR block and its
        directory entries."""
        block = self._stage.finish()
        self._blocks.append(block)
        self._cum_length.append(self._cum_length[-1] + len(block))
        self._cum_ones.append(self._cum_ones[-1] + block.ones)
        self._cum_zeros.append(self._cum_length[-1] - self._cum_ones[-1])
        self._stage = None
        self._staged_ones = 0

    # ------------------------------------------------------------------
    # Staged-segment primitives (raw packed words, queried while in flight)
    # ------------------------------------------------------------------
    def _staged_access(self, pos: int) -> int:
        words = self._stage.words
        return (words[pos >> 6] >> (WORD - 1 - (pos & 63))) & 1

    def _staged_rank1(self, pos: int) -> int:
        return kernel.popcount_range(self._stage.words, 0, pos)

    def _staged_select(self, bit: int, idx: int) -> int:
        return kernel.select_bit_in_words(
            self._stage.words, self._stage.length, bit, idx
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def access(self, pos: int) -> int:
        self._check_pos(pos)
        if pos < self._offset_length:
            return self._offset_bit
        pos -= self._offset_length
        frozen = self._cum_length[-1]
        if pos < frozen:
            block_index = bisect_right(self._cum_length, pos) - 1
            return self._blocks[block_index].access(pos - self._cum_length[block_index])
        pos -= frozen
        staged = self._staged_length
        if pos < staged:
            return self._staged_access(pos)
        return self._tail[pos - staged]

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        # Ones contributed by the Init offset prefix.
        in_offset = min(pos, self._offset_length)
        ones = in_offset if self._offset_bit else 0
        rest = pos - in_offset
        if rest > 0:
            frozen = self._cum_length[-1]
            if rest > frozen:
                ones += self._cum_ones[-1]
                rest -= frozen
                staged = self._staged_length
                if rest > staged:
                    ones += self._staged_ones
                    ones += self._tail.rank(1, rest - staged)
                else:
                    ones += self._staged_rank1(rest)
            else:
                block_index = bisect_right(self._cum_length, rest - 1) - 1
                ones += self._cum_ones[block_index]
                ones += self._blocks[block_index].rank(
                    1, rest - self._cum_length[block_index]
                )
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        total = self.count(bit)
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({bit}, {idx}) out of range: only {total} occurrences"
            )
        # Offset prefix.
        offset_count = self._offset_length if self._offset_bit == bit else 0
        if idx < offset_count:
            return idx
        idx -= offset_count
        # Frozen blocks: binary search the cumulative counts of `bit` (the
        # zeros directory is maintained append-only alongside the ones).
        cum = self._cum_ones if bit else self._cum_zeros
        block_index = bisect_right(cum, idx) - 1
        before = cum[block_index]
        frozen_total = cum[-1]
        if block_index < len(self._blocks):
            in_block = self._blocks[block_index].count(bit)
            if idx - before < in_block:
                return (
                    self._offset_length
                    + self._cum_length[block_index]
                    + self._blocks[block_index].select(bit, idx - before)
                )
        # Staged segment, then the tail.
        idx -= frozen_total
        staged_count = (
            self._staged_ones if bit else self._staged_length - self._staged_ones
        )
        frozen_start = self._offset_length + self._cum_length[-1]
        if idx < staged_count:
            return frozen_start + self._staged_select(bit, idx)
        idx -= staged_count
        return frozen_start + self._staged_length + self._tail.select(bit, idx)

    def select_many(self, bit: int, indexes) -> List[int]:
        """``select(bit, idx)`` for each index, batch-amortised per segment.

        The indexes are sorted once and routed through the segments in order
        (offset prefix, frozen blocks, staged payload, tail); queries landing
        in the same frozen block are answered by that block's RRR
        ``select_many`` (one decode per touched block), so the per-query cost
        amortises to O(log q) sort work plus the shared directory walks
        instead of one binary search + block scan each.
        """
        self._check_bit(bit)
        indexes = validate_select_indexes(indexes, self.count(bit), bit)
        if not indexes:
            return []
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        out = [0] * len(indexes)
        offset_count = self._offset_length if self._offset_bit == bit else 0
        frozen_cum = self._cum_ones if bit else self._cum_zeros
        frozen_total = frozen_cum[-1]
        staged_count = (
            self._staged_ones if bit else self._staged_length - self._staged_ones
        )
        frozen_start = self._offset_length + self._cum_length[-1]
        n_queries = len(order)
        at = 0
        # Offset prefix: the idx-th occurrence *is* position idx.
        while at < n_queries and indexes[order[at]] < offset_count:
            out[order[at]] = indexes[order[at]]
            at += 1
        # Frozen blocks: group queries per block, one batched select per block.
        block_index = 0
        while at < n_queries:
            idx = indexes[order[at]] - offset_count
            if idx >= frozen_total:
                break
            block_index = bisect_right(frozen_cum, idx, block_index + 1) - 1
            before = frozen_cum[block_index]
            upper = frozen_cum[block_index + 1]
            group_end = at + 1
            while (
                group_end < n_queries
                and indexes[order[group_end]] - offset_count < upper
            ):
                group_end += 1
            base = self._offset_length + self._cum_length[block_index]
            local = self._blocks[block_index].select_many(
                bit,
                [indexes[order[i]] - offset_count - before for i in range(at, group_end)],
            )
            for i, position in zip(range(at, group_end), local):
                out[order[i]] = base + position
            at = group_end
        # Staged payload, then the tail (both bounded by block_size bits).
        # The tail's padded word list is materialised once for the whole
        # batch rather than once per tail-landing query.
        tail_words = None
        tail_length = len(self._tail)
        while at < n_queries:
            idx = indexes[order[at]] - offset_count - frozen_total
            if idx < staged_count:
                out[order[at]] = frozen_start + self._staged_select(bit, idx)
            else:
                if tail_words is None:
                    tail_words = self._tail.words()
                out[order[at]] = (
                    frozen_start
                    + self._staged_length
                    + kernel.select_bit_in_words(
                        tail_words, tail_length, bit, idx - staged_count
                    )
                )
            at += 1
        return out

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        self._check_range(start, stop)
        pos = start
        # Offset segment.
        while pos < stop and pos < self._offset_length:
            yield self._offset_bit
            pos += 1
        if pos >= stop:
            return
        frozen_end = self._offset_length + self._cum_length[-1]
        while pos < stop and pos < frozen_end:
            local = pos - self._offset_length
            block_index = bisect_right(self._cum_length, local) - 1
            block = self._blocks[block_index]
            block_start = self._offset_length + self._cum_length[block_index]
            upper = min(stop, block_start + len(block))
            yield from block.iter_range(pos - block_start, upper - block_start)
            pos = upper
        staged_end = frozen_end + self._staged_length
        if pos < stop and pos < staged_end:
            upper = min(stop, staged_end)
            yield from kernel.broadword_iter_words(
                self._stage.words, pos - frozen_end, upper - frozen_end
            )
            pos = upper
        if pos < stop:
            for local in range(pos - staged_end, stop - staged_end):
                yield self._tail[local]

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Encoded size: frozen blocks + staged words + tail + directories."""
        blocks = sum(block.size_in_bits() for block in self._blocks)
        directories = (
            len(self._cum_length) + len(self._cum_ones) + len(self._cum_zeros)
        ) * 64
        staged = len(self._stage.words) * WORD if self._stage is not None else 0
        tail = len(self._tail) + 2 * 64
        return blocks + directories + staged + tail + 2 * 64

    def payload_bits(self) -> int:
        """Compressed payload only (RRR payloads + staged words + raw tail)."""
        return (
            sum(block.payload_bits() for block in self._blocks)
            + self._staged_length
            + len(self._tail)
        )

    def to_list(self) -> List[int]:
        return list(self.iter_range(0, len(self)))
