"""De-amortised freeze regression: no append pays the stop-the-world cost.

The seed implementation froze the whole tail into an RRR block the moment it
filled -- one O(block_size) combinatorial pass on a single unlucky ``append``.
The staged two-buffer handoff must instead bound the encoding work of *every*
append by the configured budget, while staying exactly correct mid-flight.
"""

import random

import pytest

from repro.bitvector.append_only import AppendOnlyBitVector
from repro.bitvector.rrr import IncrementalRRRBuilder, RRRBitVector


class TestBoundedPerAppendWork:
    def test_freeze_work_never_exceeds_budget(self):
        """With budget b, every append encodes at most b RRR blocks -- never
        the ~block_size/63 blocks of a stop-the-world freeze."""
        for budget in (1, 2, 5):
            vector = AppendOnlyBitVector(
                block_size=1024, freeze_blocks_per_append=budget
            )
            worst = 0
            for i in range(5000):
                vector.append(i % 3 == 0)
                worst = max(worst, vector.last_freeze_blocks)
            assert worst <= budget
            assert vector.block_count >= 4  # freezes actually happened

    def test_bulk_refill_cannot_force_a_synchronous_freeze(self):
        """A bulk extend may refill the tail while a stage is still in
        flight; subsequent appends must keep draining at the budget (the
        tail transiently overshoots block_size by a bounded amount) rather
        than ever finishing the stage synchronously."""
        block = 1024
        vector = AppendOnlyBitVector(block_size=block, freeze_blocks_per_append=1)
        reference = []

        def push(bit):
            vector.append(bit)
            reference.append(bit)

        for i in range(block + 1):  # fills the tail, stage starts draining
            push(i & 1)
        assert vector.pending_freeze_bits > 0
        filler = [1, 0] * ((block - 2) // 2)  # refill the tail in bulk
        vector.extend(filler)
        reference.extend(filler)
        assert vector.pending_freeze_bits > 0  # bulk did not touch the stage
        worst = 0
        max_tail = 0
        stage_blocks = (block + 62) // 63
        for i in range(3 * block):
            push(i % 5 == 0)
            worst = max(worst, vector.last_freeze_blocks)
            max_tail = max(max_tail, len(vector._tail))
        assert worst <= 1  # never the ~stage_blocks stop-the-world pass
        assert max_tail <= block + stage_blocks + 1  # bounded overshoot
        assert vector.to_list() == reference

    def test_stage_drains_before_tail_refills(self):
        """Budget 1 is already enough: ceil(block_size / 63) encode steps
        always finish long before block_size further appends arrive, so a
        handoff never meets an unfinished stage on the bounded path."""
        vector = AppendOnlyBitVector(block_size=64, freeze_blocks_per_append=1)
        for i in range(64):
            vector.append(i & 1)
        assert vector.pending_freeze_bits > 0  # stage just handed off
        vector.append(1)
        vector.append(0)
        assert vector.pending_freeze_bits == 0  # drained within 2 appends
        assert vector.block_count == 1

    def test_budget_must_be_at_least_one(self):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                AppendOnlyBitVector(freeze_blocks_per_append=budget)

    def test_queries_exact_while_stage_in_flight(self):
        rng = random.Random(31)
        vector = AppendOnlyBitVector(block_size=256, freeze_blocks_per_append=1)
        reference = []
        for step in range(1200):
            bit = rng.randint(0, 1)
            vector.append(bit)
            reference.append(bit)
            if step % 83 == 0:
                pos = rng.randint(0, len(reference))
                assert vector.rank(1, pos) == sum(reference[:pos])
                assert vector.access(len(reference) - 1) == reference[-1]
        assert vector.to_list() == reference
        assert vector.ones == sum(reference)

    def test_incremental_builder_matches_direct_construction(self):
        rng = random.Random(9)
        bits = [rng.randint(0, 1) for _ in range(1000)]
        direct = RRRBitVector(bits)
        from repro.bits.bitstring import Bits
        from repro.bits import kernel

        payload = Bits.from_iterable(bits)
        builder = IncrementalRRRBuilder(
            kernel.pack_value(payload.value, len(payload)), len(payload)
        )
        steps = 0
        while not builder.done:
            assert builder.encode_blocks(1) == 1
            steps += 1
        block = builder.finish()
        assert steps == (1000 + 62) // 63
        assert block.to_list() == direct.to_list()
        assert block.size_in_bits() == direct.size_in_bits()
        for pos in range(0, 1001, 37):
            assert block.rank(1, pos) == direct.rank(1, pos)
