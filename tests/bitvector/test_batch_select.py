"""Property tests for the select-side batch paths (``select_many``).

Every encoding's ``select_many`` must agree with its scalar ``select`` --
in *input order*, for unsorted and duplicated indexes -- and with a plain
list oracle, including mid-churn on the dynamic structures.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitvector.append_only import AppendOnlyBitVector
from repro.bitvector.dynamic import DynamicBitVector
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.sparse import SparseBitVector
from repro.exceptions import OutOfBoundsError

ENCODINGS = [
    PlainBitVector,
    RRRBitVector,
    SparseBitVector.from_bits,
    DynamicBitVector,
    AppendOnlyBitVector,
]
ENCODING_IDS = [encoding.__qualname__ for encoding in ENCODINGS]


def oracle_positions(bits, bit):
    return [pos for pos, value in enumerate(bits) if value == bit]


@st.composite
def bits_and_queries(draw):
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=400))
    bit = draw(st.integers(0, 1))
    total = bits.count(bit)
    if total == 0:
        bits.append(bit)
        total = 1
    indexes = draw(
        st.lists(st.integers(0, total - 1), min_size=0, max_size=60)
    )
    return bits, bit, indexes


class TestSelectManyMatchesScalar:
    @pytest.mark.parametrize("encoding", ENCODINGS, ids=ENCODING_IDS)
    @given(data=bits_and_queries())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_and_oracle(self, encoding, data):
        bits, bit, indexes = data
        vector = encoding(bits)
        positions = oracle_positions(bits, bit)
        expected = [positions[idx] for idx in indexes]
        assert vector.select_many(bit, indexes) == expected
        assert [vector.select(bit, idx) for idx in indexes] == expected

    @pytest.mark.parametrize("encoding", ENCODINGS, ids=ENCODING_IDS)
    def test_unsorted_and_duplicate_indexes_keep_input_order(self, encoding):
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1] * 13
        vector = encoding(bits)
        indexes = [5, 0, 5, 2, 7, 0]
        positions = oracle_positions(bits, 1)
        assert vector.select_many(1, indexes) == [positions[i] for i in indexes]

    @pytest.mark.parametrize("encoding", ENCODINGS, ids=ENCODING_IDS)
    def test_empty_batch(self, encoding):
        vector = encoding([1, 0, 1])
        assert vector.select_many(1, []) == []

    @pytest.mark.parametrize("encoding", ENCODINGS, ids=ENCODING_IDS)
    def test_out_of_range_raises(self, encoding):
        vector = encoding([1, 0, 1])
        with pytest.raises(OutOfBoundsError):
            vector.select_many(1, [0, 2])
        with pytest.raises(OutOfBoundsError):
            vector.select_many(0, [-1])

    def test_small_batches_use_scalar_fallback(self):
        """DynamicBitVector falls back to tree walks for tiny batches; both
        paths must agree."""
        bits = [i % 2 for i in range(500)]  # run-heavy in the other direction
        vector = DynamicBitVector(bits)
        assert vector._batch_prefers_scalar(2)
        assert vector.select_many(1, [3, 1]) == [7, 3]


class TestSelectManyUnderChurn:
    def test_dynamic_select_many_tracks_updates(self):
        rng = random.Random(1234)
        reference = []
        vector = DynamicBitVector()
        for _ in range(40):
            action = rng.random()
            if action < 0.5 or not reference:
                chunk = [rng.randint(0, 1) for _ in range(rng.randint(1, 40))]
                position = rng.randint(0, len(reference))
                vector.insert_many(position, chunk)
                reference[position:position] = chunk
            elif action < 0.75:
                position = rng.randrange(len(reference))
                assert vector.delete(position) == reference.pop(position)
            else:
                bit = rng.randint(0, 1)
                positions = oracle_positions(reference, bit)
                if positions:
                    indexes = [
                        rng.randrange(len(positions))
                        for _ in range(rng.randint(1, 25))
                    ]
                    assert vector.select_many(bit, indexes) == [
                        positions[idx] for idx in indexes
                    ]
        assert vector.to_list() == reference

    def test_append_only_select_many_with_stage_in_flight(self):
        """Queries must be exact while a staged freeze is mid-encode."""
        vector = AppendOnlyBitVector(block_size=256, freeze_blocks_per_append=1)
        rng = random.Random(77)
        reference = []
        for _ in range(600):
            bit = rng.randint(0, 1)
            vector.append(bit)
            reference.append(bit)
            if len(reference) % 97 == 0:
                for probe in (0, 1):
                    positions = oracle_positions(reference, probe)
                    if positions:
                        indexes = list(range(0, len(positions), 7))
                        assert vector.select_many(probe, indexes) == [
                            positions[idx] for idx in indexes
                        ]
