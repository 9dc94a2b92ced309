"""Tests for PackedIntVector."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.bits import kernel
from repro.bits.packed import PackedIntVector
from repro.exceptions import OutOfBoundsError


class TestPackedIntVector:
    def test_basic_append_and_get(self):
        vector = PackedIntVector(5, [1, 31, 0, 17])
        assert len(vector) == 4
        assert vector.to_list() == [1, 31, 0, 17]

    def test_zero_width(self):
        vector = PackedIntVector(0, [0, 0, 0])
        assert len(vector) == 3
        assert vector[1] == 0

    def test_word_boundary_crossing(self):
        # width 7 guarantees values straddling 64-bit word boundaries
        values = [(i * 37) % 128 for i in range(100)]
        vector = PackedIntVector(7, values)
        assert vector.to_list() == values

    def test_full_width(self):
        values = [0, (1 << 64) - 1, 12345678901234567890 % (1 << 64)]
        vector = PackedIntVector(64, values)
        assert vector.to_list() == values

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            PackedIntVector(3, [8])

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PackedIntVector(65)
        with pytest.raises(ValueError):
            PackedIntVector(-1)

    def test_out_of_range_access(self):
        vector = PackedIntVector(4, [1, 2])
        with pytest.raises(OutOfBoundsError):
            _ = vector[2]
        assert vector[-1] == 2  # negative indexing supported

    def test_from_values_picks_minimal_width(self):
        vector = PackedIntVector.from_values([3, 7, 0])
        assert vector.width == 3
        assert vector.to_list() == [3, 7, 0]
        assert PackedIntVector.from_values([]).width == 0

    def test_size_in_bits(self):
        vector = PackedIntVector(8, list(range(64)))
        assert vector.size_in_bits() == 8 * 64  # 512 payload bits in 8 words

    @given(st.integers(min_value=1, max_value=33), st.data())
    def test_random_roundtrip(self, width, data):
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=150)
        )
        vector = PackedIntVector(width, values)
        assert vector.to_list() == values
        for index in range(len(values)):
            assert vector[index] == values[index]


@pytest.mark.parametrize("backend", kernel.available_backends())
def test_get_many_matches_getitem(backend):
    rng = random.Random(9)
    previous = kernel.use_backend(backend)
    try:
        for width in (0, 3, 13, 64):
            values = [rng.getrandbits(width) if width else 0 for _ in range(400)]
            vector = PackedIntVector(width, values)
            indexes = [rng.randrange(400) for _ in range(100)]
            assert vector.get_many(indexes) == [values[i] for i in indexes]
            assert vector.get_many(indexes[:3]) == [values[i] for i in indexes[:3]]
            assert vector.get_many([]) == []
            with pytest.raises(OutOfBoundsError):
                vector.get_many(indexes + [400])
            # Appending after a batch call must not serve stale words.
            vector.append(values[0])
            assert vector.get_many(list(range(400, 401)) * 40) == [values[0]] * 40
    finally:
        kernel.use_backend(previous)
