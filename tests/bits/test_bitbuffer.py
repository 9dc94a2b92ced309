"""Tests for the mutable BitBuffer."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.exceptions import OutOfBoundsError


class TestAppend:
    def test_append_single_bits(self):
        buffer = BitBuffer()
        for bit in [1, 0, 1, 1]:
            buffer.append(bit)
        assert len(buffer) == 4
        assert buffer.to_list() == [1, 0, 1, 1]
        assert buffer.ones == 3
        assert buffer.zeros == 1

    def test_append_bits_payload(self):
        buffer = BitBuffer([1, 0])
        buffer.append_bits(Bits.from_string("110"))
        assert buffer.to_bits().to01() == "10110"

    def test_append_run(self):
        buffer = BitBuffer()
        buffer.append_run(1, 3)
        buffer.append_run(0, 2)
        buffer.append_run(1, 0)
        assert buffer.to_bits().to01() == "11100"
        with pytest.raises(ValueError):
            buffer.append_run(1, -1)

    def test_append_int(self):
        buffer = BitBuffer()
        buffer.append_int(5, 4)
        assert buffer.to_bits().to01() == "0101"
        with pytest.raises(ValueError):
            buffer.append_int(16, 4)

    def test_extend_and_clear(self):
        buffer = BitBuffer()
        buffer.extend([1, 1, 0])
        buffer.extend(Bits.from_string("01"))
        assert buffer.to_bits().to01() == "11001"
        buffer.clear()
        assert len(buffer) == 0 and buffer.ones == 0

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_extend_matches_per_bit_append(self, bits):
        """The word-packed extend is semantically identical to appending each
        bit: same payload, same length, same popcount bookkeeping."""
        bulk = BitBuffer([1, 0])
        bulk.extend(iter(bits))  # generator: no len() shortcut available
        reference = BitBuffer([1, 0])
        for bit in bits:
            reference.append(bit)
        assert bulk.to_bits() == reference.to_bits()
        assert bulk.ones == reference.ones
        assert len(bulk) == len(reference)

    def test_extend_truthiness_matches_append(self):
        bulk = BitBuffer()
        bulk.extend(["x", 0, 2, None, True])
        assert bulk.to_bits().to01() == "10101"
        assert bulk.ones == 3


class TestQueries:
    def test_getitem(self):
        buffer = BitBuffer([0, 1, 1, 0])
        assert buffer[0] == 0 and buffer[1] == 1 and buffer[-1] == 0
        with pytest.raises(OutOfBoundsError):
            _ = buffer[4]

    def test_rank(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        buffer = BitBuffer(bits)
        for pos in range(len(bits) + 1):
            assert buffer.rank(1, pos) == sum(bits[:pos])
            assert buffer.rank(0, pos) == pos - sum(bits[:pos])
        with pytest.raises(OutOfBoundsError):
            buffer.rank(1, 9)

    def test_select(self):
        bits = [0, 1, 1, 0, 1]
        buffer = BitBuffer(bits)
        assert buffer.select(1, 0) == 1
        assert buffer.select(1, 2) == 4
        assert buffer.select(0, 1) == 3
        with pytest.raises(OutOfBoundsError):
            buffer.select(1, 3)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=120))
    def test_matches_reference(self, bits):
        buffer = BitBuffer(bits)
        assert buffer.to_list() == bits
        assert buffer.ones == sum(bits)
        for pos in range(0, len(bits) + 1, max(1, len(bits) // 7)):
            assert buffer.rank(1, pos) == sum(bits[:pos])


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    previous = kernel.use_backend(request.param)
    yield request.param
    kernel.use_backend(previous)


def words_of(text):
    """The packed words of a ``0``/``1`` string: 64 bits each, MSB-first,
    the last word padded with zeros."""
    return [int(text[i : i + 64].ljust(64, "0"), 2) for i in range(0, len(text), 64)]


class TestAppendInt:
    """``append_int`` writes the RRR offset stream, so every width must
    land at every fill of the partial word: the head tops up the spill
    word, whole words of the body go through the kernel, the rest spills."""

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 31, 32, 33, 63, 64, 65, 100, 128, 130])
    def test_matches_the_binary_string(self, backend, width):
        rng = random.Random(width)
        for lead in range(0, 64, 3):
            prefix = [rng.getrandbits(1) for _ in range(lead)]
            buffer = BitBuffer(prefix)
            text = "".join(map(str, prefix))
            for value in [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(6)]:
                buffer.append_int(value, width)
                text += format(value, f"0{width}b")
            assert buffer.to_bits().to01() == text
            assert len(buffer) == len(text)
            assert buffer.ones == text.count("1")
            assert buffer.words() == words_of(text)
            assert buffer.full_words == words_of(text)[: len(text) // 64]

    @pytest.mark.parametrize(
        "value, width", [(-1, 4), (16, 4), (1, 0), (1 << 64, 64), (0, -1)]
    )
    def test_rejects_a_value_wider_than_its_width(self, value, width):
        buffer = BitBuffer([1, 0, 1])
        with pytest.raises(ValueError, match="does not fit"):
            buffer.append_int(value, width)
        assert buffer.to_bits().to01() == "101"
        assert buffer.ones == 2

    def test_zero_width_appends_nothing(self):
        buffer = BitBuffer([1] * 70)
        buffer.append_int(0, 0)
        assert len(buffer) == 70
        assert buffer.words() == words_of("1" * 70)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_words_pad_the_last_word_with_zeros(self, bits):
        buffer = BitBuffer(bits)
        text = "".join(map(str, bits))
        assert buffer.words() == words_of(text)
        assert buffer.words() == kernel.as_int_list(
            kernel.pack_value(buffer.to_bits().value, len(buffer))
        )
