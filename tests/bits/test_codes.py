"""Tests for the integer codecs (unary, gamma, delta) and combinatorial coding."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from repro.bits.codes import (
    BitReader,
    BitWriter,
    combinatorial_rank,
    combinatorial_unrank,
    decode_delta,
    decode_gamma,
    decode_unary,
    delta_code_length,
    encode_delta,
    encode_gamma,
    encode_unary,
    gamma_code_length,
    offset_width,
    unary_code_length,
)
from repro.exceptions import EncodingError, OutOfBoundsError


class TestWriterReader:
    def test_write_read_ints(self):
        writer = BitWriter()
        writer.write_int(5, 4)
        writer.write_int(0, 3)
        writer.write_int(1, 1)
        reader = BitReader(writer.to_bits())
        assert reader.read_int(4) == 5
        assert reader.read_int(3) == 0
        assert reader.read_int(1) == 1
        assert reader.remaining() == 0

    def test_write_int_overflow(self):
        writer = BitWriter()
        with pytest.raises(EncodingError):
            writer.write_int(8, 3)

    def test_read_past_end(self):
        reader = BitReader(BitWriter().to_bits())
        with pytest.raises(OutOfBoundsError):
            reader.read_bit()

    def test_seek(self):
        writer = BitWriter()
        writer.write_int(0b1011, 4)
        reader = BitReader(writer.to_bits())
        reader.seek(2)
        assert reader.read_bit() == 1
        with pytest.raises(OutOfBoundsError):
            reader.seek(9)


class TestUnary:
    def test_known_values(self):
        assert encode_unary([0]).to01() == "1"
        assert encode_unary([3]).to01() == "0001"
        assert encode_unary([0, 2]).to01() == "1001"

    def test_roundtrip(self):
        values = [0, 1, 5, 2, 0, 7]
        assert decode_unary(encode_unary(values), len(values)) == values

    def test_lengths(self):
        assert unary_code_length(0) == 1
        assert unary_code_length(4) == 5
        with pytest.raises(EncodingError):
            unary_code_length(-1)


class TestGammaDelta:
    def test_gamma_known_values(self):
        assert encode_gamma([1]).to01() == "1"
        assert encode_gamma([2]).to01() == "010"
        assert encode_gamma([5]).to01() == "00101"

    def test_gamma_rejects_zero(self):
        with pytest.raises(EncodingError):
            encode_gamma([0])

    def test_delta_known_values(self):
        assert encode_delta([1]).to01() == "1"
        # delta(5): gamma(3)="011" then 2 low bits "01"
        assert encode_delta([5]).to01() == "01101"

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=50))
    def test_gamma_roundtrip(self, values):
        assert decode_gamma(encode_gamma(values), len(values)) == values

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=50))
    def test_delta_roundtrip(self, values):
        assert decode_delta(encode_delta(values), len(values)) == values

    @given(st.integers(min_value=1, max_value=10**9))
    def test_code_lengths_match_encodings(self, value):
        assert gamma_code_length(value) == len(encode_gamma([value]))
        assert delta_code_length(value) == len(encode_delta([value]))

    @given(st.integers(min_value=2, max_value=10**9))
    def test_delta_shorter_than_gamma_for_large_values(self, value):
        # Asymptotically delta wins; for all values >= 32 it is never longer.
        if value >= 32:
            assert delta_code_length(value) <= gamma_code_length(value)


class TestCombinatorial:
    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_rank_unrank_roundtrip(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        ones = bin(value).count("1")
        rank = combinatorial_rank(value, width, ones)
        assert 0 <= rank
        assert combinatorial_unrank(rank, width, ones) == value

    def test_offset_width_extremes(self):
        assert offset_width(10, 0) == 0
        assert offset_width(10, 10) == 0
        assert offset_width(4, 2) == 3  # C(4,2)=6 -> 3 bits

    def test_rank_is_lexicographic(self):
        # All 3-bit blocks with two ones, in MSB-first numeric order:
        # 011 (3), 101 (5), 110 (6) -> ranks 2, 1, 0?  The enumeration is by
        # position of the ones left-to-right; verify it is a bijection and
        # strictly monotone in some consistent order.
        blocks = [0b011, 0b101, 0b110]
        ranks = [combinatorial_rank(b, 3, 2) for b in blocks]
        assert sorted(ranks) == [0, 1, 2]
        for block, rank in zip(blocks, ranks):
            assert combinatorial_unrank(rank, 3, 2) == block

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_rank_and_unrank_match_the_position_descent(self, width, data):
        """The set-bit steps (hockey-stick sums, complement for dense
        blocks) give the rank the position-by-position descent gives."""
        value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        ones = bin(value).count("1")
        expected = 0
        remaining = ones
        for position in range(width):
            if (value >> (width - 1 - position)) & 1:
                remaining -= 1
            elif remaining:
                expected += comb(width - position - 1, remaining - 1)
        assert combinatorial_rank(value, width, ones) == expected
        assert combinatorial_unrank(expected, width, ones) == value
