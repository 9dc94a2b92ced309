"""Tests for the gamma code length and the combinatorial (RRR) coding."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from repro.bits.codes import (
    combinatorial_rank,
    combinatorial_unrank,
    gamma_code_length,
    offset_width_table,
)
from repro.exceptions import EncodingError


class TestGammaCodeLength:
    def test_known_values(self):
        # gamma(1) = "1", gamma(2) = "010", gamma(5) = "00101".
        assert [gamma_code_length(value) for value in (1, 2, 5)] == [1, 3, 5]

    def test_rejects_zero(self):
        with pytest.raises(EncodingError):
            gamma_code_length(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_the_code(self, value):
        # The code: one zero per bit after the leading one, then the bits.
        binary = bin(value)[2:]
        assert gamma_code_length(value) == len("0" * (len(binary) - 1) + binary)


class TestCombinatorial:
    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_rank_unrank_roundtrip(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        ones = bin(value).count("1")
        rank = combinatorial_rank(value, width, ones)
        assert 0 <= rank
        assert combinatorial_unrank(rank, width, ones) == value

    def test_offset_width_extremes(self):
        assert offset_width_table(10)[0] == 0
        assert offset_width_table(10)[10] == 0
        assert offset_width_table(4)[2] == 3  # C(4,2)=6 -> 3 bits

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
