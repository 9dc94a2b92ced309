"""Unit tests for the word-level bitops kernel.

Every primitive is checked against a per-bit naive reference on random words
and payloads, including all the alignment edge cases (empty, sub-byte,
sub-word, word-straddling, multi-word).
"""

import random

import pytest

from repro.bits import kernel
from repro.bits.kernel import pykernel
from repro.bits.bitstring import Bits


def naive_bits_of_word(word, width=64):
    return [(word >> (64 - 1 - i)) & 1 for i in range(width)]


def naive_bits_of_value(value, length):
    return [(value >> (length - 1 - i)) & 1 for i in range(length)]


def random_payload(rng, length):
    return rng.getrandbits(length) if length else 0


class TestPacking:
    @pytest.mark.parametrize("length", list(range(0, 258)) + [1000, 4096, 10_001])
    def test_pack_value_roundtrip(self, length):
        rng = random.Random(length)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        assert len(words) == (length + 63) // 64
        assert all(0 <= word <= kernel.WORD_MASK for word in words)
        assert kernel.unpack_value(words, length) == value
        # Left-aligned layout: bit i lives in word i//64 at in-word offset i%64.
        reference = naive_bits_of_value(value, length)
        for i in (0, 1, 63, 64, 65, length - 1):
            if 0 <= i < length:
                word = words[i // 64]
                assert (word >> (63 - (i % 64))) & 1 == reference[i]
        # The final word is zero-padded on the right.
        if length % 64:
            assert words[-1] & ((1 << (64 - length % 64)) - 1) == 0

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 63, 64, 65, 128, 257, 999])
    def test_pack_bits_matches_pack_value(self, length):
        rng = random.Random(length * 7 + 1)
        bits = [rng.randint(0, 1) for _ in range(length)]
        value = int("".join(map(str, bits)), 2) if bits else 0
        words, got_length = kernel.pack_bits(bits)
        assert got_length == length
        # The active backend may return its native word container (e.g. a
        # numpy array); values must match the canonical list packer.
        assert kernel.as_int_list(words) == kernel.pack_value(value, length)

    def test_words_to_int_concatenates(self):
        words = [0x0123456789ABCDEF, 0xFEDCBA9876543210]
        assert kernel.words_to_int(words) == (words[0] << 64) | words[1]
        assert kernel.words_to_int([]) == 0


class TestInWordPrimitives:
    def test_select_in_word_against_naive(self):
        rng = random.Random(42)
        samples = [rng.getrandbits(64) for _ in range(200)]
        samples += [0x8000000000000000, 1, kernel.WORD_MASK, 0x5555555555555555]
        for word in samples:
            ones = [i for i, b in enumerate(naive_bits_of_word(word)) if b]
            for k, expected in enumerate(ones):
                assert kernel.select_in_word(word, k) == expected
            with pytest.raises(ValueError):
                kernel.select_in_word(word, len(ones))

    def test_select_bit_in_words_respects_width(self):
        rng = random.Random(43)
        for _ in range(100):
            width = rng.randint(1, 64)
            word = rng.getrandbits(width) << (64 - width)
            bits = naive_bits_of_word(word, width)
            for bit in (0, 1):
                positions = [i for i, b in enumerate(bits) if b == bit]
                for k, expected in enumerate(positions):
                    assert kernel.select_bit_in_words([word], width, bit, k) == expected
                # Padding bits past `width` must never surface as zeros.
                with pytest.raises(ValueError):
                    kernel.select_bit_in_words([word], width, bit, len(positions))

    def test_rank_word_prefix(self):
        rng = random.Random(44)
        for _ in range(50):
            word = rng.getrandbits(64)
            reference = naive_bits_of_word(word)
            for offset in range(65):
                assert pykernel._rank_word_prefix(word, offset) == sum(
                    reference[:offset]
                )

    def test_invert_word(self):
        word = 0xF0F0F0F0F0F0F0F0
        assert kernel.invert_word(word) == 0x0F0F0F0F0F0F0F0F
        # Only the top `width` bits are complemented; the rest stay zero.
        assert kernel.invert_word(word, 8) == 0x0F << 56


class TestRangedOperations:
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 200, 512, 1000])
    def test_popcount_range(self, length):
        rng = random.Random(length)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        reference = naive_bits_of_value(value, length)
        cases = [(0, length), (0, 0), (length, length)]
        cases += [
            tuple(sorted((rng.randint(0, length), rng.randint(0, length))))
            for _ in range(30)
        ]
        for start, stop in cases:
            assert kernel.popcount_range(words, start, stop) == sum(
                reference[start:stop]
            )
        assert kernel.popcount_words(words) == sum(reference)

    @pytest.mark.parametrize("length", [1, 8, 63, 64, 65, 129, 257, 640])
    def test_broadword_iter_words(self, length):
        rng = random.Random(length + 5)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        reference = naive_bits_of_value(value, length)
        assert list(kernel.broadword_iter_words(words, 0, length)) == reference
        for _ in range(20):
            start, stop = sorted(
                (rng.randint(0, length), rng.randint(0, length))
            )
            assert (
                list(kernel.broadword_iter_words(words, start, stop))
                == reference[start:stop]
            )

    @pytest.mark.parametrize("length", [1, 9, 64, 65, 127, 128, 300])
    def test_extract_bits_value(self, length):
        rng = random.Random(length + 9)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        bits = Bits(value, length)
        for _ in range(40):
            start, stop = sorted(
                (rng.randint(0, length), rng.randint(0, length))
            )
            assert (
                kernel.extract_bits_value(words, start, stop)
                == bits.slice(start, stop).value
            )

    @pytest.mark.parametrize("length", [0, 1, 64, 65, 200, 513])
    def test_one_positions(self, length):
        rng = random.Random(length + 13)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        reference = [
            i for i, b in enumerate(naive_bits_of_value(value, length)) if b
        ]
        assert kernel.one_positions(words) == reference

    @pytest.mark.parametrize("length", [0, 1, 2, 63, 64, 65, 257, 1000])
    def test_runs_of_value(self, length):
        rng = random.Random(length + 17)
        for _ in range(10):
            value = random_payload(rng, length)
            reference_bits = naive_bits_of_value(value, length)
            expected = []
            for bit in reference_bits:
                if expected and expected[-1][0] == bit:
                    expected[-1][1] += 1
                else:
                    expected.append([bit, 1])
            runs = kernel.runs_of_value(value, length)
            assert runs == [(bit, run_len) for bit, run_len in expected]
            assert sum(run_len for _, run_len in runs) == length


class TestRankDirectory:
    @pytest.mark.parametrize("n_words", [0, 1, 7, 8, 9, 16, 33])
    def test_directory_invariants(self, n_words):
        rng = random.Random(n_words)
        words = [rng.getrandbits(64) for _ in range(n_words)]
        super_cum, word_pop, word_cum = kernel.build_rank_directory(words)
        assert len(super_cum) == (n_words + 7) // 8 + 1
        assert len(word_pop) == n_words
        assert len(word_cum) == n_words + 1
        assert super_cum[-1] == sum(word.bit_count() for word in words)
        for index, word in enumerate(words):
            assert word_pop[index] == word.bit_count()
            # Two-level rank identity: ones before word = superblock sample
            # plus the in-superblock cumulative byte.
            assert super_cum[index >> 3] + word_cum[index] == sum(
                w.bit_count() for w in words[:index]
            )


class TestWordListSelect:
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 257, 1000])
    def test_select_bit_in_words_against_naive(self, length):
        rng = random.Random(length + 99)
        value = random_payload(rng, length)
        words = kernel.pack_value(value, length)
        bits = naive_bits_of_value(value, length)
        ones = kernel.one_positions(words)
        zeros = [i for i, b in enumerate(bits) if not b]
        assert ones == [i for i, b in enumerate(bits) if b]
        for bit, reference in ((1, ones), (0, zeros)):
            for idx, expected in enumerate(reference):
                assert kernel.select_bit_in_words(words, length, bit, idx) == expected
