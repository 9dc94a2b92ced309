"""Property-style cross-checks of every kernel-backed structure.

Random bit patterns at **all** lengths 0..257 (every word/superblock/byte
alignment) plus a large instance are pushed through every bitvector class and
the Wavelet Tree, and ``rank``/``select``/``iter_range``/``access_many``/
``rank_many``/``access_rank_many``/``select_many`` are compared against a
naive list oracle.  A scaling regression
guards the linear-time constructors against the quadratic accumulation the
kernel replaced.
"""

import random
import time

import pytest

from repro.bits.bitstring import Bits
from repro.bits.kernel import as_int_list
from repro.bitvector import (
    AppendOnlyBitVector,
    DynamicBitVector,
    PlainBitVector,
    RRRBitVector,
    SparseBitVector,
)
from repro.exceptions import OutOfBoundsError
from repro.wavelet.wavelet_tree import WaveletTree

FACTORIES = {
    "plain": PlainBitVector,
    "rrr": RRRBitVector,
    "sparse": SparseBitVector.from_bits,
    # The growable kinds: runs in a treap (RLE+gamma), and frozen RRR blocks
    # plus a tail (64-bit blocks, so every length past 64 freezes some).
    "dynamic": DynamicBitVector,
    "append_only": lambda bits: AppendOnlyBitVector(bits, block_size=64),
}


def naive_rank(bits, bit, pos):
    return sum(1 for value in bits[:pos] if value == bit)


def naive_select(bits, bit, idx):
    seen = -1
    for position, value in enumerate(bits):
        if value == bit:
            seen += 1
            if seen == idx:
                return position
    raise IndexError


def check_vector(vector, bits, rng):
    n = len(bits)
    assert len(vector) == n
    assert vector.ones == sum(bits)
    positions = sorted(set([0, n] + [rng.randint(0, n) for _ in range(6)]))
    access_positions = [p for p in positions if p < n]
    # access / access_many
    assert vector.access_many(access_positions) == [
        bits[p] for p in access_positions
    ]
    marks, ranks = vector.access_rank_many(access_positions)
    assert as_int_list(marks) == [bits[p] for p in access_positions]
    assert as_int_list(ranks) == [
        naive_rank(bits, bits[p], p) for p in access_positions
    ]
    for bit in (0, 1):
        # rank / rank_many
        assert vector.rank_many(bit, positions) == [
            naive_rank(bits, bit, p) for p in positions
        ]
        for pos in positions:
            assert vector.rank(bit, pos) == naive_rank(bits, bit, pos)
        # select at the extremes and a few interior indices
        total = sum(1 for value in bits if value == bit)
        indices = sorted(
            set(
                i
                for i in [0, 1, total // 2, total - 2, total - 1]
                if 0 <= i < total
            )
        )
        for idx in indices:
            assert vector.select(bit, idx) == naive_select(bits, bit, idx)
        assert as_int_list(vector.select_many(bit, indices[::-1])) == [
            naive_select(bits, bit, idx) for idx in indices[::-1]
        ]
        with pytest.raises(OutOfBoundsError):
            vector.select(bit, total)
    with pytest.raises(ValueError):
        vector.select(2, 0)
    # iter_range over the full payload and a random window
    assert list(vector.iter_range(0, n)) == bits
    if n:
        start, stop = sorted((rng.randint(0, n), rng.randint(0, n)))
        assert list(vector.iter_range(start, stop)) == bits[start:stop]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_all_lengths_0_to_257(name):
    factory = FACTORIES[name]
    rng = random.Random(1234)
    for length in range(258):
        density = rng.choice([0.05, 0.3, 0.5, 0.9])
        bits = [1 if rng.random() < density else 0 for _ in range(length)]
        check_vector(factory(bits), bits, rng)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_large_random(name):
    factory = FACTORIES[name]
    rng = random.Random(99)
    bits = [1 if rng.random() < 0.37 else 0 for _ in range(20_000)]
    vector = factory(Bits.from_iterable(bits))
    check_vector(vector, bits, rng)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_degenerate_patterns(name):
    factory = FACTORIES[name]
    rng = random.Random(7)
    for bits in ([0] * 300, [1] * 300, [0, 1] * 150, [1] + [0] * 511 + [1]):
        check_vector(factory(list(bits)), list(bits), rng)


class TestWaveletTreeBatch:
    @pytest.mark.parametrize("kind", ["plain", "rrr"])
    def test_access_many_and_rank_many(self, kind):
        rng = random.Random(31)
        data = [rng.randint(0, 40) for _ in range(600)]
        tree = WaveletTree(data, bitvector=kind)
        positions = [rng.randint(0, len(data) - 1) for _ in range(50)]
        assert tree.access_many(positions) == [data[p] for p in positions]
        rank_positions = [rng.randint(0, len(data)) for _ in range(50)]
        for symbol in (0, 7, 40, 13):
            assert tree.rank_many(symbol, rank_positions) == [
                sum(1 for v in data[:p] if v == symbol) for p in rank_positions
            ]

    def test_batch_apis_match_scalar(self):
        rng = random.Random(32)
        data = [rng.randint(0, 9) for _ in range(257)]
        tree = WaveletTree(data)
        positions = list(range(len(data)))
        assert tree.access_many(positions) == [tree.access(p) for p in positions]
        assert tree.rank_many(3, positions) == [
            tree.rank(3, p) for p in positions
        ]

    def test_empty_batches(self):
        tree = WaveletTree([5, 1, 3])
        assert tree.access_many([]) == []
        assert tree.rank_many(1, []) == []

    def test_absent_symbol(self):
        tree = WaveletTree([0, 2, 0, 2], alphabet_size=4)
        assert tree.rank_many(1, [0, 2, 4]) == [0, 0, 0]

    def test_batch_bounds_checked(self):
        tree = WaveletTree([1, 2, 3])
        with pytest.raises(OutOfBoundsError):
            tree.access_many([0, 3])
        with pytest.raises(OutOfBoundsError):
            tree.rank_many(1, [4])


class TestLinearScaling:
    """10x the input must cost ~10x the time, not ~100x (quadratic guard).

    Timings compare the same code at two sizes, so the assertions are
    machine-independent; the bound is generous to absorb CI noise while still
    failing hard if construction regresses to O(n^2).
    """

    @staticmethod
    def _best_time(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_bits_from_iterable_scales_linearly(self):
        small = [i & 1 for i in range(30_000)]
        large = small * 10
        small_time = self._best_time(lambda: Bits.from_iterable(small))
        large_time = self._best_time(lambda: Bits.from_iterable(large))
        assert large_time <= 20 * max(small_time, 1e-6)

    def test_plain_construction_scales_linearly(self):
        rng = random.Random(3)
        small = [rng.randint(0, 1) for _ in range(30_000)]
        large = small * 10
        small_time = self._best_time(lambda: PlainBitVector(small))
        large_time = self._best_time(lambda: PlainBitVector(large))
        assert large_time <= 20 * max(small_time, 1e-6)

    def test_plain_construction_from_bits_scales_linearly(self):
        rng = random.Random(4)
        small_bits = Bits.from_iterable(
            rng.randint(0, 1) for _ in range(30_000)
        )
        large_bits = Bits.from_iterable(
            rng.randint(0, 1) for _ in range(300_000)
        )
        small_time = self._best_time(lambda: PlainBitVector(small_bits))
        large_time = self._best_time(lambda: PlainBitVector(large_bits))
        assert large_time <= 20 * max(small_time, 1e-6)
