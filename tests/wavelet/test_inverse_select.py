"""Differential tests of ``HuffmanWaveletTree.inverse_select(_many)``.

``inverse_select_many(positions)`` returns ``(symbols, ranks)`` with
``ranks[i] = rank(symbols[i], positions[i])`` from one grouped descent --
the FM-index LF step.  It must agree with the scalar ``(access, rank)``
pair on every backend, node bitvector flavour and container, on both the
list descent and the int64 array descent (integer symbols under numpy).
"""

import contextlib
import random

import pytest

from repro.bits import kernel
from repro.bits.kernel import npkernel
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError
from repro.wavelet import HuffmanWaveletTree
from repro.wavelet.huffman import _SMALL_BATCH

BACKENDS = kernel.available_backends()
FACTORIES = [PlainBitVector, RRRBitVector]


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def skewed_codes(count, seed):
    rng = random.Random(seed)
    return [min(int(rng.expovariate(0.3)), 40) for _ in range(count)]


def expected_pairs(tree, positions):
    symbols = [tree.access(p) for p in positions]
    return symbols, [tree.rank(s, p) for s, p in zip(symbols, positions)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("factory", FACTORIES)
def test_inverse_select_many_matches_scalar_pairs(backend, factory):
    data = skewed_codes(3_000, 1)
    tree = HuffmanWaveletTree(data, bitvector_factory=factory)
    rng = random.Random(2)
    with active_backend(backend):
        for size in (1, _SMALL_BATCH - 1, _SMALL_BATCH, 700):
            positions = [rng.randrange(len(data)) for _ in range(size)]
            expected = expected_pairs(tree, positions)
            assert tree.inverse_select_many(positions) == expected
            assert tree.inverse_select_many(tuple(positions)) == expected
            assert tree.access_many(positions) == expected[0]
            for pos, symbol, rank in zip(positions, *expected):
                assert tree.inverse_select(pos) == (symbol, rank)


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("backend", BACKENDS)
def test_array_input(backend):
    import numpy as np

    data = skewed_codes(2_000, 3)
    tree = HuffmanWaveletTree(data, bitvector_factory=PlainBitVector)
    positions = np.arange(0, 2_000, 7, dtype=np.int64)
    expected = expected_pairs(tree, positions.tolist())
    with active_backend(backend):
        for batch in (positions, positions[:5]):
            symbols, ranks = tree.inverse_select_many(batch)
            if backend == "numpy":
                assert isinstance(symbols, np.ndarray)
                assert isinstance(ranks, np.ndarray)
            count = len(batch)
            assert kernel.as_int_list(symbols) == expected[0][:count]
            assert kernel.as_int_list(ranks) == expected[1][:count]


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_integer_symbols_take_the_list_descent(backend):
    data = list("abracadabra simsalabim " * 20)
    tree = HuffmanWaveletTree(data)
    positions = list(range(0, len(data), 3))
    with active_backend(backend):
        assert tree.inverse_select_many(positions) == expected_pairs(tree, positions)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_symbol_and_empty_batches(backend):
    tree = HuffmanWaveletTree([7] * 100)
    positions = list(range(100))
    with active_backend(backend):
        assert tree.inverse_select_many(positions) == ([7] * 100, positions)
        assert tree.inverse_select(42) == (7, 42)
        assert tree.inverse_select_many([]) == ([], [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_range_is_all_or_nothing(backend):
    data = skewed_codes(200, 4)
    tree = HuffmanWaveletTree(data)
    with active_backend(backend):
        for bad in (-1, 200):
            with pytest.raises(OutOfBoundsError, match=f"position {bad}"):
                tree.inverse_select_many(list(range(2 * _SMALL_BATCH)) + [bad])
            with pytest.raises(OutOfBoundsError):
                tree.inverse_select(bad)
