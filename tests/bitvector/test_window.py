"""A node's bitvector as a window onto one shared static bitvector.

``BitvectorWindow`` must answer every query exactly as a bitvector built
over its own bits, for each static kind the shared vector can be, list and
array batches alike.
"""

import random

import pytest

from repro.bits import kernel
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.window import BitvectorWindow
from repro.exceptions import OutOfBoundsError

KINDS = [RRRBitVector, PlainBitVector]
LENGTHS = [1, 5, 63, 64, 200, 1, 700, 33]


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    previous = kernel.use_backend(request.param)
    yield request.param
    kernel.use_backend(previous)


@pytest.fixture(params=KINDS, ids=[kind.__name__ for kind in KINDS])
def tiled(request):
    """(windows, the bits of each window) over one shared vector."""
    rng = random.Random(11)
    pieces = [
        [1 if rng.random() < density else 0 for _ in range(length)]
        for length, density in zip(LENGTHS, [0.5, 0.0, 1.0, 0.1, 0.9, 1.0, 0.3, 0.5])
    ]
    shared = request.param([bit for piece in pieces for bit in piece])
    windows, start = [], 0
    for piece in pieces:
        before = shared.rank(1, start)
        ones = shared.rank(1, start + len(piece)) - before
        windows.append(BitvectorWindow(shared, start, len(piece), before, ones))
        start += len(piece)
    return windows, pieces


def test_windows_tile_the_vector(tiled):
    windows, pieces = tiled
    start = 0
    for window, bits in zip(windows, pieces):
        assert isinstance(window, BitvectorWindow)
        assert (window.start, len(window), window.ones) == (start, len(bits), sum(bits))
        assert window.count(0) == len(bits) - sum(bits)
        assert window.size_in_bits() == 0
        start += len(bits)


def test_scalar_queries_match_the_bits(tiled, backend):
    windows, pieces = tiled
    for window, bits in zip(windows, pieces):
        reference = PlainBitVector(bits)
        n = len(bits)
        assert [window.access(p) for p in range(n)] == bits
        for bit in (0, 1):
            assert [window.rank(bit, p) for p in range(n + 1)] == [
                reference.rank(bit, p) for p in range(n + 1)
            ]
            assert [window.select(bit, i) for i in range(reference.count(bit))] == [
                reference.select(bit, i) for i in range(reference.count(bit))
            ]
        assert list(window.iter_range(0, n)) == bits
        assert list(window.iter_range(n // 3, n)) == bits[n // 3 :]


def test_batch_queries_match_the_bits(tiled, backend):
    windows, pieces = tiled
    np = kernel.array_module()
    for window, bits in zip(windows, pieces):
        reference = PlainBitVector(bits)
        n = len(bits)
        positions = list(range(n)) * 2
        assert kernel.as_int_list(window.access_many(positions)) == bits * 2
        for bit in (0, 1):
            ranks = [reference.rank(bit, p) for p in range(n + 1)]
            assert kernel.as_int_list(window.rank_many(bit, list(range(n + 1)))) == ranks
            if np is not None:
                array = np.arange(n + 1, dtype=np.int64)
                assert kernel.as_int_list(window.rank_many(bit, array)) == ranks
            indexes = list(range(reference.count(bit)))[::-1]
            assert window.select_many(bit, indexes) == [
                reference.select(bit, i) for i in indexes
            ]
        assert window.rank_many(1, []) == [] and window.select_many(1, []) == []


def test_out_of_range_raises(tiled):
    windows, pieces = tiled
    window, bits = windows[4], pieces[4]
    n = len(bits)
    for call in (
        lambda: window.access(n),
        lambda: window.access(-1),
        lambda: window.rank(1, n + 1),
        lambda: window.select(1, sum(bits)),
        lambda: window.select(0, n - sum(bits)),
        lambda: window.access_many([0, n]),
        lambda: window.rank_many(0, [n + 1]),
        lambda: window.select_many(1, [0, sum(bits)]),
        lambda: list(window.iter_range(0, n + 1)),
    ):
        with pytest.raises(OutOfBoundsError):
            call()
    with pytest.raises(ValueError):
        window.rank(2, 0)
