"""The fused access/rank batch: ``access_rank_many(positions)``.

Every static bitvector answers ``(bits, ranks)`` with ``bits[i] =
access(positions[i])`` and ``ranks[i] = rank(bits[i], positions[i])``, the
pair a wavelet descent needs at each node.  ``PlainBitVector`` and
``RRRBitVector`` go through the kernel's ``access_rank_many_packed`` and
``rrr_access_rank_many``, ``SparseBitVector`` through one
``sorted_search_many`` over its one positions, a ``BitvectorWindow`` shifts
into its shared vector, and the growable bitvectors inherit the base-class
default.  Each is
checked against scalar ``access``/``rank`` pairs on both kernel backends,
with list and array containers, and out-of-range batches raise
``OutOfBoundsError`` as a whole.
"""

import contextlib
import random

import pytest

from repro.bits import kernel
from repro.bits.kernel import SMALL_BATCH, npkernel, pykernel
from repro.bitvector.append_only import AppendOnlyBitVector
from repro.bitvector.dynamic import DynamicBitVector
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.bitvector.sparse import SparseBitVector
from repro.bitvector.window import BitvectorWindow
from repro.exceptions import OutOfBoundsError

BACKENDS = kernel.available_backends()


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def scalar_pairs(vector, positions):
    bits = [vector.access(pos) for pos in positions]
    return bits, [vector.rank(bit, pos) for bit, pos in zip(bits, positions)]


def blocky_bits(block_size, seed):
    """Whole blocks of every kind: empty, sparse, half full, dense and
    full, then a ragged tail, so block and superblock edges all occur."""
    rng = random.Random(seed)
    bits = []
    for density in [0.0, 0.03, 0.5, 0.97, 1.0] * 6:
        bits += [int(rng.random() < density) for _ in range(block_size)]
    return bits + [1, 0, 1][: seed % 3 + 1]


def edge_positions(length, block_size, seed):
    """0, n - 1, each block's first and last bit, and random positions."""
    rng = random.Random(seed)
    positions = {0, length - 1}
    for start in range(0, length, block_size):
        positions.update({start, min(start + block_size, length) - 1})
    positions.update(rng.randrange(length) for _ in range(40))
    return sorted(positions)


def as_list(values):
    return kernel.as_int_list(values)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_size", [7, 15, 31, 63])
def test_rrr_matches_scalar_pairs_on_every_block_kind(backend, block_size):
    bits = blocky_bits(block_size, block_size)
    vector = RRRBitVector(bits, block_size=block_size, sample_rate=3)
    positions = edge_positions(len(bits), block_size, block_size)
    expected = scalar_pairs(vector, positions)
    assert expected[0] == [bits[pos] for pos in positions]
    with active_backend(backend):
        for batch in (positions, positions[: SMALL_BATCH - 1], positions[::-1]):
            got = vector.access_rank_many(batch)
            want = scalar_pairs(vector, batch)
            assert (as_list(got[0]), as_list(got[1])) == want
        assert vector.access_many(positions) == expected[0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", [PlainBitVector, SparseBitVector.from_bits])
@pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 0.98, 1.0])
def test_plain_matches_scalar_pairs(backend, kind, density):
    rng = random.Random(int(density * 100))
    bits = [int(rng.random() < density) for _ in range(1_000)]
    vector = kind(bits)
    positions = edge_positions(len(bits), 64, 3)
    with active_backend(backend):
        for batch in (positions, positions[:5]):
            got = vector.access_rank_many(batch)
            assert (as_list(got[0]), as_list(got[1])) == scalar_pairs(vector, batch)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", [PlainBitVector, RRRBitVector])
def test_windows_correct_the_shared_ranks(backend, kind):
    bits = blocky_bits(63, 4) * 2
    cuts = [0, 100, 101, 700, len(bits)]
    shared = kind(bits)
    windows = [
        BitvectorWindow(shared, a, b - a, shared.rank(1, a), shared.rank(1, b) - shared.rank(1, a))
        for a, b in zip(cuts, cuts[1:])
    ]
    with active_backend(backend):
        for window, start in zip(windows, cuts):
            alone = PlainBitVector(bits[start : start + len(window)])
            positions = list(range(len(window)))
            for batch in (positions, positions[:3]):
                got = window.access_rank_many(batch)
                assert (as_list(got[0]), as_list(got[1])) == scalar_pairs(alone, batch)


@pytest.mark.parametrize("backend", BACKENDS)
def test_growable_bitvectors_use_the_default(backend):
    rng = random.Random(9)
    bits = [int(rng.random() < 0.4) for _ in range(500)]
    dynamic = DynamicBitVector(bits)
    append_only = AppendOnlyBitVector()
    for bit in bits:
        append_only.append(bit)
    positions = [rng.randrange(500) for _ in range(80)]
    with active_backend(backend):
        for vector in (dynamic, append_only):
            assert vector.access_rank_many(positions) == scalar_pairs(vector, positions)
            assert vector.access_rank_many([]) == ([], [])


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("backend", BACKENDS)
def test_array_containers(backend):
    import numpy as np

    bits = blocky_bits(63, 2)
    positions = edge_positions(len(bits), 63, 2)
    shared = RRRBitVector(bits + bits)
    vectors = [
        PlainBitVector(bits),
        RRRBitVector(bits),
        SparseBitVector.from_bits(bits),
        BitvectorWindow(shared, len(bits), len(bits), sum(bits), sum(bits)),
    ]
    with active_backend(backend):
        for vector in vectors:
            expected = scalar_pairs(vector, positions)
            for batch in (np.asarray(positions), np.asarray(positions[:4])):
                got = vector.access_rank_many(batch)
                if backend == "numpy":
                    assert all(isinstance(part, np.ndarray) for part in got)
                count = len(batch)
                assert as_list(got[0]) == expected[0][:count]
                assert as_list(got[1]) == expected[1][:count]


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("block_size", [15, 63])
def test_the_two_backends_agree_directly(block_size):
    """The contract functions themselves, on prepared handles: both
    backends return the same pairs (lists in, lists out)."""
    bits = blocky_bits(block_size, 5)
    positions = edge_positions(len(bits), block_size, 5)
    plain = PlainBitVector(bits)
    rrr = RRRBitVector(bits, block_size=block_size, sample_rate=2)
    expected = scalar_pairs(plain, positions)
    for backend in (pykernel, npkernel):
        packed = backend.prepare_rank_select(
            plain._words, len(bits), plain._word_abs_cum, plain._word_abs_zero_cum
        )
        blocks = backend.prepare_rrr(
            rrr._class_list, rrr._offset_words, rrr._sample_rank,
            rrr._sample_offset_pos, len(bits), block_size, 2,
        )
        for got in (
            backend.access_rank_many_packed(packed, positions),
            backend.rrr_access_rank_many(blocks, positions),
        ):
            assert isinstance(got[0], list) and isinstance(got[1], list)
            assert got == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_range_is_all_or_nothing(backend):
    bits = blocky_bits(63, 1)
    length = len(bits)
    shared = PlainBitVector(bits + bits)
    vectors = [
        PlainBitVector(bits),
        RRRBitVector(bits),
        BitvectorWindow(shared, 0, length, 0, sum(bits)),
        DynamicBitVector(bits),
        SparseBitVector.from_bits(bits),
    ]
    with active_backend(backend):
        for vector in vectors:
            for bad in (-1, length):
                for good in ([0], list(range(2 * SMALL_BATCH))):
                    with pytest.raises(OutOfBoundsError, match=f"position {bad}"):
                        vector.access_rank_many(good + [bad])
            assert vector.access_rank_many([]) == ([], [])
    for empty in (RRRBitVector([]), SparseBitVector(0, [])):
        with pytest.raises(OutOfBoundsError):
            empty.access_rank_many([0])
