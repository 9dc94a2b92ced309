"""Differential tests of the batched RRR rank/access paths.

``RRRBitVector.access_many``/``rank_many`` run the kernel's
``rrr_rank_many`` -- a sorted block walk on the python backend, a
vectorised superblock walk plus set-bit-jumping block decode under numpy --
and must agree with the scalar ``access``/``rank`` (the combinatorial
descent of ``repro.bits.codes``) on every backend, block size, sampling
rate and density, including the shapes that break block arithmetic: the
empty vector, lengths that are not a multiple of the block size,
``pos == len`` and vectors opened from an RWT2 frozen image.
"""

import contextlib
import random

import pytest

from repro.bits import kernel
from repro.bits.kernel import npkernel, pykernel
from repro.bitvector.rrr import _SMALL_BATCH, RRRBitVector
from repro.exceptions import OutOfBoundsError
from repro.storage.image import FrozenImage, ImageWriter

BACKENDS = kernel.available_backends()
BLOCK_SIZES = [1, 15, 63]
SAMPLE_RATES = [1, 8, 32]
DENSITIES = [0.0, 0.03, 0.5, 0.97, 1.0]


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def random_bits(length, density, seed):
    rng = random.Random(seed)
    return [1 if rng.random() < density else 0 for _ in range(length)]


def length_for(block_size, seed):
    """A length that is not a multiple of the block size (when it can be)."""
    rng = random.Random(seed)
    length = rng.randrange(4, 12) * block_size * 8 + rng.randrange(1, 64)
    if block_size > 1 and length % block_size == 0:
        length += 1
    return length


def as_list(values):
    return kernel.as_int_list(values)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
@pytest.mark.parametrize("density", DENSITIES)
def test_batch_matches_scalar(backend, block_size, sample_rate, density):
    seed = block_size * 1_000 + sample_rate * 10 + int(density * 100)
    length = length_for(block_size, seed)
    bits = random_bits(length, density, seed)
    vector = RRRBitVector(bits, block_size=block_size, sample_rate=sample_rate)
    rng = random.Random(seed + 1)
    probes = [rng.randrange(length) for _ in range(4 * _SMALL_BATCH)]
    probes += [0, length - 1]
    rank_probes = probes + [length, length, 0]
    with active_backend(backend):
        assert vector.access_many(probes) == [vector.access(p) for p in probes]
        for bit in (0, 1):
            expected = [vector.rank(bit, p) for p in rank_probes]
            assert vector.rank_many(bit, rank_probes) == expected
            assert vector.rank_many(bit, tuple(rank_probes)) == expected
        # Every position once, in a shuffled order: each block's decode is
        # shared by many queries and input order must be restored.
        everything = list(range(length + 1))
        rng.shuffle(everything)
        expected = [sum(bits[:p]) for p in everything]
        assert vector.rank_many(1, everything) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_below_the_threshold_take_the_scalar_path(backend):
    bits = random_bits(500, 0.4, 3)
    vector = RRRBitVector(bits, block_size=15, sample_rate=8)
    probes = [0, 17, 250, 499]
    with active_backend(backend):
        assert vector.access_many(probes) == [bits[p] for p in probes]
        assert vector.rank_many(1, probes + [500]) == [
            sum(bits[:p]) for p in probes + [500]
        ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_multiple_of_block_size_and_end_position(backend):
    for block_size in BLOCK_SIZES:
        length = block_size * 40  # the last block is full: pos == len
        bits = random_bits(length, 0.5, block_size)
        vector = RRRBitVector(bits, block_size=block_size, sample_rate=8)
        probes = [length] * _SMALL_BATCH + list(range(0, length + 1, 7))
        with active_backend(backend):
            assert vector.rank_many(1, probes) == [sum(bits[:p]) for p in probes]
            assert vector.rank_many(0, probes) == [
                p - sum(bits[:p]) for p in probes
            ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_vector(backend):
    vector = RRRBitVector([])
    with active_backend(backend):
        assert vector.access_many([]) == []
        assert vector.rank_many(1, []) == []
        assert vector.rank_many(1, [0] * (2 * _SMALL_BATCH)) == [0] * (
            2 * _SMALL_BATCH
        )
        assert vector.rank_many(0, [0] * (2 * _SMALL_BATCH)) == [0] * (
            2 * _SMALL_BATCH
        )
        with pytest.raises(OutOfBoundsError):
            vector.access_many([0] * (2 * _SMALL_BATCH))


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_range_is_all_or_nothing(backend):
    bits = random_bits(300, 0.3, 11)
    vector = RRRBitVector(bits)
    good = list(range(2 * _SMALL_BATCH))
    with active_backend(backend):
        for bad in (-1, 301):
            with pytest.raises(OutOfBoundsError, match=f"rank position {bad}"):
                vector.rank_many(1, good + [bad])
        for bad in (-1, 300):
            with pytest.raises(OutOfBoundsError, match=f"position {bad}"):
                vector.access_many(good + [bad])
        with pytest.raises(ValueError):
            vector.rank_many(2, good)


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("backend", BACKENDS)
def test_array_input(backend):
    import numpy as np

    bits = random_bits(2_000, 0.2, 5)
    vector = RRRBitVector(bits, block_size=63, sample_rate=8)
    rng = random.Random(6)
    probes = [rng.randrange(2_000) for _ in range(300)]
    arr = np.asarray(probes, dtype=np.int64)
    with active_backend(backend):
        bits_out = vector.access_many(arr)
        ranks_out = vector.rank_many(1, arr)
        if backend == "numpy":
            # Ranks mirror the container under the numpy backend.
            assert isinstance(ranks_out, np.ndarray)
        assert bits_out == [bits[p] for p in probes]
        assert as_list(ranks_out) == [sum(bits[:p]) for p in probes]
        assert as_list(vector.rank_many(0, arr[:5])) == [
            p - sum(bits[:p]) for p in probes[:5]
        ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_vectors_opened_from_a_frozen_image(backend, block_size):
    bits = random_bits(3_001, 0.35, block_size)
    original = RRRBitVector(bits, block_size=block_size, sample_rate=8)
    sink = ImageWriter()
    meta = original.to_words_image(sink, "v.")
    image = FrozenImage(sink.tobytes("rrr-test", meta))
    opened = RRRBitVector.from_words_image(image, "v.", meta)
    rng = random.Random(block_size)
    probes = [rng.randrange(3_001) for _ in range(200)]
    with active_backend(backend):
        assert opened.access_many(probes) == [bits[p] for p in probes]
        for bit in (0, 1):
            assert opened.rank_many(bit, probes + [3_001]) == original.rank_many(
                bit, probes + [3_001]
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_switch_reprepares_the_handle(backend):
    bits = random_bits(1_000, 0.5, 21)
    vector = RRRBitVector(bits)
    probes = list(range(0, 1_001, 3))
    expected = [sum(bits[:p]) for p in probes]
    for name in BACKENDS + (backend,):
        with active_backend(name):
            assert vector.rank_many(1, probes) == expected


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("block_size", [1, 2, 3, 15, 31, 63])
def test_kernel_backends_agree_on_rrr_rank(block_size):
    """The two ``rrr_rank_many`` implementations agree directly, on every
    density from all-zeros to all-ones and every sampling rate."""
    for density in DENSITIES:
        for sample_rate in (1, 3, 8):
            bits = random_bits(700, density, block_size + sample_rate)
            vector = RRRBitVector(bits, block_size=block_size, sample_rate=sample_rate)
            fields = (
                vector._class_list,
                vector._offset_words,
                vector._sample_rank,
                vector._sample_offset_pos,
                len(vector),
                block_size,
                sample_rate,
            )
            positions = list(range(0, 701))
            for bit in (0, 1):
                py = pykernel.rrr_rank_many(pykernel.prepare_rrr(*fields), bit, positions)
                np_ = npkernel.rrr_rank_many(npkernel.prepare_rrr(*fields), bit, positions)
                expected = [
                    sum(bits[:p]) if bit else p - sum(bits[:p]) for p in positions
                ]
                assert py == expected
                assert as_list(np_) == expected


def test_python_block_decode_matches_the_combinatorial_descent():
    from repro.bits.codes import combinatorial_rank, combinatorial_unrank

    rng = random.Random(8)
    for block_size in (1, 2, 5, 15, 63):
        for _ in range(200):
            value = rng.getrandbits(block_size)
            cls = value.bit_count()
            offset = combinatorial_rank(value, block_size, cls)
            decoded = pykernel._rrr_decode_block(offset, block_size, cls)
            assert decoded == value == combinatorial_unrank(offset, block_size, cls)
