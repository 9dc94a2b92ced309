"""Elias-Fano rank and the sparse batch paths, differentially tested.

``EliasFanoSequence.rank`` is the textbook high-part ``select0`` plus a
search of the bucket's low bits; it is checked against ``bisect`` on random
monotone sequences (duplicates, the empty sequence, value 0, values at or
above the universe).  The batch paths -- ``EliasFanoSequence.rank_many`` /
``select_many`` and ``SparseBitVector.rank_many`` / ``select_many`` -- must
match their scalar twins on every backend and container.
"""

import contextlib
import random
from bisect import bisect_left, bisect_right

import pytest

from repro.bits import kernel
from repro.bits.kernel import npkernel
from repro.bitvector.sparse import _SMALL_BATCH, EliasFanoSequence, SparseBitVector
from repro.exceptions import OutOfBoundsError
from repro.succinct.partial_sums import StaticPartialSums

BACKENDS = kernel.available_backends()


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def monotone(rng, count, max_gap, dup_rate):
    values, current = [], rng.randrange(3)
    for _ in range(count):
        if values and rng.random() < dup_rate:
            values.append(values[-1])
            continue
        current += rng.randrange(max_gap + 1)
        values.append(current)
    return values


def sequences():
    rng = random.Random(1)
    yield [], None
    yield [0], None
    yield [0, 0, 0], None
    yield [5] * 50, None  # one bucket full of duplicates
    for count, max_gap, dup_rate in (
        (1, 10, 0.0),
        (40, 3, 0.3),
        (300, 50, 0.1),
        (500, 1, 0.5),
        (200, 10_000, 0.0),
    ):
        values = monotone(rng, count, max_gap, dup_rate)
        yield values, None
        # An explicit universe well above the largest value.
        yield values, (values[-1] + 1) * 3 + 7


def probes_for(values, universe):
    top = universe if universe is not None else (values[-1] + 1 if values else 1)
    probes = [-3, 0, 1, top - 1, top, top + 1, 2 * top + 5]
    probes += values + [v + 1 for v in values] + [v - 1 for v in values]
    return probes


def test_rank_matches_bisect():
    for values, universe in sequences():
        sequence = EliasFanoSequence(values, universe=universe)
        for value in probes_for(values, universe):
            assert sequence.rank(value) == bisect_left(values, value), (
                values[:10],
                universe,
                value,
            )


def test_predecessor_and_partial_sums_find_follow_the_new_rank():
    rng = random.Random(2)
    values = monotone(rng, 200, 6, 0.2)
    sequence = EliasFanoSequence(values)
    for value in range(values[0], values[-1] + 2):
        assert sequence.predecessor(value) == bisect_right(values, value) - 1
    lengths = [rng.choice([0, 0, 1, 3, 9]) for _ in range(150)]
    sums = StaticPartialSums(lengths)
    starts = [0]
    for length in lengths:
        starts.append(starts[-1] + length)
    for pos in range(sums.total):
        assert sums.find(pos) == bisect_right(starts, pos) - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_elias_fano_batches_match_scalar(backend):
    with active_backend(backend):
        for values, universe in sequences():
            sequence = EliasFanoSequence(values, universe=universe)
            probes = probes_for(values, universe) * 2
            expected = [sequence.rank(v) for v in probes]
            assert sequence.rank_many(probes) == expected
            assert sequence.rank_many(tuple(probes)) == expected
            huge = probes + [1 << 70]
            assert sequence.rank_many(huge) == expected + [len(values)]
            indexes = list(range(len(values)))[::-1] * 2
            assert sequence.select_many(indexes) == [values[i] for i in indexes]


@pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("backend", BACKENDS)
def test_elias_fano_array_input(backend):
    import numpy as np

    values = monotone(random.Random(3), 400, 20, 0.2)
    sequence = EliasFanoSequence(values)
    indexes = np.arange(len(values) - 1, -1, -3, dtype=np.int64)
    probes = np.arange(-2, values[-1] + 3, 5, dtype=np.int64)
    with active_backend(backend):
        selected = sequence.select_many(indexes)
        ranked = sequence.rank_many(probes)
        if backend == "numpy":
            assert isinstance(ranked, np.ndarray)
        assert selected == [values[i] for i in indexes.tolist()]
        assert kernel.as_int_list(ranked) == [
            bisect_left(values, v) for v in probes.tolist()
        ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_elias_fano_select_many_validates_all_or_nothing(backend):
    sequence = EliasFanoSequence(list(range(0, 200, 3)))
    with active_backend(backend):
        for bad in (-1, len(sequence)):
            with pytest.raises(OutOfBoundsError, match=f"index {bad}"):
                sequence.select_many(list(range(2 * _SMALL_BATCH)) + [bad])


@pytest.mark.parametrize("backend", BACKENDS)
def test_sparse_bitvector_batches_match_scalar(backend):
    rng = random.Random(4)
    for length, density in ((1, 1.0), (700, 0.02), (700, 0.3), (1_000, 0.0)):
        ones = [p for p in range(length) if rng.random() < density]
        vector = SparseBitVector(length, ones)
        positions = list(range(length + 1)) * 2
        rng.shuffle(positions)
        with active_backend(backend):
            for bit in (0, 1):
                assert vector.rank_many(bit, positions) == [
                    vector.rank(bit, p) for p in positions
                ]
                total = vector.count(bit)
                indexes = [rng.randrange(total) for _ in range(80)] if total else []
                assert vector.select_many(bit, indexes) == [
                    vector.select(bit, i) for i in indexes
                ]
            inside = [p for p in positions if p < length]
            assert vector.access_many(inside) == [vector.access(p) for p in inside]


@pytest.mark.parametrize("backend", BACKENDS)
def test_sparse_bitvector_batch_validation(backend):
    vector = SparseBitVector(300, range(0, 300, 7))
    good = list(range(2 * _SMALL_BATCH))
    with active_backend(backend):
        with pytest.raises(OutOfBoundsError, match="rank position 301"):
            vector.rank_many(1, good + [301])
        with pytest.raises(OutOfBoundsError):
            vector.select_many(1, good[:5] + [vector.ones])
        with pytest.raises(ValueError):
            vector.rank_many(2, good)
