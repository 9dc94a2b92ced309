"""Cross-backend differential tests of the kernel backend contract.

Every dispatched contract primitive is run under both the python and the
numpy backend on random payloads *and* on the adversarial shapes that break
word-level code (empty, all-zeros, all-ones, a single set bit in every
position class, exact word/superblock boundaries), and the results are
asserted identical after container normalisation.  The python backend is the
correctness oracle (it is itself tested against naive references in
``test_kernel.py``), so agreement here certifies the numpy backend.

Also covers the backend-selection API: ``use_backend`` round-trips, unknown
names raise, and the ``REPRO_KERNEL_BACKEND`` fallback resolution is pure
and graceful.
"""

import random

import pytest

from repro.bits import kernel
from repro.bits.kernel import npkernel, pykernel

requires_numpy = pytest.mark.skipif(
    not npkernel.HAVE_NUMPY, reason="numpy not installed"
)

# Lengths hitting every alignment class: sub-byte, byte, sub-word, exact
# word, word+1, superblock (512 = 8 words) boundaries, and a multi-superblock
# size large enough to clear every small-input delegation threshold.
BOUNDARY_LENGTHS = [0, 1, 7, 8, 63, 64, 65, 127, 128, 511, 512, 513, 4096, 10_001]


def payloads(length):
    """Random plus adversarial ``(value, length)`` payloads of one length."""
    rng = random.Random(length * 1_000_003 + 7)
    out = []
    if length == 0:
        return [(0, 0)]
    out.append((rng.getrandbits(length), length))
    out.append((0, length))  # all zeros
    out.append(((1 << length) - 1, length))  # all ones
    for position in {0, length // 2, length - 1}:  # single set bit
        out.append((1 << (length - 1 - position), length))
    return out


def both(name, *args):
    """Run contract function ``name`` under both backends; return the pair."""
    py = getattr(pykernel, name)(*args)
    np_ = getattr(npkernel, name)(*args)
    return py, np_


def norm(value):
    if isinstance(value, tuple):
        return tuple(norm(part) for part in value)
    if isinstance(value, (int, bytes, str)):
        return value
    return kernel.as_int_list(value)


@requires_numpy
@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_packing_and_popcounts_agree(length):
    for value, n in payloads(length):
        words = pykernel.pack_value(value, n)
        bits = [(value >> (n - 1 - i)) & 1 for i in range(n)]
        py_pack, np_pack = both("pack_bits", bits)
        assert norm(py_pack) == norm(np_pack)
        assert py_pack[1] == np_pack[1] == n
        assert norm(py_pack[0]) == words
        py_pop, np_pop = both("popcount_words", words)
        assert py_pop == np_pop == value.bit_count()
        py_ones, np_ones = both("one_positions", words)
        assert norm(py_ones) == norm(np_ones)


@requires_numpy
@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_directories_agree(length):
    for value, n in payloads(length):
        words = pykernel.pack_value(value, n)
        py_dir, np_dir = both("build_rank_directory", words)
        assert norm(py_dir[0]) == norm(np_dir[0])  # super_cum
        assert py_dir[1] == np_dir[1]  # word_pop bytes
        assert norm(py_dir[2]) == norm(np_dir[2])  # word_cum
        py_cum, np_cum = both("cumulative_popcounts", py_dir[1], n)
        assert norm(py_cum) == norm(np_cum)
        for block_size in (1, 7, 63):
            py_blocks, np_blocks = both("block_popcounts", words, n, block_size)
            assert norm(py_blocks) == norm(np_blocks)


@requires_numpy
@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_runs_agree(length):
    for value, n in payloads(length):
        words = pykernel.pack_value(value, n)
        assert norm(both("run_lengths_of_value", value, n)[0]) == norm(
            both("run_lengths_of_value", value, n)[1]
        )
        py_runs, np_runs = both("runs_of_value", value, n)
        assert py_runs == np_runs
        py_wruns, np_wruns = both("runs_of_words", words, n)
        assert py_wruns == np_wruns == py_runs


@requires_numpy
@pytest.mark.parametrize("length", [l for l in BOUNDARY_LENGTHS if l])
def test_delete_positions_from_runs_agrees(length):
    """Run surgery under both backends: random and adversarial payloads
    (all-zeros and all-ones collapse to one run; single-bit payloads and
    word-boundary lengths stress the coalescing), with batch sizes on both
    sides of the numpy backend's small-input delegation threshold."""
    rng = random.Random(length * 7 + 3)
    for value, n in payloads(length):
        runs = pykernel.runs_of_value(value, n)
        for count in {1, min(31, n), min(64, n), n}:
            positions = sorted(rng.sample(range(n), count))
            py_kept, py_deleted = pykernel.delete_positions_from_runs(
                runs, positions
            )
            np_kept, np_deleted = npkernel.delete_positions_from_runs(
                runs, positions
            )
            assert py_kept == np_kept
            assert py_deleted == np_deleted
            # The oracle of the oracle: reconstruct from the flat bit list.
            bits = [(value >> (n - 1 - i)) & 1 for i in range(n)]
            assert py_deleted == [bits[p] for p in positions]
            survivors = [
                bit for i, bit in enumerate(bits) if i not in set(positions)
            ]
            flattened = [
                bit for bit, run_len in py_kept for _ in range(run_len)
            ]
            assert flattened == survivors
            # Normalised output: no empty runs, no equal adjacent bits.
            assert all(run_len > 0 for _, run_len in py_kept)
            assert all(
                py_kept[i][0] != py_kept[i + 1][0]
                for i in range(len(py_kept) - 1)
            )
    with pytest.raises(ValueError):
        npkernel.delete_positions_from_runs([(1, 4)], list(range(64)))
    with pytest.raises(ValueError):
        pykernel.delete_positions_from_runs([(1, 4)], [4])


@requires_numpy
@pytest.mark.parametrize("length", [l for l in BOUNDARY_LENGTHS if l])
def test_batch_rank_select_access_agree(length):
    rng = random.Random(length * 31 + 5)
    for value, n in payloads(length):
        words = pykernel.pack_value(value, n)
        word_pop = bytes(word.bit_count() for word in words)
        abs_cum, zero_cum = pykernel.cumulative_popcounts(word_pop, n)
        py_handle = pykernel.prepare_rank_select(words, n, abs_cum, zero_cum)
        np_handle = npkernel.prepare_rank_select(words, n, abs_cum, zero_cum)
        positions = [rng.randrange(n) for _ in range(64)]
        rank_positions = [rng.randrange(n + 1) for _ in range(64)] + [0, n]
        assert norm(
            pykernel.access_many_packed(py_handle, positions)
        ) == norm(npkernel.access_many_packed(np_handle, positions))
        for bit in (0, 1):
            assert norm(
                pykernel.rank_many_packed(py_handle, bit, rank_positions)
            ) == norm(npkernel.rank_many_packed(np_handle, bit, rank_positions))
            total = abs_cum[-1] if bit else zero_cum[-1]
            if not total:
                continue
            indexes = [rng.randrange(total) for _ in range(64)]
            indexes += [0, total - 1]
            assert norm(
                pykernel.select_many_packed(py_handle, bit, indexes)
            ) == norm(npkernel.select_many_packed(np_handle, bit, indexes))


@requires_numpy
def test_select_in_word_many_agrees():
    rng = random.Random(99)
    words = [rng.getrandbits(64) for _ in range(50)]
    words += [0xFFFFFFFFFFFFFFFF, 1, 1 << 63, 0x5555555555555555]
    for word in words:
        total = word.bit_count()
        for q in (1, 3, total):  # small (delegated) and full (vectorised)
            ks = sorted(rng.sample(range(total), min(q, total)))
            if not ks:
                continue
            py_res, np_res = both("select_in_word_many", word, ks)
            assert py_res == np_res
    with pytest.raises(ValueError):
        npkernel.select_in_word_many(1, list(range(40)))


@requires_numpy
def test_wavelet_build_survives_symbols_beyond_int64():
    """Symbols outside the int64 range cannot be vectorised; the numpy
    backend must fall back to the python partition instead of overflowing
    (regression)."""
    from repro.wavelet.wavelet_tree import WaveletTree

    big = 1 << 63
    start = kernel.active_backend()
    try:
        kernel.use_backend("numpy")
        tree = WaveletTree([big, 5, big], alphabet_size=big + 1)
        assert tree.access(0) == big
        assert tree.rank(big, 3) == 2
        assert tree.select(5, 0) == 1
    finally:
        kernel.use_backend(start)


@requires_numpy
def test_partition_by_pivot_agrees():
    rng = random.Random(123)
    for n in (0, 1, 63, 64, 1000):
        symbols = [rng.randrange(256) for _ in range(n)]
        py_sym = pykernel.prepare_symbols(symbols)
        np_sym = npkernel.prepare_symbols(symbols)
        for pivot in (0, 7, 128, 256):
            pw, plen, pleft, pright = pykernel.partition_by_pivot(py_sym, pivot)
            nw, nlen, nleft, nright = npkernel.partition_by_pivot(np_sym, pivot)
            assert plen == nlen
            assert norm(pw) == norm(nw)
            assert norm(pleft) == norm(nleft)
            assert norm(pright) == norm(nright)


@requires_numpy
def test_batch_queries_mirror_input_container():
    """Array in, array out; list in, list out (the numpy backend contract)."""
    import numpy as np

    rng = random.Random(5)
    n = 2048
    value = rng.getrandbits(n)
    words = pykernel.pack_value(value, n)
    abs_cum, zero_cum = pykernel.cumulative_popcounts(
        bytes(w.bit_count() for w in words), n
    )
    handle = npkernel.prepare_rank_select(words, n, abs_cum, zero_cum)
    as_list = [rng.randrange(n) for _ in range(40)]
    as_array = np.asarray(as_list, dtype=np.int64)
    assert isinstance(npkernel.rank_many_packed(handle, 1, as_list), list)
    assert isinstance(
        npkernel.rank_many_packed(handle, 1, as_array), np.ndarray
    )
    assert isinstance(npkernel.access_many_packed(handle, as_list), list)
    assert isinstance(
        npkernel.access_many_packed(handle, as_array), np.ndarray
    )


# ----------------------------------------------------------------------
# Backend selection API
# ----------------------------------------------------------------------
def test_use_backend_round_trips():
    start = kernel.active_backend()
    assert start in kernel.available_backends()
    previous = kernel.use_backend("python")
    assert previous == start
    assert kernel.active_backend() == "python"
    # Dispatch follows immediately: the active backend's module serves calls.
    assert kernel.pack_bits([1, 0, 1])[1] == 3
    restored = kernel.use_backend(start)
    assert restored == "python"
    assert kernel.active_backend() == start


def test_use_backend_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernel.use_backend("cython")
    with pytest.raises(ValueError):
        kernel.use_backend("")
    # A failed switch must not clobber the active backend.
    assert kernel.active_backend() in kernel.available_backends()


def test_use_backend_unavailable_raises():
    if "numpy" in kernel.available_backends():
        pytest.skip("numpy installed; unavailability covered by resolver test")
    with pytest.raises(RuntimeError, match="not available"):
        kernel.use_backend("numpy")


def test_env_var_resolution_is_graceful():
    resolve = kernel._resolve_default_backend
    full = {"python": None, "numpy": None}
    only_py = {"python": None}
    assert resolve(None, full) == ("numpy", "")
    assert resolve(None, only_py) == ("python", "")
    assert resolve("python", full) == ("python", "")
    assert resolve("NumPy", full) == ("numpy", "")
    name, warning = resolve("numpy", only_py)
    assert name == "python" and "falling back" in warning
    name, warning = resolve("fortran", full)
    assert name == "numpy" and "not a known kernel backend" in warning


@requires_numpy
def test_every_structure_accepts_ndarray_batches():
    """Numpy index/position arrays must be accepted (and answered as plain
    lists) by every structure's batch queries, not just PlainBitVector
    (regression: array pass-through in validate_select_indexes used to
    crash the non-plain select_many implementations on `if not indexes`)."""
    import numpy as np

    from repro.bitvector import (
        PlainBitVector,
        RLEBitVector,
        RRRBitVector,
    )
    from repro.wavelet.wavelet_tree import WaveletTree

    rng = random.Random(11)
    bits = [rng.randint(0, 1) for _ in range(2000)]
    ones = sum(bits)
    idx_arr = np.arange(0, ones, 7, dtype=np.int64)
    pos_arr = np.arange(0, 2000, 13, dtype=np.int64)
    for factory in (PlainBitVector, RRRBitVector, RLEBitVector):
        vector = factory(bits)
        expected = vector.select_many(1, idx_arr.tolist())
        got = kernel.as_int_list(vector.select_many(1, idx_arr))
        assert got == expected, factory.__name__
        assert kernel.as_int_list(
            vector.access_many(pos_arr)
        ) == vector.access_many(pos_arr.tolist()), factory.__name__

    data = [rng.randrange(8) for _ in range(500)]
    tree = WaveletTree(data, alphabet_size=8)
    count = tree.count(3)
    tree_idx = np.arange(count, dtype=np.int64)
    assert tree.select_many(3, tree_idx) == tree.select_many(
        3, tree_idx.tolist()
    )
    tree_pos = np.arange(0, 500, 11, dtype=np.int64)
    assert tree.access_many(tree_pos) == tree.access_many(tree_pos.tolist())
    assert tree.rank_many(3, tree_pos) == tree.rank_many(3, tree_pos.tolist())


def test_batch_queries_accept_any_iterable_container():
    """Sets, dict views, generators and ranges must work as batch inputs
    under every backend (regression: the numpy batch path used to crash on
    sized non-indexable containers like sets)."""
    from repro.bitvector.plain import PlainBitVector

    rng = random.Random(3)
    bits = [rng.randint(0, 1) for _ in range(4096)]
    vector = PlainBitVector(bits)
    queries = {i * 37 % 4096 for i in range(100)}  # a set: sized, unindexable
    start = kernel.active_backend()
    try:
        for backend in kernel.available_backends():
            kernel.use_backend(backend)
            assert sorted(vector.access_many(queries)) == sorted(
                vector.access_many(list(queries))
            )
            assert sorted(vector.rank_many(1, queries)) == sorted(
                vector.rank_many(1, list(queries))
            )
            assert list(vector.access_many(range(100))) == bits[:100]
            assert vector.access_many(pos for pos in [5, 9]) == [
                bits[5],
                bits[9],
            ]
            ones = vector.ones
            some = {idx * 13 % ones for idx in range(64)}
            assert sorted(vector.select_many(1, some)) == sorted(
                vector.select_many(1, list(some))
            )
    finally:
        kernel.use_backend(start)


@requires_numpy
def test_structures_follow_backend_switch():
    """A structure built under one backend answers identically after a
    switch (handles re-prepare lazily per backend)."""
    from repro.bitvector.plain import PlainBitVector

    rng = random.Random(17)
    bits = [rng.randint(0, 1) for _ in range(5000)]
    start = kernel.active_backend()
    try:
        kernel.use_backend("numpy")
        vector = PlainBitVector(bits)
        positions = [rng.randrange(5000) for _ in range(200)]
        under_numpy = vector.rank_many(1, positions)
        kernel.use_backend("python")
        under_python = vector.rank_many(1, positions)
        assert kernel.as_int_list(under_numpy) == under_python
        ones = vector.ones
        indexes = [rng.randrange(ones) for _ in range(200)]
        kernel.use_backend("numpy")
        sel_numpy = vector.select_many(1, indexes)
        kernel.use_backend("python")
        sel_python = vector.select_many(1, indexes)
        assert kernel.as_int_list(sel_numpy) == sel_python
    finally:
        kernel.use_backend(start)


@requires_numpy
@pytest.mark.parametrize("width", [0, 1, 5, 17, 32, 63, 64])
def test_field_gathers_agree(width):
    """``fields_many`` reads the LSB-packed ``PackedIntVector`` layout the
    same way on both backends, including fields that straddle two words and
    full 64-bit fields."""
    from repro.bits.packed import PackedIntVector

    rng = random.Random(width)
    values = [rng.getrandbits(width) if width else 0 for _ in range(500)]
    vector = PackedIntVector(width, values)
    indexes = [rng.randrange(500) for _ in range(300)] + [0, 499]
    py = pykernel.fields_many(pykernel.prepare_fields(vector._words, width), indexes)
    np_ = npkernel.fields_many(npkernel.prepare_fields(vector._words, width), indexes)
    assert py == norm(np_) == [values[i] for i in indexes]
