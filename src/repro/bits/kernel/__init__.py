"""Word-level bit-operations kernel: a dispatching façade over two backends.

This package is the single place where in-word bit manipulation happens.  All
bitvector encodings (:mod:`repro.bitvector`), the Wavelet Tree and the Wavelet
Trie route their hot paths -- packing, rank directories, in-word select,
batched directory lookups -- through these primitives, so acceleration lands
here as a *backend* and the structures never change.

Two backends implement the contract (docs/ARCHITECTURE.md, "Kernel
backends"):

* ``python`` (:mod:`~repro.bits.kernel.pykernel`) -- pure stdlib, always
  available, the correctness oracle;
* ``numpy`` (:mod:`~repro.bits.kernel.npkernel`) -- vectorised over
  ``uint64`` word arrays; registered only when numpy imports.

Selection::

    from repro.bits import kernel
    kernel.use_backend("python")     # returns the previous backend name
    kernel.active_backend()          # -> "python" | "numpy"
    kernel.available_backends()      # -> ("python",) or ("python", "numpy")

or set the ``REPRO_KERNEL_BACKEND`` environment variable before import.  The
default is ``numpy`` when available, else ``python``; an unsatisfiable
request falls back to the default with a warning (import never fails).

Dispatch is at *call* time: functions whose implementations differ between
backends are thin wrappers reading the active backend, so ``use_backend``
affects every structure immediately, including modules that imported the
names with ``from repro.bits.kernel import ...``.  Scalar primitives that
both backends share by construction (``select_in_word``, ``pack_value``,
...) are re-exported from the python backend directly, with no dispatch
overhead.

Backend-native containers: bulk functions may return the backend's native
sequence type (python lists, or ``uint64``/``int64`` numpy arrays) and the
batch query functions mirror their input container.  A native array is only
valid with the backend that produced it; anything stored across calls must
be normalised with :func:`as_int_list`.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable, List, Sequence, Tuple

from repro.bits.kernel import npkernel, pykernel

# Shared scalar primitives and constants: identical in every backend by
# construction (the numpy backend re-exports these same objects), so they
# are bound directly with zero dispatch overhead.
from repro.bits.kernel.pykernel import (  # noqa: F401  (re-exported API)
    SUPERBLOCK_BITS,
    SUPERBLOCK_WORDS,
    WORD,
    WORD_MASK,
    broadword_iter_words,
    extract_bits_value,
    invert_word,
    iter_word_bits,
    pack_value,
    popcount_range,
    rank_word_prefix,
    select_bit_in_words,
    select_in_word,
    select_one_in_words,
    select_zero_in_word,
    unpack_value,
    words_to_int,
)

__all__ = list(pykernel.__all__) + [
    "KERNEL_CONTRACT",
    "use_backend",
    "active_backend",
    "available_backends",
    "as_int_list",
    "int_words_view",
    "array_module",
]

#: Every public name a backend module must implement (the backend contract).
#: ``make docs-check`` fails when a backend misses one of these or when the
#: ARCHITECTURE.md contract table drifts from this list.
KERNEL_CONTRACT: Tuple[str, ...] = tuple(pykernel.__all__)

_KNOWN_BACKENDS: Tuple[str, ...] = ("python", "numpy")
_BACKENDS = {"python": pykernel}
if npkernel.HAVE_NUMPY:
    _BACKENDS["numpy"] = npkernel


def _resolve_default_backend(requested, available) -> Tuple[str, str]:
    """Pick the import-time backend; returns ``(name, warning)``.

    Pure helper (unit-tested directly): ``requested`` is the raw
    ``REPRO_KERNEL_BACKEND`` value or ``None``; ``available`` the registered
    backend names.  Unknown or unavailable requests fall back gracefully to
    the best available backend instead of failing the import.
    """
    default = "numpy" if "numpy" in available else "python"
    if not requested:
        return default, ""
    name = requested.strip().lower()
    if name not in _KNOWN_BACKENDS:
        return default, (
            f"REPRO_KERNEL_BACKEND={requested!r} is not a known kernel "
            f"backend (expected one of {_KNOWN_BACKENDS}); using {default!r}"
        )
    if name not in available:
        return default, (
            f"REPRO_KERNEL_BACKEND={requested!r} requested but numpy is not "
            f"installed; falling back to {default!r}"
        )
    return name, ""


_active_name, _warning = _resolve_default_backend(
    os.environ.get("REPRO_KERNEL_BACKEND"), _BACKENDS
)
if _warning:
    warnings.warn(_warning, RuntimeWarning, stacklevel=2)
_active = _BACKENDS[_active_name]


def use_backend(name: str) -> str:
    """Switch the active kernel backend; returns the previous backend's name.

    ``name`` must be ``"python"`` or ``"numpy"``.  Unknown names raise
    :class:`ValueError`; requesting ``"numpy"`` without numpy installed
    raises :class:`RuntimeError`.  The switch takes effect immediately for
    every dispatched kernel function (structures re-prepare their cached
    backend handles lazily).
    """
    global _active, _active_name
    if name not in _KNOWN_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {_KNOWN_BACKENDS}"
        )
    if name not in _BACKENDS:
        raise RuntimeError(
            f"kernel backend {name!r} is not available (numpy is not installed)"
        )
    previous = _active_name
    _active_name = name
    _active = _BACKENDS[name]
    return previous


def active_backend() -> str:
    """Name of the backend currently serving dispatched kernel calls."""
    return _active_name


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, ``"python"`` always first."""
    return tuple(sorted(_BACKENDS, key=_KNOWN_BACKENDS.index))


def array_module():
    """The numpy module while the numpy backend is active, else ``None``.

    A façade-only helper for structure code that keeps batch state in
    backend-native arrays *between* kernel calls (masking and concatenating
    the live rows of a multi-step walk); under the python backend such code
    takes its list path instead.
    """
    return npkernel.np if _active_name == "numpy" else None


def as_int_list(sequence) -> List[int]:
    """Normalise a backend-native integer sequence to a list of python ints.

    Lists pass through unchanged (no copy); numpy arrays convert via
    ``tolist``.  Use this before *storing* a bulk-function result -- native
    arrays are only valid with the backend that produced them.
    """
    if type(sequence) is list:
        return sequence
    tolist = getattr(sequence, "tolist", None)
    if tolist is not None:
        return tolist()
    return [int(item) for item in sequence]


# ----------------------------------------------------------------------
# Dispatched contract functions (thin call-time wrappers; docstrings live
# on the backend implementations -- see pykernel for the reference text)
# ----------------------------------------------------------------------
def words_view(buffer):
    """Backend-native zero-copy word view of little-endian uint64 bytes."""
    return _active.words_view(buffer)


def int_words_view(buffer):
    """Portable int-yielding zero-copy word view of little-endian bytes.

    A façade-only helper (not part of the backend contract): always the
    python backend's ``memoryview``-based :func:`pykernel.words_view`,
    regardless of the active backend.  Indexing yields plain python ints, so
    the result is safe in every scalar word path under every backend, while
    the numpy backend's batch handles still wrap it without copying (its
    ``np.frombuffer`` fast path reinterprets the same mapped bytes).  Same
    aliasing and read-only rules as :func:`words_view`.
    """
    return pykernel.words_view(buffer)


def pack_bits(bits: Iterable[int]):
    """Pack an iterable of 0/1 values; returns ``(words, length)``."""
    return _active.pack_bits(bits)


def pack_iterable(bits: Iterable[int]):
    """Pack an iterable of 0/1 values; returns ``(words, length)``."""
    return _active.pack_iterable(bits)


def popcount_words(words: Sequence[int]) -> int:
    """Total set bits of a packed word sequence."""
    return _active.popcount_words(words)


def build_rank_directory(words: Sequence[int]):
    """Two-level rank directory ``(super_cum, word_pop, word_cum)``."""
    return _active.build_rank_directory(words)


def cumulative_popcounts(word_pop: bytes, length: int):
    """Flat per-word one/zero cumulatives ``(abs_cum, zero_cum)``."""
    return _active.cumulative_popcounts(word_pop, length)


def one_positions(words: Sequence[int]):
    """Ascending positions of all set bits of a packed word sequence."""
    return _active.one_positions(words)


def run_lengths_of_value(value: int, length: int):
    """Lengths of the maximal runs of an MSB-first payload."""
    return _active.run_lengths_of_value(value, length)


def runs_of_value(value: int, length: int):
    """Maximal ``(bit, length)`` runs of an MSB-first payload."""
    return _active.runs_of_value(value, length)


def runs_of_words(words: Sequence[int], length: int):
    """Maximal ``(bit, length)`` runs of a packed word sequence."""
    return _active.runs_of_words(words, length)


def delete_positions_from_runs(
    runs: Sequence[Tuple[int, int]], positions: Sequence[int]
):
    """Run surgery: drop sorted ``positions``; returns ``(kept_runs, deleted_bits)``."""
    return _active.delete_positions_from_runs(runs, positions)


def block_popcounts(words: Sequence[int], length: int, block_size: int):
    """Popcount of each ``block_size``-bit block of the top ``length`` bits."""
    return _active.block_popcounts(words, length, block_size)


def select_in_word_many(word: int, ks: Sequence[int]) -> List[int]:
    """Offsets of the ``ks[i]``-th set bits of one word, ``ks`` ascending."""
    return _active.select_in_word_many(word, ks)


def prepare_symbols(symbols: Sequence[int]):
    """Backend-native handle for a symbol sequence (wavelet builders)."""
    return _active.prepare_symbols(symbols)


def partition_by_pivot(symbols, pivot: int):
    """Branch bits + stable partition: ``(words, length, left, right)``."""
    return _active.partition_by_pivot(symbols, pivot)


def prepare_rank_select(
    words: Sequence[int],
    length: int,
    abs_cum: Sequence[int],
    zero_cum: Sequence[int],
):
    """Opaque handle for the ``*_many_packed`` batch query functions."""
    return _active.prepare_rank_select(words, length, abs_cum, zero_cum)


def access_many_packed(handle, positions: Sequence[int]):
    """Bits at each of ``positions`` via a prepared handle."""
    return _active.access_many_packed(handle, positions)


def rank_many_packed(handle, bit: int, positions: Sequence[int]):
    """``rank(bit, pos)`` at each of ``positions`` via a prepared handle."""
    return _active.rank_many_packed(handle, bit, positions)


def select_many_packed(handle, bit: int, indexes: Sequence[int]):
    """``select(bit, idx)`` for each index via a prepared handle."""
    return _active.select_many_packed(handle, bit, indexes)


def prepare_rrr(
    classes: Sequence[int],
    offset_words: Sequence[int],
    sample_rank: Sequence[int],
    sample_offset_pos: Sequence[int],
    length: int,
    block_size: int,
    sample_rate: int,
):
    """Opaque handle for :func:`rrr_rank_many` over RRR bitvector fields."""
    return _active.prepare_rrr(
        classes,
        offset_words,
        sample_rank,
        sample_offset_pos,
        length,
        block_size,
        sample_rate,
    )


def rrr_rank_many(handle, bit: int, positions: Sequence[int]):
    """``rank(bit, pos)`` at each of ``positions`` via a prepared RRR handle."""
    return _active.rrr_rank_many(handle, bit, positions)


def prepare_fields(words: Sequence[int], width: int):
    """Opaque handle for :func:`fields_many` over LSB-packed fields."""
    return _active.prepare_fields(words, width)


def fields_many(handle, indexes: Sequence[int]):
    """The fixed-width fields at each of ``indexes`` via a prepared handle."""
    return _active.fields_many(handle, indexes)
