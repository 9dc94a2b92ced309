"""Bit-level primitives used by every succinct structure in the package.

The module exposes:

* :class:`~repro.bits.bitstring.Bits` -- an immutable bit-string value type
  used to represent binarised strings, trie labels and bitvector payloads;
* :class:`~repro.bits.bitbuffer.BitBuffer` -- an appendable, mutable bit
  buffer used while constructing encodings;
* :mod:`~repro.bits.codes` -- Elias gamma code lengths and the
  combinatorial (class, offset) block codes of the RRR bitvector;
* :class:`~repro.bits.packed.PackedIntVector` -- a fixed-width packed integer
  array with O(1) random access;
* :mod:`~repro.bits.kernel` -- the word-level bit-operations kernel, a
  dispatching façade over a pure-python backend and an optional
  numpy-accelerated backend (``use_backend`` / ``REPRO_KERNEL_BACKEND``).

Performance architecture
------------------------
All hot-path bit manipulation funnels through :mod:`repro.bits.kernel`,
word-level primitives behind a documented backend contract:

* **Packing**: payloads move between big integers, iterables and left-aligned
  64-bit word lists in O(n / 8) via ``int.to_bytes``/``struct`` -- never by
  repeated big-integer shifts (:func:`~repro.bits.kernel.pack_value`,
  :func:`~repro.bits.kernel.pack_bits`).
* **In-word queries**: ``select`` inside a word descends by ``bit_count``
  halves and finishes in one lookup of a precomputed 256-entry table
  (:func:`~repro.bits.kernel.select_in_word`); a rank inside a word is one
  shifted ``bit_count``.  No query path scans bit by bit.
* **Directories**: :func:`~repro.bits.kernel.build_rank_directory` produces
  the two-level superblock/word layout every bitvector shares: cumulative
  counts per superblock of
  :data:`~repro.bits.kernel.SUPERBLOCK_WORDS` words plus per-word popcount
  bytes.
* **Sequential decoding**: :func:`~repro.bits.kernel.broadword_iter_words`
  and :func:`~repro.bits.kernel.iter_word_bits` emit eight bits per step from
  a byte-decode table; :func:`~repro.bits.kernel.one_positions` and
  :func:`~repro.bits.kernel.runs_of_value` bulk-extract set-bit
  positions and maximal runs word-parallel.

Every bitvector encoding, the Wavelet Tree and the Wavelet Trie route their
rank/select/access/iteration through these primitives, so acceleration lands
as a kernel *backend* and speeds up the whole package: the numpy backend
(:mod:`repro.bits.kernel.npkernel`) vectorises packing, directory builds and
the batched ``*_many_packed`` paths over ``uint64`` word arrays, and a
future C/SIMD backend plugs in the same way (docs/ARCHITECTURE.md, "Kernel
backends").
"""

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.packed import PackedIntVector

__all__ = [
    "BitBuffer",
    "Bits",
    "PackedIntVector",
    "kernel",
]
