"""Rank/select bitvectors (Fully Indexable Dictionaries), static and dynamic.

This package implements every bitvector flavour used in the paper:

* :class:`~repro.bitvector.plain.PlainBitVector` -- uncompressed, O(1) rank and
  near-O(1) select, used as a baseline and inside other structures;
* :class:`~repro.bitvector.rrr.RRRBitVector` -- the RRR compressed bitvector of
  Raman, Raman & Rao, ``B(m, n) + o(n)`` bits (paper Section 2);
* :class:`~repro.bitvector.sparse.EliasFanoSequence` and
  :class:`~repro.bitvector.sparse.SparseBitVector` -- monotone sequences /
  sparse bitvectors used as partial-sum delimiters;
* :class:`~repro.bitvector.append_only.AppendOnlyBitVector` -- the paper's
  Section 4.1 append-only bitvector (Theorem 4.5);
* :class:`~repro.bitvector.dynamic.DynamicBitVector` -- the paper's Section 4.2
  fully-dynamic RLE+gamma bitvector supporting ``Init`` (Theorem 4.9).
"""

from repro.bitvector.append_only import AppendOnlyBitVector
from repro.bitvector.base import BitVector, StaticBitVector
from repro.bitvector.dynamic import DynamicBitVector
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import IncrementalRRRBuilder, RRRBitVector
from repro.bitvector.sparse import EliasFanoSequence, SparseBitVector

__all__ = [
    "AppendOnlyBitVector",
    "BitVector",
    "DynamicBitVector",
    "EliasFanoSequence",
    "IncrementalRRRBuilder",
    "PlainBitVector",
    "RRRBitVector",
    "SparseBitVector",
    "StaticBitVector",
]
