"""The Wavelet Trie: compressed indexed sequences of strings.

Three variants, matching the paper's Table 1:

* :class:`~repro.core.static.WaveletTrie` -- static (Theorem 3.7);
* :class:`~repro.core.append_only.AppendOnlyWaveletTrie` -- supports
  ``append`` (Theorem 4.3);
* :class:`~repro.core.dynamic.DynamicWaveletTrie` -- fully dynamic
  ``insert``/``append``/``delete`` with a dynamic alphabet (Theorem 4.4).

All variants share the query interface of
:class:`~repro.core.interface.IndexedStringSequence` (``access``, ``rank``,
``select``, ``rank_prefix``, ``select_prefix``) and the Section 5 range
analytics implemented in :mod:`repro.core.range_queries`.

The static trie stores exactly Theorem 3.7's components and makes its
node handles on demand.  :mod:`repro.core.tiers` freezes growable tries into static ones
(:class:`~repro.core.tiers.TrieFreezer`, :func:`~repro.core.tiers.freeze_trie`)
and composes the variants into the LSM-style
:class:`~repro.core.tiers.TieredWaveletTrie` (one mutable tail tier plus
frozen RRR tiers with budgeted background compaction).
"""

from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.interface import IndexedStringSequence
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, TrieFreezer, freeze_trie

__all__ = [
    "AppendOnlyWaveletTrie",
    "DynamicWaveletTrie",
    "IndexedStringSequence",
    "TieredWaveletTrie",
    "TrieFreezer",
    "WaveletTrie",
    "WaveletTrieNode",
    "freeze_trie",
]
