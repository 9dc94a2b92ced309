"""The uncompressed oracle for indexed sequences of strings.

:class:`~repro.baselines.naive.NaiveIndexedSequence` answers every query by
scanning a Python list.  The tests cross-check every Wavelet Trie flavour
against it, and the Table 1 space checks use it as the uncompressed
yardstick.  The paper's Section 1 also names dictionary-plus-Wavelet-Tree,
text-collection and B-tree stores; they are compared there in prose only.
"""

from repro.baselines.naive import NaiveIndexedSequence

__all__ = ["NaiveIndexedSequence"]
