"""Reproduction of "The Wavelet Trie: Maintaining an Indexed Sequence of Strings
in Compressed Space" (Grossi & Ottaviano, PODS 2012).

The package provides a complete, pure-Python implementation of the paper's
primary contribution -- the Wavelet Trie in its static, append-only and fully
dynamic variants -- together with every substrate the construction relies on:
succinct bitvectors (plain, RRR, Elias-Fano, append-only, dynamic RLE),
partial sums, string binarisation codecs, classic Wavelet
Trees, the Section 6 probabilistically balanced dynamic Wavelet Tree, the
uncompressed oracle every test compares against, entropy/space analysis
helpers, synthetic workload generators and a small column-store layer.

The most convenient entry points are re-exported here:

>>> from repro import WaveletTrie
>>> wt = WaveletTrie(["/a/x", "/a/y", "/b", "/a/x"])
>>> wt.access(3)
'/a/x'
>>> wt.rank("/a/x", 4)
2
>>> wt.rank_prefix("/a", 4)
3
"""

from repro.core import (
    AppendOnlyWaveletTrie,
    DynamicWaveletTrie,
    WaveletTrie,
)
from repro.core.interface import IndexedStringSequence
from repro.wavelet import (
    BalancedDynamicWaveletTree,
    HuffmanWaveletTree,
    WaveletTree,
)

__version__ = "1.0.0"

__all__ = [
    "AppendOnlyWaveletTrie",
    "BalancedDynamicWaveletTree",
    "DynamicWaveletTrie",
    "HuffmanWaveletTree",
    "IndexedStringSequence",
    "WaveletTree",
    "WaveletTrie",
    "__version__",
]
