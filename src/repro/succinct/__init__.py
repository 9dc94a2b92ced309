"""Prefix-sum structures of the static Wavelet Trie (paper Section 3).

The static trie concatenates its labels, and its internal nodes'
bitvectors, in preorder and delimits each concatenation with
:class:`StaticPartialSums`.  Its topology needs no tree encoding: a full
binary tree is its preorder internal flags.
"""

from repro.succinct.partial_sums import StaticPartialSums

__all__ = ["StaticPartialSums"]
