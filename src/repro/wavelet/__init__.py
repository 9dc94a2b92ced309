"""Classic Wavelet Trees and the Section 6 balanced dynamic variant.

The two static trees are the static Wavelet Trie
(:class:`~repro.core.static.WaveletTrie`) over a codec that maps each
symbol to its code; each adds only its codes and the few queries only it
answers, and takes every other query and batch descent from the trie:

* :class:`~repro.wavelet.wavelet_tree.WaveletTree` -- the classic static
  Wavelet Tree over an integer alphabet (paper Section 2, Figure 1): the
  trie of the symbols' halving codes, with 2-dimensional range counting
  and quantiles;
* :class:`~repro.wavelet.huffman.HuffmanWaveletTree` -- the Huffman-shaped
  variant (mentioned after Lemma 3.2): the trie of the symbols' Huffman
  codes, the FM-index's BWT store;
* :class:`~repro.wavelet.balanced.BalancedDynamicWaveletTree` -- the
  probabilistically balanced dynamic Wavelet Tree of Section 6
  (Theorem 6.2), built on multiplicative hashing plus a Wavelet Trie.
"""

from repro.wavelet.balanced import BalancedDynamicWaveletTree
from repro.wavelet.huffman import HuffmanWaveletTree, huffman_codes
from repro.wavelet.wavelet_tree import WaveletTree

__all__ = [
    "BalancedDynamicWaveletTree",
    "HuffmanWaveletTree",
    "WaveletTree",
    "huffman_codes",
]
