"""Patricia tries and string binarisation.

The Wavelet Trie is a Wavelet Tree shaped like the Patricia trie of the
distinct strings.  This package provides:

* :mod:`repro.tries.binarize` -- codecs mapping application values
  (``str``, ``bytes``, ``int``) to the prefix-free binary strings
  (:class:`~repro.bits.bitstring.Bits`) the data structure operates on;
* :class:`~repro.tries.patricia.PatriciaTrie` -- the dynamic, pointer-based
  Patricia trie of the paper's Appendix B.
"""

from repro.tries.binarize import (
    BytesCodec,
    FixedWidthIntCodec,
    StringCodec,
    Utf8Codec,
    default_codec,
)
from repro.tries.patricia import PatriciaTrie

__all__ = [
    "BytesCodec",
    "FixedWidthIntCodec",
    "PatriciaTrie",
    "StringCodec",
    "Utf8Codec",
    "default_codec",
]
