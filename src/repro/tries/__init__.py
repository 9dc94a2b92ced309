"""String binarisation for the Wavelet Trie.

The Wavelet Trie is a Wavelet Tree shaped like the Patricia trie of the
distinct binarised strings.  :mod:`repro.tries.binarize` provides the codecs
mapping application values (``str``, ``bytes``, ``int``) to the prefix-free
binary strings (:class:`~repro.bits.bitstring.Bits`) the data structure
operates on.  The Patricia trie itself is the shape of every Wavelet Trie
variant in :mod:`repro.core` (the static builder reads it off the sorted
distinct codes; the growable tries split and merge it, Appendix B), and
:func:`repro.analysis.compute_bounds` measures it without building a trie.
"""

from repro.tries.binarize import (
    BytesCodec,
    FixedWidthIntCodec,
    StringCodec,
    Utf8Codec,
    default_codec,
)

__all__ = [
    "BytesCodec",
    "FixedWidthIntCodec",
    "StringCodec",
    "Utf8Codec",
    "default_codec",
]
