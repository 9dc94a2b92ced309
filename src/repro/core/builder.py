"""Bulk construction of a static Wavelet Trie (Definition 3.1).

By Definition 3.1 the trie's shape is the Patricia trie of the distinct
binarised values, and each node's bitvector is the stable split of its
subsequence by the bit after its label.  So the builder binarises every
distinct value once (:func:`distinct_codes`), sorts the distinct codes and
replaces every row by the rank of its code in that order.  A node is then a
contiguous rank range ``[lo, hi)``:

* its label is the longest common prefix of the range's first and last
  codes, minus the bits consumed above it;
* its branch bit is ``rank >= split``, where ``split`` is the first rank
  whose bit after the label is 1 (a binary search);
* its bitvector and the two children's rank arrays come from one
  ``kernel.partition_by_pivot`` call, the wavelet-tree build of Grossi,
  Gupta & Vitter, vectorised under the numpy backend.

The nodes are made in preorder (0-child first), and their branch bits are
concatenated in that order into one static bitvector, built by one
``from_words`` call; each internal node holds a
:class:`~repro.bitvector.window.BitvectorWindow` onto it (Theorem 3.7's
concatenated node bitvectors).

The work stack is explicit, so deep tries -- long URLs produce paths
hundreds of bits deep -- never hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.window import windows_over
from repro.core.node import WaveletTrieNode
from repro.exceptions import BinarizationError

__all__ = ["build_wavelet_trie_nodes", "distinct_codes", "sort_codes"]


def distinct_codes(
    values: Iterable[Any], encode: Callable[[Any], Bits]
) -> Tuple[List[Bits], List[int]]:
    """Binarise ``values`` once per distinct value.

    Returns ``(codes, rows)``: the distinct binarised values in order of
    first occurrence, and each row's index into ``codes``.  Rows are keyed
    by ``(type(value), value)``, so values that compare equal across types
    (``1``, ``True`` and ``1.0``) are each passed to ``encode`` and keep
    its type checks; keys whose encodings are equal then share one code.
    Unhashable values (a ``bytearray``) are encoded once per row.
    """
    code_of_key: Dict[tuple, int] = {}
    code_of_bits: Dict[Bits, int] = {}
    rows: List[int] = []
    for value in values:
        key = (type(value), value)
        try:
            code = code_of_key.get(key)
        except TypeError:  # unhashable: no key, encode this row
            key = code = None
        if code is None:
            code = code_of_bits.setdefault(encode(value), len(code_of_bits))
            if key is not None:
                code_of_key[key] = code
        rows.append(code)
    return list(code_of_bits), rows


def _sort_key(bits: Bits) -> Tuple[bytes, int]:
    """A key whose order is the lexicographic order of bit-strings.

    The bits are zero-padded to whole bytes; the padding can only tie a
    value with one it is a prefix of, and the length puts the prefix first.
    """
    pad = -len(bits) % 8
    return (bits.value << pad).to_bytes((len(bits) + pad) // 8, "big"), len(bits)


def sort_codes(codes: Sequence[Bits]) -> List[int]:
    """The indexes of ``codes`` in the lexicographic order of bit-strings.

    Raises :class:`BinarizationError` if the codes are not prefix-free
    (which the codecs guarantee by construction).
    """
    order = sorted(range(len(codes)), key=lambda index: _sort_key(codes[index]))
    # A proper prefix sorts immediately before a value that extends it, so
    # checking adjacent pairs checks the whole set.
    for shorter, longer in zip(order, order[1:]):
        if codes[longer].startswith(codes[shorter]):
            raise BinarizationError("the binarised string set is not prefix-free")
    return order


def build_wavelet_trie_nodes(
    codes: Sequence[Bits], rows: Sequence[int], bitvector_factory
) -> Tuple[Optional[WaveletTrieNode], Any]:
    """Build the node tree of ``WT(S)`` from distinct codes and row indexes.

    ``codes`` are the distinct binarised values and ``rows[i]`` the index
    of row ``i``'s code, as :func:`distinct_codes` returns them.  Returns
    ``(root, shared)``: ``shared`` is the one bitvector that
    ``bitvector_factory.from_words(words, length)`` builds over every
    internal node's branch bits in preorder, and each internal node's
    bitvector is its window onto it.

    Raises :class:`BinarizationError` if the codes are not prefix-free
    (:func:`sort_codes`).
    """
    concatenated = BitBuffer()
    internal: List[WaveletTrieNode] = []
    lengths: List[int] = []
    ones_of: List[int] = []
    root: Optional[WaveletTrieNode] = None
    if rows:
        order = sort_codes(codes)
        ordered = [codes[index] for index in order]
        rank_of = [0] * len(codes)
        for rank, index in enumerate(order):
            rank_of[index] = rank
        symbols = kernel.prepare_symbols([rank_of[code] for code in rows])
        # Work items: (rank range, bits consumed above, the range's rows as
        # ranks, parent node, branching bit under the parent).
        stack: List[tuple] = [(0, len(ordered), 0, symbols, None, 0)]
        while stack:
            lo, hi, depth, symbols, parent, parent_bit = stack.pop()
            first = ordered[lo]
            if hi - lo == 1:
                node = WaveletTrieNode(label=first.suffix_from(depth))
            else:
                lcp = first.lcp_length(ordered[hi - 1])
                # The bit at ``lcp`` is 0 on ``first`` and 1 on the last
                # value, and sorted order makes it monotone in between.
                split, upper = lo + 1, hi - 1
                while split < upper:
                    middle = (split + upper) // 2
                    if ordered[middle][lcp]:
                        upper = middle
                    else:
                        split = middle + 1
                words, length, zeros, ones = kernel.partition_by_pivot(symbols, split)
                node = WaveletTrieNode(label=first.slice(depth, lcp))
                concatenated.append_words(words, length)
                internal.append(node)
                lengths.append(length)
                ones_of.append(len(ones))
                stack.append((split, hi, lcp + 1, ones, node, 1))
                stack.append((lo, split, lcp + 1, zeros, node, 0))
            if parent is None:
                root = node
            else:
                parent.attach(parent_bit, node)
    shared = bitvector_factory.from_words(concatenated.words(), len(concatenated))
    for node, window in zip(internal, windows_over(shared, lengths, ones_of)):
        node.bitvector = window
    return root, shared
