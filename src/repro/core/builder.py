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

The nodes are made in preorder (0-child first), and the builder emits
Theorem 3.7's components in that order (:class:`StaticTrieLayout`): the
internal flags, the labels concatenated, and every internal node's branch
bits concatenated into one static bitvector, built by one ``from_words``
call, whose windows the node lengths delimit.  No node object is made.

The work stack is explicit, so deep tries -- long URLs produce paths
hundreds of bits deep -- never hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.exceptions import BinarizationError

__all__ = ["StaticTrieLayout", "build_static_trie", "distinct_codes", "sort_codes"]


class StaticTrieLayout(NamedTuple):
    """A static Wavelet Trie as Theorem 3.7's components.

    Every list is in preorder, 0-child first: the builder and
    :class:`~repro.core.tiers.TrieFreezer` make one, and
    :class:`~repro.core.static.WaveletTrie` stores it.
    """

    flags: List[int]
    """Per node: 1 when internal, 0 for a leaf."""
    labels: BitBuffer
    """Every node's label, concatenated."""
    label_lengths: List[int]
    """Per node: its label's length."""
    vector: Any
    """Every internal node's bits, concatenated into one static bitvector."""
    lengths: List[int]
    """Per internal node: its window's length (the rows that reach it)."""
    ones: List[int]
    """Per internal node: the ones in its window."""


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
    append = rows.append
    for value in values:
        try:  # a repeated key: one lookup (most rows)
            append(code_of_key[type(value), value])
            continue
        except KeyError:
            key = (type(value), value)
        except TypeError:  # unhashable: no key, encode this row
            key = None
        code = code_of_bits.setdefault(encode(value), len(code_of_bits))
        if key is not None:
            code_of_key[key] = code
        append(code)
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


def build_static_trie(
    codes: Sequence[Bits], rows: Sequence[int], bitvector_factory
) -> StaticTrieLayout:
    """Build the components of ``WT(S)`` from distinct codes and row indexes.

    ``codes`` are the distinct binarised values and ``rows[i]`` the index
    of row ``i``'s code, as :func:`distinct_codes` returns them.  The
    layout's vector is the one bitvector that
    ``bitvector_factory.from_words(words, length)`` builds over every
    internal node's branch bits in preorder.

    Raises :class:`BinarizationError` if the codes are not prefix-free
    (:func:`sort_codes`).
    """
    concatenated = BitBuffer()
    labels = BitBuffer()
    flags: List[int] = []
    label_lengths: List[int] = []
    lengths: List[int] = []
    ones_of: List[int] = []
    if rows:
        order = sort_codes(codes)
        ordered = [codes[index] for index in order]
        rank_of = [0] * len(codes)
        for rank, index in enumerate(order):
            rank_of[index] = rank
        symbols = kernel.prepare_symbols([rank_of[code] for code in rows])
        # Work items: (rank range, bits consumed above, the range's rows as
        # ranks).  Popping the 0-child first lays the nodes out in preorder.
        stack: List[tuple] = [(0, len(ordered), 0, symbols)]
        while stack:
            lo, hi, depth, symbols = stack.pop()
            first = ordered[lo]
            if hi - lo == 1:
                label = first.suffix_from(depth)
                flags.append(0)
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
                label = first.slice(depth, lcp)
                flags.append(1)
                concatenated.append_words(words, length)
                lengths.append(length)
                ones_of.append(len(ones))
                stack.append((split, hi, lcp + 1, ones))
                stack.append((lo, split, lcp + 1, zeros))
            labels.append_bits(label)
            label_lengths.append(len(label))
    vector = bitvector_factory.from_words(concatenated.words(), len(concatenated))
    return StaticTrieLayout(flags, labels, label_lengths, vector, lengths, ones_of)
