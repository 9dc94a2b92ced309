"""Information-theoretic bounds for an indexed sequence of strings.

For a sequence ``S`` with distinct-string set ``Sset`` the paper defines
(Section 3, Theorems 3.6/3.7 and Table 1):

* ``LT(Sset) = |L| + e + B(e, |L| + e)`` -- lower bound for storing the
  string set, where ``L`` is the concatenation of the Patricia trie labels
  and ``e`` the number of trie edges;
* ``nH0(S)`` -- zero-order entropy of the sequence seen over the alphabet
  ``Sset``;
* ``LB(S) = LT(Sset) + nH0(S)`` -- the lower bound for the whole problem;
* ``PT(Sset) = O(|Sset| w)`` -- pointer overhead of the dynamic Patricia trie;
* ``h̃`` -- the average height (Definition 3.4), which controls the
  redundancy term ``o(h̃ n)``.

:func:`compute_bounds` evaluates all of them for a concrete sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.entropy import binomial_lower_bound, empirical_entropy
from repro.bits.bitstring import Bits
from repro.tries.binarize import StringCodec, default_codec
from repro.tries.patricia import PatriciaTrie

__all__ = ["SequenceBounds", "compute_bounds"]

_WORDS_PER_TRIE_NODE = 4  # label pointer, label length, two child pointers


@dataclass(frozen=True)
class SequenceBounds:
    """All the quantities appearing in the space column of Table 1 (in bits)."""

    length: int
    """Number of strings in the sequence (n)."""

    distinct: int
    """Number of distinct strings (|Sset|)."""

    total_input_bits: int
    """Sum of the binarised lengths of all sequence elements."""

    label_bits: int
    """|L|: total Patricia-trie label length."""

    edges: int
    """e = 2(|Sset| - 1): Patricia-trie edge count."""

    lt_bits: float
    """LT(Sset) = |L| + e + B(e, |L| + e)."""

    entropy_per_symbol: float
    """H0(S), in bits per element, over the alphabet Sset."""

    entropy_bits: float
    """n * H0(S)."""

    lb_bits: float
    """LB(S) = LT + n H0."""

    pt_bits: int
    """PT(Sset): dynamic Patricia trie pointer overhead (|Sset| nodes * O(w))."""

    average_height: float
    """h̃ (Definition 3.4): mean number of internal nodes per element path."""

    total_height_bits: float
    """h̃ * n: the total length of all node bitvectors."""

    def as_dict(self) -> Dict[str, float]:
        """Render as a flat dictionary (``bounds`` in ``info --bounds --json``)."""
        return {
            "n": self.length,
            "distinct": self.distinct,
            "input_bits": self.total_input_bits,
            "L_bits": self.label_bits,
            "edges": self.edges,
            "LT_bits": self.lt_bits,
            "H0_per_symbol": self.entropy_per_symbol,
            "nH0_bits": self.entropy_bits,
            "LB_bits": self.lb_bits,
            "PT_bits": self.pt_bits,
            "avg_height": self.average_height,
            "hn_bits": self.total_height_bits,
        }


def compute_bounds(
    values: Sequence,
    codec: Optional[StringCodec] = None,
    word_bits: int = 64,
) -> SequenceBounds:
    """Compute every Table 1 space quantity for a concrete sequence of values.

    Parameters
    ----------
    values:
        The sequence of application-level values (strings by default).
    codec:
        Binarisation codec; defaults to UTF-8 with a NUL terminator.
    word_bits:
        Machine word size ``w`` used for the ``PT`` pointer charge.
    """
    codec = codec or default_codec()
    encoded: List[Bits] = [codec.to_bits(value) for value in values]
    n = len(encoded)
    distinct_keys = {bits for bits in encoded}
    trie = PatriciaTrie(distinct_keys)

    label_bits = trie.label_bits()
    # The first-child/next-sibling transformation in the paper makes the node
    # count |Sset|; the edge count of the binary Patricia trie is 2(|Sset|-1).
    edges = trie.edge_count()
    lt_bits = (
        label_bits + edges + binomial_lower_bound(edges, label_bits + edges)
        if n
        else 0.0
    )

    entropy_per_symbol = empirical_entropy(encoded)
    entropy_bits = n * entropy_per_symbol

    heights = [trie.height_of(bits) for bits in encoded]
    average_height = sum(heights) / n if n else 0.0

    pt_bits = len(distinct_keys) * _WORDS_PER_TRIE_NODE * word_bits * 2 - (
        _WORDS_PER_TRIE_NODE * word_bits if distinct_keys else 0
    )
    # (2|Sset| - 1 nodes, each charged _WORDS_PER_TRIE_NODE words.)

    return SequenceBounds(
        length=n,
        distinct=len(distinct_keys),
        total_input_bits=sum(len(bits) for bits in encoded),
        label_bits=label_bits,
        edges=edges,
        lt_bits=lt_bits,
        entropy_per_symbol=entropy_per_symbol,
        entropy_bits=entropy_bits,
        lb_bits=lt_bits + entropy_bits,
        pt_bits=pt_bits,
        average_height=average_height,
        total_height_bits=average_height * n,
    )
