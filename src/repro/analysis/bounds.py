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

:func:`compute_bounds` evaluates all of them for a concrete sequence.  It
reads the Patricia trie's shape off the sorted distinct codes, with no trie
object, so the bound stays an oracle independent of every trie it checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.entropy import binomial_lower_bound, empirical_entropy
from repro.core.builder import distinct_codes, sort_codes
from repro.tries.binarize import StringCodec, default_codec

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

    Raises :class:`~repro.exceptions.BinarizationError` if the codec's
    codes are not prefix-free.
    """
    codec = codec or default_codec()
    codes, rows = distinct_codes(values, codec.to_bits)
    n = len(rows)
    m = len(codes)
    count_of = Counter(rows)
    order = sort_codes(codes)
    ordered = [codes[index] for index in order]
    # Codes j and j + 1 branch apart at one internal node each, the node
    # whose branch bit is bit lcps[j] of both.
    lcps = [left.lcp_length(right) for left, right in zip(ordered, ordered[1:])]

    # The first-child/next-sibling transformation in the paper makes the node
    # count |Sset|; the edge count of the binary Patricia trie is 2(|Sset|-1).
    edges = 2 * (m - 1) if m else 0
    # A code is its path's labels plus one branch bit per internal node on
    # it.  Summing over codes counts each internal node's bits above its
    # branch (lcps[j] of them, label included) once per child, so
    # |L| = sum |c| - sum lcps - e.
    label_bits = sum(len(code) for code in codes) - sum(lcps) - edges
    lt_bits = (
        label_bits + edges + binomial_lower_bound(edges, label_bits + edges)
        if n
        else 0.0
    )

    entropy_per_symbol = empirical_entropy(rows)
    entropy_bits = n * entropy_per_symbol

    # h_s counts the internal nodes above code j: the strict running minima
    # of the adjacent LCPs to its right and to its left.
    right = _running_minima(lcps)
    left = _running_minima(lcps[::-1])[::-1]
    total_height = sum(
        (right_count + left_count) * count_of[index]
        for index, right_count, left_count in zip(order, right + [0], [0] + left)
    )
    average_height = total_height / n if n else 0.0

    pt_bits = m * _WORDS_PER_TRIE_NODE * word_bits * 2 - (
        _WORDS_PER_TRIE_NODE * word_bits if m else 0
    )
    # (2|Sset| - 1 nodes, each charged _WORDS_PER_TRIE_NODE words.)

    return SequenceBounds(
        length=n,
        distinct=m,
        total_input_bits=sum(len(codes[code]) for code in rows),
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


def _running_minima(lcps: Sequence[int]) -> List[int]:
    """``out[i]``: how many strict running minima ``lcps[i:]`` has.

    One next-smaller-value stack pass: ``out[i]`` is one more than
    ``out[j]`` for the first ``j > i`` with ``lcps[j] < lcps[i]``.
    """
    out = [0] * len(lcps)
    stack: List[int] = []
    for index in range(len(lcps) - 1, -1, -1):
        while stack and lcps[stack[-1]] >= lcps[index]:
            stack.pop()
        out[index] = 1 + (out[stack[-1]] if stack else 0)
        stack.append(index)
    return out
