"""Probabilistically balanced dynamic Wavelet Trees (paper Section 6).

For numeric (or otherwise bounded-universe) data the Wavelet Trie on the raw
binary representation could be as deep as ``log u`` even when only a few
distinct values occur.  Section 6 fixes this with the multiplicative hashing
of Dietzfelbinger et al.: values are permuted by ``h_a(x) = a x mod 2^ceil(log u)``
for a random odd ``a`` and stored in a dynamic Wavelet Trie; with probability
``1 - |Sigma|^-alpha`` the first ``(alpha + 2) log |Sigma|`` bits of the hash
already distinguish every value in the working alphabet, so the trie is
balanced regardless of the universe size (Theorem 6.2).

Bit-order note.  The Dietzfelbinger-style guarantee is the multiply-shift one:
it is the *high-order* bits of ``a x mod 2^w`` that are pairwise distinct with
high probability for **any** working alphabet (the low-order bits are not --
e.g. an alphabet of powers of two keeps its trailing-zero structure under
multiplication by an odd constant).  The trie therefore consumes the hash from
the most significant bit downwards, so the distinguishing bits sit at the top
of the trie and the height bound of Theorem 6.2 holds even for such
pathological alphabets; this is the robust reading of the paper's LSB-to-MSB
phrasing, checked by ``test_pathological_alphabet_stays_balanced`` in
``tests/wavelet/test_dynamic_and_balanced.py``.

:class:`BalancedDynamicWaveletTree` packages the scheme: it exposes the
standard ``access``/``rank``/``select``/``insert``/``delete``/``append`` on
integer values in ``[0, universe)``, and reports the observed trie height so
the same tests can check the theorem's bound.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional

from repro.core.dynamic import DynamicWaveletTrie
from repro.exceptions import OutOfBoundsError
from repro.tries.binarize import FixedWidthIntCodec

__all__ = ["BalancedDynamicWaveletTree"]


class BalancedDynamicWaveletTree:
    """Dynamic Wavelet Tree on ``[0, universe)`` balanced via multiplicative hashing."""

    def __init__(
        self,
        universe: int,
        values: Iterable[int] = (),
        seed: int = 2024,
    ) -> None:
        if universe < 2:
            raise ValueError("universe must be at least 2")
        self._universe = universe
        self._width = max(1, (universe - 1).bit_length())
        rng = random.Random(seed)
        # A random odd multiplier in [1, 2^width); odd => invertible mod 2^width.
        self._multiplier = rng.randrange(1, 1 << self._width, 2)
        self._inverse = pow(self._multiplier, -1, 1 << self._width)
        # MSB-first: the multiply-shift collision guarantee applies to the
        # high-order bits of the hash, so those must be the first trie levels.
        self._codec = FixedWidthIntCodec(self._width, lsb_first=False)
        self._trie = DynamicWaveletTrie(codec=self._codec, seed=seed)
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """Exclusive upper bound of the stored values."""
        return self._universe

    @property
    def multiplier(self) -> int:
        """The random odd multiplier ``a`` of the hash ``h_a``."""
        return self._multiplier

    def _hash(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"expected int, got {type(value).__name__}")
        if not 0 <= value < self._universe:
            raise OutOfBoundsError(
                f"value {value} outside universe [0, {self._universe})"
            )
        return (value * self._multiplier) % (1 << self._width)

    def _unhash(self, hashed: int) -> int:
        return (hashed * self._inverse) % (1 << self._width)

    # ------------------------------------------------------------------
    # Sequence interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._trie)

    def access(self, pos: int) -> int:
        """The value at position ``pos``."""
        return self._unhash(self._trie.access(pos))

    def rank(self, value: int, pos: int) -> int:
        """Occurrences of ``value`` in positions ``[0, pos)``."""
        return self._trie.rank(self._hash(value), pos)

    def select(self, value: int, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``value``."""
        return self._trie.select(self._hash(value), idx)

    def count(self, value: int) -> int:
        """Total occurrences of ``value``."""
        return self.rank(value, len(self))

    def insert(self, value: int, pos: int) -> None:
        """Insert ``value`` immediately before position ``pos``."""
        self._trie.insert(self._hash(value), pos)

    def append(self, value: int) -> None:
        """Append ``value`` at the end."""
        self._trie.append(self._hash(value))

    def delete(self, pos: int) -> int:
        """Delete and return the value at position ``pos``."""
        return self._unhash(self._trie.delete(pos))

    def __iter__(self) -> Iterator[int]:
        for pos in range(len(self)):
            yield self.access(pos)

    def to_list(self) -> List[int]:
        """Materialise the stored sequence."""
        return list(self)

    def distinct_count(self) -> int:
        """Number of distinct stored values (the working alphabet size)."""
        return self._trie.distinct_count()

    # ------------------------------------------------------------------
    # Balance diagnostics (Theorem 6.2)
    # ------------------------------------------------------------------
    def max_height(self) -> int:
        """Maximum number of internal nodes on any root-to-leaf path."""
        best = 0
        if self._trie.root is None:
            return 0
        stack = [(self._trie.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                best = max(best, depth)
                continue
            for child in node.children:
                if child is not None:
                    stack.append((child, depth + 1))
        return best

    def average_height(self) -> float:
        """Average height over the sequence (Definition 3.4 on the hashed trie)."""
        return self._trie.average_height()

    def theoretical_height_bound(self, alpha: float = 1.0) -> float:
        """``(alpha + 2) log2 |Sigma|``: the Theorem 6.2 high-probability bound."""
        import math

        distinct = max(2, self.distinct_count())
        return (alpha + 2) * math.log2(distinct)

    def size_in_bits(self) -> int:
        """Measured size of the underlying Wavelet Trie."""
        return self._trie.size_in_bits()
