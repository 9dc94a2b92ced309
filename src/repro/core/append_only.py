"""The append-only Wavelet Trie (paper Section 4, Theorem 4.3).

Elements can only be added at the end of the sequence -- the query-log /
access-log scenario of the paper's introduction.  Internal nodes store the
append-only compressed bitvectors of Section 4.1, whose ``Init`` is a simple
left offset, so appending a string ``s`` (even a previously unseen one) costs
``O(|s| + h_s)``: one Patricia-trie descent plus one ``Append`` per node of
the path.

Queries are identical to the static variant and cost ``O(|s| + h_s)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.bits.bitstring import Bits
from repro.bitvector.append_only import AppendOnlyBitVector
from repro.core.base import WaveletTrieBase
from repro.core.growable import GrowableTopologyMixin
from repro.exceptions import InvalidOperationError, OutOfBoundsError
from repro.tries.binarize import StringCodec

__all__ = ["AppendOnlyWaveletTrie"]


class AppendOnlyWaveletTrie(GrowableTopologyMixin, WaveletTrieBase):
    """Compressed indexed sequence supporting ``append`` of arbitrary new strings.

    Parameters
    ----------
    values:
        Optional initial elements, appended one by one.
    codec:
        Binarisation codec (UTF-8 + NUL by default).
    block_size:
        Tail-buffer size of the node bitvectors (the paper's ``L`` parameter);
        larger blocks compress better, smaller blocks freeze more often.

    Examples
    --------
    >>> log = AppendOnlyWaveletTrie()
    >>> for url in ["/home", "/cart", "/home", "/pay"]:
    ...     log.append(url)
    >>> log.rank("/home", 4)
    2
    >>> log.rank_prefix("/", 4)
    4
    """

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        block_size: int = 1024,
    ) -> None:
        super().__init__(codec)
        if block_size < 64:
            raise ValueError("block_size must be at least 64 bits")
        self._block_size = block_size
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    def _new_constant_bitvector(self, bit: int, length: int) -> AppendOnlyBitVector:
        return AppendOnlyBitVector.init_run(bit, length, block_size=self._block_size)

    def _bitvector_from_bits(self, bits: Bits) -> AppendOnlyBitVector:
        """A node bitvector holding ``bits`` (how a thawed node is rebuilt)."""
        return AppendOnlyBitVector(bits, block_size=self._block_size)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Append ``value`` at the end of the sequence (paper Append).

        Cost ``O(|s| + h_s)``: a trie descent plus one bitvector ``Append``
        per internal node of the path; a previously unseen value additionally
        splits one node using ``Init``.
        """
        key = self._codec.to_bits(value)
        self._ensure_key(key)
        for node, bit in self._walk_for_update(key):
            node.bitvector.append(bit)
        self._size += 1

    def extend(self, values: Iterable[Any]) -> None:
        """Append every element of ``values`` in order (bulk paper Append).

        Batch-amortised: at most one trie descent per distinct value per
        topology epoch, none for a value the trie's path cache routes, with
        per-node bits buffered and flushed through the append-only
        bitvectors' word-level ``extend`` (blocks freeze from packed
        payloads, not single-bit shifts).  All or nothing: a value the codec
        rejects raises before any row lands.
        """
        self._extend_batched(values)

    def insert(self, value: Any, pos: int) -> None:
        """Only insertion at the end is supported; anywhere else raises."""
        if pos != self._size:
            raise InvalidOperationError(
                "AppendOnlyWaveletTrie only supports insertion at the end; "
                "use DynamicWaveletTrie for arbitrary positions"
            )
        self.append(value)

    def insert_many(self, values: Iterable[Any], pos: int) -> None:
        """Bulk insert, end-only: ``pos`` must equal the current length.

        Delegates to the batch-amortised :meth:`extend`; any other position
        raises, exactly like scalar :meth:`insert`.
        """
        if pos != self._size:
            raise InvalidOperationError(
                "AppendOnlyWaveletTrie only supports insertion at the end; "
                "use DynamicWaveletTrie for arbitrary positions"
            )
        self.extend(values)

    def delete(self, pos: int) -> Any:
        raise InvalidOperationError(
            "AppendOnlyWaveletTrie does not support delete; use DynamicWaveletTrie"
        )

    def delete_many(self, positions) -> Any:
        """Deletion is unsupported (batched or not); raises like :meth:`delete`.

        Overridden so the batch path rejects immediately (no amortised path
        exists) instead of validating positions first.
        """
        raise InvalidOperationError(
            "AppendOnlyWaveletTrie does not support delete; use DynamicWaveletTrie"
        )
