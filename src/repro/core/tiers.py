"""The tier lifecycle: one home for every trie flavour's freeze machinery.

The paper ships the Wavelet Trie in three flavours -- static (Theorem 3.7),
append-only (Theorem 4.3) and fully dynamic (Theorem 4.4) -- and a serving
system needs all three *at once*: a small mutable tier absorbing writes in
front of immutable compressed tiers, LSM-style.  This module holds the one
freeze path between flavours:

``TrieFreezer`` / ``freeze_trie`` / ``thaw``
    The dynamic/append-only -> static RRR transition and back.
    ``TrieFreezer`` de-amortises the freeze with the same budgeted pattern
    as :class:`~repro.bitvector.rrr.IncrementalRRRBuilder` (Lemma 4.7):
    each :meth:`~TrieFreezer.step` call performs a bounded number of
    block-sized units of extraction/encoding work, so a caller can spread a
    whole-trie freeze over many writes with no stop-the-world pass.
    ``freeze_trie`` is the one-shot form, and ``thaw`` rebuilds a growable
    trie node for node from its frozen snapshot; :mod:`repro.storage`
    writes a growable trie as its snapshot and thaws it on open.

``TieredWaveletTrie``
    The LSM composition built on top: one mutable dynamic tail tier plus an
    ordered list of immutable static RRR tiers.  Writes land in the tail;
    when it reaches ``active_capacity`` it is sealed and a ``TrieFreezer``
    drains it incrementally (``compact_budget`` units per subsequent write).
    Every read touches the node bitvectors of only the tier that owns its
    position.  A tier's total for a key is its topology count -- the leaf's
    (or prefix node's) subsequence length, O(|s|) label work and one O(1)
    bitvector ``count``, no Rank -- so ``rank(v, p)`` is the totals of the
    tiers before ``p`` plus one rank inside the tier holding ``p``, and
    ``select`` binary-searches the cumulative totals for the owning tier.
    The ``*_many`` variants route each item the same way and run one batch
    walk per owning tier.  The logical sequence is the concatenation of the
    tiers, so positions at or past :attr:`~TieredWaveletTrie.mutable_start`
    are insert/delete-able and older positions are immutable until an
    explicit :meth:`~TieredWaveletTrie.compact`.  Frozen tiers are merged
    only by ``compact(merge=True)``: the budgeted path adds one tier per
    seal.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bitvector.base import normalize_batch, validate_select_indexes
from repro.bitvector.rrr import _DEFAULT_BLOCK, IncrementalRRRBuilder
from repro.core.builder import StaticTrieLayout
from repro.core.dynamic import _SEED_MULTIPLIER, DynamicWaveletTrie
from repro.core.interface import (
    IndexedStringSequence,
    check_select_index,
    check_select_prefix_index,
    check_top_k,
    validate_delete_positions,
    validate_select_prefix_indexes,
)
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie
from repro.exceptions import (
    InvalidOperationError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.tries.binarize import StringCodec, default_codec

__all__ = ["TieredWaveletTrie", "TrieFreezer", "freeze_trie", "thaw"]

# One extraction unit: 4096 bits = exactly 64 packed words, so consecutive
# full chunks concatenate on word boundaries.
_EXTRACT_CHUNK_BITS = 64 * 64


# ----------------------------------------------------------------------
# Budgeted freezing: growable trie -> static RRR trie
# ----------------------------------------------------------------------
class TrieFreezer:
    """De-amortised snapshot of a growable trie into a static RRR trie.

    Reads the Patricia topology's flags and labels up front (O(nodes), no
    payload work), then per internal node, in preorder, runs two budgeted
    phases: *extraction* appends the live bitvector's content to one
    concatenated packed buffer in word-aligned chunks, and *encoding*
    advances one :class:`~repro.bitvector.rrr.IncrementalRRRBuilder` over
    that buffer, which encodes only the blocks the buffer already holds
    whole.  One unit of budget is one RRR block (``block_size`` bits) of
    either phase, and a node is charged the blocks of its own bits, so
    :meth:`step`'s worst-case cost is O(budget) blocks regardless of trie
    size -- the Lemma 4.7 de-amortisation applied to a whole trie.  The
    frozen trie holds the same components the static builder emits
    (:class:`~repro.core.builder.StaticTrieLayout`).

    The source trie must not change length while a freeze is in flight;
    :meth:`step` raises :class:`~repro.exceptions.InvalidOperationError` if
    it does (an equal-length mutation is undetected -- callers own the
    sealing discipline, as :class:`TieredWaveletTrie` does).

    The result is structurally identical to the static builder's over the
    same content: both encode RRR's default blocks and samples, and classes
    and offsets are deterministic functions of the payload.
    """

    def __init__(self, trie) -> None:
        self._source = trie
        self._expected_size = len(trie)

        # The topology's components, read off in preorder (0-child first:
        # the shared vector's order) with no payload work.
        self._flags: List[int] = []
        self._labels = BitBuffer()
        self._label_lengths: List[int] = []
        sources: List[WaveletTrieNode] = []
        stack = [trie.root] if trie.root is not None else []
        while stack:
            node = stack.pop()
            self._labels.append_bits(node.label)
            self._label_lengths.append(len(node.label))
            self._flags.append(0 if node.is_leaf else 1)
            if not node.is_leaf:
                sources.append(node)
                stack.append(node.children[1])
                stack.append(node.children[0])
        self._sources = sources
        self._lengths = [len(source.bitvector) for source in sources]
        self._ones: List[int] = []  # per extracted node
        self._index = 0
        # The node at self._index: its extraction cursor, then the block
        # units its encoding phase has left (None while extracting).
        self._extract_cursor = 0
        self._encode_due: Optional[int] = None
        self._buffer = BitBuffer()
        self._builder = IncrementalRRRBuilder(
            self._buffer.full_words,  # grows as nodes are extracted
            sum(self._lengths),
        )
        self._frozen: Optional[WaveletTrie] = None
        if not sources:
            self._install()

    @property
    def done(self) -> bool:
        """True once the shared node bitvector has been encoded."""
        return self._frozen is not None

    @property
    def pending_bits(self) -> int:
        """Payload bits still to extract or encode (a progress gauge)."""
        if self.done:
            return 0
        total = self._builder.length
        return (total - len(self._buffer)) + self._builder.pending_bits

    def _check_source(self) -> None:
        if len(self._source) != self._expected_size:
            raise InvalidOperationError(
                "trie mutated while a freeze was in flight: length "
                f"{len(self._source)} != sealed length {self._expected_size}"
            )

    def _install(self) -> None:
        """Finish the shared vector and hand the components to the trie."""
        layout = StaticTrieLayout(
            self._flags, self._labels, self._label_lengths,
            self._builder.finish(), self._lengths, self._ones,
        )
        self._frozen = WaveletTrie.from_layout(
            layout, self._expected_size, self._source.codec
        )

    def _extract(self) -> int:
        """One chunk of the current node's bits into the buffer; returns the
        block units it cost."""
        source = self._sources[self._index].bitvector
        length = self._lengths[self._index]
        start = self._extract_cursor
        stop = min(start + _EXTRACT_CHUNK_BITS, length)
        width = stop - start
        if not start:
            self._ones.append(0)
        if width:
            value = 0
            iter_runs = getattr(source, "iter_runs", None)
            if iter_runs is not None:
                # Run-aware fast path (DynamicBitVector): O(runs) big-int
                # splicing instead of a per-bit python loop.
                for bit, run in iter_runs(start, stop):
                    value <<= run
                    if bit:
                        value |= (1 << run) - 1
            else:
                value = Bits.from_iterable(source.iter_range(start, stop)).value
            self._buffer.append_int(value, width)
            self._ones[-1] += value.bit_count()
        self._extract_cursor = stop
        if stop >= length:
            self._encode_due = -(-length // _DEFAULT_BLOCK)
            if self._index == len(self._sources) - 1:
                # The payload is complete: hand the builder its final words.
                self._builder.words = self._buffer.words()
        return max(1, width // _DEFAULT_BLOCK)

    def step(self, budget: int = 64) -> int:
        """Perform up to ``budget`` block-sized units of freeze work.

        Returns the units actually done (0 once :attr:`done`).  Each unit is
        one RRR block of extraction or encoding, so a call costs O(budget)
        independent of the trie size.
        """
        if budget < 1:
            raise ValueError("freeze budget must be a positive block count")
        self._check_source()
        done = 0
        while done < budget and not self.done:
            if self._encode_due is None:
                done += self._extract()
            elif self._index < len(self._sources) - 1:
                # Charge the node its own blocks; encode those the buffer
                # already holds whole.
                units = min(budget - done, self._encode_due)
                self._builder.encode_blocks(units, 64 * len(self._buffer.full_words))
                done += units
                self._encode_due -= units
                if not self._encode_due:
                    self._index += 1
                    self._extract_cursor = 0
                    self._encode_due = None
            else:
                # The last node's bits close the payload: encode the rest
                # (at least the block holding its last bit).
                done += self._builder.encode_blocks(budget - done)
                if self._builder.done:
                    self._install()
        return done

    def finish(self) -> WaveletTrie:
        """Drain all remaining work and return the frozen static trie."""
        while not self.done:
            self.step(1024)
        return self._frozen


def freeze_trie(trie) -> Any:
    """The frozen snapshot of a trie tier (the one-shot freeze).

    Static tries pass through unchanged; growable tries (dynamic,
    append-only) are encoded by a :class:`TrieFreezer` into a static RRR
    trie.  A :class:`TieredWaveletTrie` is not one tier: its
    :meth:`~TieredWaveletTrie.compact` freezes it in place.
    """
    if isinstance(trie, WaveletTrie):
        return trie
    if hasattr(trie, "root") and hasattr(trie, "codec"):
        return TrieFreezer(trie).finish()
    raise InvalidOperationError(
        f"cannot freeze {type(trie).__name__}: not a Wavelet Trie tier"
    )


def thaw(frozen: WaveletTrie, flavour, **params):
    """Rebuild a growable trie node for node from its frozen snapshot.

    ``flavour`` is :class:`~repro.core.append_only.AppendOnlyWaveletTrie`
    or :class:`~repro.core.dynamic.DynamicWaveletTrie` and ``params`` its
    constructor parameters (``block_size``; ``seed``).  The snapshot's
    shared node bitvector (RRR or plain) is decoded once with ``to_words``;
    each internal node then gets the flavour's bitvector over its window's
    bits, in preorder, and the topology is cloned as it is -- the inverse
    of :func:`freeze_trie`.
    """
    trie = flavour(codec=frozen.codec, **params)
    trie._size = len(frozen)
    root = frozen.root
    if root is None:
        return trie
    words = frozen.node_bitvector.to_words()
    stack = [(root, None, 0)]
    while stack:  # preorder, 0-child first, as the windows were laid out
        original, parent, bit = stack.pop()
        if original.is_leaf:
            copy = WaveletTrieNode(original.label)
        else:
            window = original.bitvector
            start, length = window.start, len(window)
            bits = Bits(kernel.extract_bits_value(words, start, start + length), length)
            copy = WaveletTrieNode(original.label, trie._bitvector_from_bits(bits))
            stack.append((original.children[1], copy, 1))
            stack.append((original.children[0], copy, 0))
        if parent is None:
            trie._root = copy
        else:
            parent.attach(bit, copy)
    return trie


# ----------------------------------------------------------------------
# The LSM composition
# ----------------------------------------------------------------------
class TieredWaveletTrie(IndexedStringSequence):
    """LSM-style Wavelet Trie: a mutable dynamic tail over frozen RRR tiers.

    The logical sequence is the concatenation ``frozen[0] ++ ... ++
    frozen[k-1] ++ sealing ++ active``: an ordered list of immutable static
    RRR tiers, at most one *sealing* tier whose freeze is in flight, and the
    mutable :class:`~repro.core.dynamic.DynamicWaveletTrie` tail absorbing
    writes.  ``append`` always lands in the tail; ``insert``/``delete`` are
    allowed at positions >= :attr:`mutable_start` (the LSM retention rule --
    older elements are immutable until :meth:`compact`, mirroring how the
    append-only flavour restricts inserts to the end).

    When the tail reaches ``active_capacity`` elements it is sealed: queries
    keep hitting the sealed dynamic trie while a :class:`TrieFreezer` drains
    it at ``compact_budget`` block units per subsequent write (plus explicit
    :meth:`compact_step` calls), so no single write pays a stop-the-world
    freeze.  Once drained, the static result joins the frozen list and the
    sealed trie is dropped.

    Queries walk one tier per item: ``access`` binary-searches the owning
    tier; ``rank(v, p)`` adds the topology counts of the tiers before ``p``
    (no Rank) to one rank inside the tier holding ``p`` (none at a tier's
    end); ``select(v, i)`` binary-searches the cumulative topology counts
    for the owning tier.  The ``*_many`` variants bucket their batch by
    owning tier and run one batch walk per owning tier.  Each read
    binarises its key once.  Frozen tiers are never merged by the budgeted
    path, so k seals leave k frozen tiers: reads pay O(|s|) label work per
    tier for the counts, and the Rank/Select work of the owning tiers only.
    """

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        active_capacity: int = 65536,
        compact_budget: int = 32,
        seed: int = 0x5EED,
    ) -> None:
        if active_capacity < 1:
            raise ValueError("active_capacity must be a positive element count")
        if compact_budget < 1:
            raise ValueError("compact_budget must be a positive block count")
        self._codec = codec or default_codec()
        self.active_capacity = active_capacity
        self.compact_budget = compact_budget
        self._seed = seed
        self._frozen: List[WaveletTrie] = []
        self._sealing: Optional[Tuple[Any, TrieFreezer]] = None
        self._active = self._new_active()
        self._size = 0
        values = list(values)
        if values:
            self.extend(values)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _new_active(self):
        self._seed = (self._seed * _SEED_MULTIPLIER + 1) % (1 << 63)
        return DynamicWaveletTrie(codec=self._codec, seed=self._seed)

    @classmethod
    def _from_parts(
        cls,
        frozen: Sequence[WaveletTrie],
        active,
        codec: StringCodec,
        active_capacity: int,
        compact_budget: int,
        seed: int,
    ) -> "TieredWaveletTrie":
        """Assemble an instance from already-built tiers (loaders only)."""
        self = cls.__new__(cls)
        self._codec = codec
        self.active_capacity = active_capacity
        self.compact_budget = compact_budget
        self._seed = seed
        self._frozen = [tier for tier in frozen if len(tier)]
        self._sealing = None
        self._active = active if active is not None else self._new_active()
        self._size = sum(len(tier) for tier in self._frozen) + len(self._active)
        return self

    # ------------------------------------------------------------------
    # Tier bookkeeping
    # ------------------------------------------------------------------
    def _tiers(self) -> List[Any]:
        tiers: List[Any] = list(self._frozen)
        if self._sealing is not None:
            tiers.append(self._sealing[0])
        tiers.append(self._active)
        return tiers

    def _tier_views(self) -> Tuple[List[Any], List[int]]:
        """The non-empty live tiers plus cumulative start offsets (len+1 long).

        Fully-empty tiers (a drained tail, an empty frozen tier handed to a
        loader) are dropped before any read routes: a read pays a topology
        count in every tier left of its position, so the per-tier constant
        must track the tiers that actually hold elements.  The returned
        offsets are strictly increasing, which keeps the ``bisect`` owner
        searches unambiguous: a position has exactly one owning tier.
        """
        tiers = [tier for tier in self._tiers() if len(tier)]
        offsets = [0]
        for tier in tiers:
            offsets.append(offsets[-1] + len(tier))
        return tiers, offsets

    @property
    def codec(self) -> StringCodec:
        """The binarisation codec shared by every tier."""
        return self._codec

    @property
    def mutable_start(self) -> int:
        """First position inside the mutable tail tier."""
        return self._size - len(self._active)

    @property
    def tier_count(self) -> int:
        """Number of live tiers (frozen + sealing + the mutable tail)."""
        return len(self._frozen) + (1 if self._sealing is not None else 0) + 1

    def tier_info(self) -> List[Dict[str, Any]]:
        """Per-tier description, oldest first: kind, state, elements, bits."""
        rows: List[Dict[str, Any]] = []
        for tier in self._frozen:
            rows.append(
                {
                    "kind": type(tier).__name__,
                    "state": "frozen",
                    "elements": len(tier),
                    "bits": tier.size_in_bits(),
                }
            )
        if self._sealing is not None:
            sealed, freezer = self._sealing
            rows.append(
                {
                    "kind": type(sealed).__name__,
                    "state": "sealing",
                    "elements": len(sealed),
                    "bits": sealed.size_in_bits(),
                    "pending_freeze_bits": freezer.pending_bits,
                }
            )
        rows.append(
            {
                "kind": type(self._active).__name__,
                "state": "mutable",
                "elements": len(self._active),
                "bits": self._active.size_in_bits(),
            }
        )
        return rows

    # ------------------------------------------------------------------
    # Sealing and compaction
    # ------------------------------------------------------------------
    def _maybe_seal(self) -> None:
        if self._sealing is None and len(self._active) >= self.active_capacity:
            sealed = self._active
            self._sealing = (sealed, TrieFreezer(sealed))
            self._active = self._new_active()

    def _advance(self, budget: int) -> int:
        if self._sealing is None or budget < 1:
            return 0
        _, freezer = self._sealing
        done = freezer.step(budget)
        if freezer.done:
            self._frozen.append(freezer.finish())
            self._sealing = None
        return done

    def _after_write(self, written: int) -> None:
        self._maybe_seal()
        self._advance(self.compact_budget * written)

    def compact_step(self, budget: Optional[int] = None) -> int:
        """Advance the in-flight freeze by ``budget`` block units.

        Seals the tail first if it is at capacity; defaults to
        ``compact_budget`` units.  Returns the units of work done (0 when no
        freeze is pending) -- the hook for driving compaction from an event
        loop instead of piggybacking on writes.
        """
        self._maybe_seal()
        return self._advance(self.compact_budget if budget is None else budget)

    def compact(self, merge: bool = True) -> None:
        """Drain all pending freeze work; optionally merge to a single tier.

        Finishes the in-flight seal, freezes the current tail (leaving a
        fresh empty one), and with ``merge=True`` rebuilds every frozen tier
        into one static RRR trie -- after which the whole sequence is
        mutable-window-free except for the new empty tail.  This is the
        explicit stop-the-world operation; the budgeted path is
        :meth:`compact_step`.
        """
        if self._sealing is not None:
            _, freezer = self._sealing
            self._frozen.append(freezer.finish())
            self._sealing = None
        if len(self._active):
            self._frozen.append(freeze_trie(self._active))
            self._active = self._new_active()
        if merge and len(self._frozen) > 1:
            combined: List[Any] = []
            for tier in self._frozen:
                combined.extend(tier.iter_range(0, len(tier)))
            self._frozen = [WaveletTrie(combined, codec=self._codec)]

    def size_in_bits(self) -> int:
        """Measured footprint: the sum over live tiers."""
        return sum(tier.size_in_bits() for tier in self._tiers())

    def bitvector_bits(self) -> int:
        """Node bitvector bits, summed over live tiers."""
        return sum(tier.bitvector_bits() for tier in self._tiers())

    # ------------------------------------------------------------------
    # Introspection shared with the pointer tries (CLI info & reports)
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[WaveletTrieNode]:
        """All nodes of all live tiers, tier order then preorder."""
        for tier in self._tiers():
            yield from tier.nodes()

    def node_count(self) -> int:
        """Total node count across live tiers."""
        return sum(tier.node_count() for tier in self._tiers())

    def distinct_count(self) -> int:
        """Number of distinct values in the logical sequence (cross-tier)."""
        values = set()
        for tier in self._tiers():
            if len(tier):
                values.update(tier.distinct_values())
        return len(values)

    def distinct_values(self) -> List[Any]:
        """Sorted distinct values of the logical sequence."""
        values = set()
        for tier in self._tiers():
            if len(tier):
                values.update(tier.distinct_values())
        return sorted(values)

    def average_height(self) -> float:
        """Mean leaf depth over all elements (exact: per-tier weighted mean)."""
        if not self._size:
            return 0.0
        total = 0.0
        for tier in self._tiers():
            if len(tier):
                total += tier.average_height() * len(tier)
        return total / self._size

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _check_position(self, pos: int) -> None:
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(
                f"position {pos} out of range for length {self._size}"
            )

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"rank position {pos} out of range for length {self._size}"
            )

    def access(self, pos: int) -> Any:
        """Value at position ``pos`` (binary search for the owning tier)."""
        self._check_position(pos)
        tiers, offsets = self._tier_views()
        index = bisect_right(offsets, pos) - 1
        return tiers[index].access(pos - offsets[index])

    def rank(self, value: Any, pos: int) -> int:
        """Occurrences of ``value`` in ``[0, pos)``: routed to one tier."""
        self._check_rank_pos(pos)
        return self._rank_routed(value, [pos], prefix=False)[0]

    def select(self, value: Any, idx: int) -> int:
        """Position of the ``idx``-th occurrence (binary search over tiers)."""
        key, tiers, offsets, cumulative = self._occurrences(value, prefix=False)
        total = cumulative[-1]
        if total == 0:
            raise ValueNotFoundError(
                f"value {value!r} does not occur in the sequence"
            )
        check_select_index(value, idx, total)
        index = bisect_right(cumulative, idx) - 1
        return offsets[index] + tiers[index].select_bits(key, idx - cumulative[index])

    def rank_prefix(self, prefix: Any, pos: int) -> int:
        """Prefix occurrences in ``[0, pos)``: routed to one tier."""
        self._check_rank_pos(pos)
        return self._rank_routed(prefix, [pos], prefix=True)[0]

    def select_prefix(self, prefix: Any, idx: int) -> int:
        """Position of the ``idx``-th element carrying ``prefix``."""
        key, tiers, offsets, cumulative = self._occurrences(prefix, prefix=True)
        total = cumulative[-1]
        if total == 0:
            raise ValueNotFoundError(f"no element has prefix {prefix!r}")
        check_select_prefix_index(prefix, idx, total)
        index = bisect_right(cumulative, idx) - 1
        return offsets[index] + tiers[index].select_prefix_bits(
            key, idx - cumulative[index], label=prefix
        )

    # ------------------------------------------------------------------
    # Batch queries: one batch walk per tier that owns an item
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int]) -> List[Any]:
        """Values at each position, amortised via per-tier batch walks.

        Positions are bucketed by owning tier (one binary search each), each
        tier answers its bucket with a single ``access_many`` walk, and the
        results scatter back into input order.
        """
        positions = normalize_batch(positions)
        out: List[Any] = [None] * len(positions)
        if not len(positions):
            return out
        tiers, offsets = self._tier_views()
        buckets: Dict[int, Tuple[List[int], List[int]]] = {}
        for slot, pos in enumerate(positions):
            pos = int(pos)
            self._check_position(pos)
            index = bisect_right(offsets, pos) - 1
            slots, locals_ = buckets.setdefault(index, ([], []))
            slots.append(slot)
            locals_.append(pos - offsets[index])
        for index, (slots, locals_) in buckets.items():
            for slot, value in zip(slots, tiers[index].access_many(locals_)):
                out[slot] = value
        return out

    def rank_many(self, value: Any, positions: Sequence[int]) -> List[int]:
        """Rank at each position, amortised: one batch walk per owning tier.

        Each position adds the topology counts of the tiers before it (O(|s|)
        label work and one O(1) ``count`` per tier) to one shared
        ``rank_many`` walk in the tier that holds it: O(q log k + k |s| +
        w (h_s D + q)) for k tiers of which w hold a position.
        """
        positions = normalize_batch(positions)
        if not len(positions):
            return []
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_rank_pos(pos)
        return self._rank_routed(value, positions, prefix=False)

    def select_many(self, value: Any, indexes: Sequence[int]) -> List[int]:
        """Positions of the requested occurrences, amortised per tier.

        Takes each tier's occurrence count from its topology, buckets the
        index batch by owning tier against the cumulative counts, and runs
        one ``select_many`` per touched tier.
        """
        indexes = normalize_batch(indexes)
        if not len(indexes):
            return []
        key, tiers, offsets, cumulative = self._occurrences(value, prefix=False)
        total = cumulative[-1]
        if total == 0:
            raise ValueNotFoundError(
                f"value {value!r} does not occur in the sequence"
            )
        indexes = validate_select_indexes(indexes, total, value)
        return self._select_scatter(
            tiers, offsets, cumulative, indexes,
            lambda tier, local: tier.select_many_bits(key, local),
        )

    def rank_prefix_many(self, prefix: Any, positions: Sequence[int]) -> List[int]:
        """Prefix rank at each position, amortised: routed like
        :meth:`rank_many`, one ``rank_prefix_many`` walk per owning tier."""
        positions = normalize_batch(positions)
        if not len(positions):
            return []
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_rank_pos(pos)
        return self._rank_routed(prefix, positions, prefix=True)

    def select_prefix_many(self, prefix: Any, indexes: Sequence[int]) -> List[int]:
        """Positions of the requested prefix matches, amortised per tier."""
        indexes = normalize_batch(indexes)
        if not len(indexes):
            return []
        key, tiers, offsets, cumulative = self._occurrences(prefix, prefix=True)
        total = cumulative[-1]
        if total == 0:
            raise ValueNotFoundError(f"no element has prefix {prefix!r}")
        indexes = validate_select_prefix_indexes(indexes, total, prefix)
        return self._select_scatter(
            tiers, offsets, cumulative, indexes,
            lambda tier, local: tier.select_prefix_many_bits(key, local, prefix),
        )

    # ------------------------------------------------------------------
    # Routing helpers shared by the scalar and batch reads
    # ------------------------------------------------------------------
    def _binarise_key(self, key: Any, prefix: bool) -> Bits:
        codec = self._codec
        return codec.prefix_to_bits(key) if prefix else codec.to_bits(key)

    @staticmethod
    def _tier_count(tier, key: Bits, prefix: bool) -> int:
        return tier.count_prefix_bits(key) if prefix else tier.count_bits(key)

    def _rank_routed(self, key: Any, positions: List[int], prefix: bool) -> List[int]:
        """Rank of ``key`` (a value, or a prefix) at validated positions.

        The key is binarised once, before anything is routed, so a key the
        codec rejects raises at every position.  A position's rank is the
        topology counts of the tiers wholly before it plus, when it falls
        strictly inside a tier, that tier's rank: one batch walk per tier
        that owns such a position, and none for a position at 0 or at a
        tier's end.  Tiers past the last position are not touched.
        """
        bits = self._binarise_key(key, prefix)
        tiers, offsets = self._tier_views()
        owners: List[int] = []
        walks: Dict[int, Tuple[List[int], List[int]]] = {}
        for slot, pos in enumerate(positions):
            # The tiers before ``index`` end at or before ``pos``; ``index``
            # is len(tiers) for the sequence's end.
            index = bisect_right(offsets, pos) - 1
            owners.append(index)
            local = pos - offsets[index]
            if local:
                slots, locals_ = walks.setdefault(index, ([], []))
                slots.append(slot)
                locals_.append(local)
        before = [0]
        for tier in tiers[: max(owners)]:
            before.append(before[-1] + self._tier_count(tier, bits, prefix))
        out = [before[index] for index in owners]
        for index, (slots, locals_) in walks.items():
            tier = tiers[index]
            ranks = (
                tier.rank_prefix_many_bits(bits, locals_)
                if prefix
                else tier.rank_many_bits(bits, locals_)
            )
            for slot, rank in zip(slots, ranks):
                out[slot] += rank
        return out

    def _occurrences(
        self, key: Any, prefix: bool
    ) -> Tuple[Optional[Bits], List[Any], List[int], List[int]]:
        """The binarised key, the live tiers, their offsets and cumulative
        per-tier occurrence counts, each count from the tier's topology.

        The key is binarised only when some tier holds rows: an empty
        sequence reports that nothing occurs, whatever the key.
        """
        tiers, offsets = self._tier_views()
        bits = self._binarise_key(key, prefix) if tiers else None
        cumulative = [0]
        for tier in tiers:
            cumulative.append(cumulative[-1] + self._tier_count(tier, bits, prefix))
        return bits, tiers, offsets, cumulative

    @staticmethod
    def _select_scatter(tiers, offsets, cumulative, indexes, select_fn):
        """Bucket validated select indexes per tier, batch-select, scatter."""
        out = [0] * len(indexes)
        buckets: Dict[int, Tuple[List[int], List[int]]] = {}
        for slot, idx in enumerate(indexes):
            index = bisect_right(cumulative, idx) - 1
            slots, locals_ = buckets.setdefault(index, ([], []))
            slots.append(slot)
            locals_.append(idx - cumulative[index])
        for index, (slots, locals_) in buckets.items():
            positions = select_fn(tiers[index], locals_)
            offset = offsets[index]
            for slot, position in zip(slots, positions):
                out[slot] = offset + position
        return out

    # ------------------------------------------------------------------
    # Range analytics: per-tier delegation + cross-tier merge
    # ------------------------------------------------------------------
    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= self._size):
            raise OutOfBoundsError(
                f"range [{start}, {stop}) invalid for sequence of length {self._size}"
            )

    def _local_ranges(self, start: int, stop: int):
        """Yield ``(tier, local_start, local_stop)`` covering ``[start, stop)``."""
        tiers, offsets = self._tier_views()
        for tier, offset in zip(tiers, offsets):
            length = len(tier)
            lo = min(max(start - offset, 0), length)
            hi = min(max(stop - offset, 0), length)
            if lo < hi:
                yield tier, lo, hi

    def iter_range(self, start: int, stop: int) -> Iterator[Any]:
        """Elements at positions ``[start, stop)``: per-tier sequential scans."""
        self._check_range(start, stop)
        for tier, lo, hi in self._local_ranges(start, stop):
            yield from tier.iter_range(lo, hi)

    def _binarised_key(self, value: Any) -> Tuple[int, ...]:
        key = self._codec.to_bits(value)
        return tuple(key[i] for i in range(len(key)))

    def distinct_in_range(
        self, start: int, stop: int, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """Distinct values in ``[0-based range)`` with counts, summed across
        tiers, in trie (lexicographic binarised) order like the static trie."""
        self._check_range(start, stop)
        counts: Dict[Any, int] = {}
        for tier, lo, hi in self._local_ranges(start, stop):
            for value, count in tier.distinct_in_range(lo, hi, prefix):
                counts[value] = counts.get(value, 0) + count
        return sorted(
            counts.items(), key=lambda item: self._binarised_key(item[0])
        )

    def count_distinct_in_range(
        self, start: int, stop: int, prefix: Any = None
    ) -> int:
        """Number of distinct values in the range (optionally under a prefix)."""
        return len(self.distinct_in_range(start, stop, prefix))

    def top_k_in_range(
        self, start: int, stop: int, k: int, prefix: Any = None
    ) -> List[Tuple[Any, int]]:
        """The ``k`` most frequent values in the range, most frequent first;
        ties break in trie (lexicographic binarised) order."""
        self._check_range(start, stop)
        check_top_k(k)
        if k == 0:
            return []
        merged = self.distinct_in_range(start, stop, prefix)
        ranked = sorted(
            merged, key=lambda item: (-item[1], self._binarised_key(item[0]))
        )
        return ranked[:k]

    def range_count(self, value: Any, start: int, stop: int) -> int:
        """Occurrences of ``value`` within positions ``[start, stop)``."""
        self._check_range(start, stop)
        return self.rank(value, stop) - self.rank(value, start)

    def range_count_prefix(self, prefix: Any, start: int, stop: int) -> int:
        """Elements with ``prefix`` within positions ``[start, stop)``."""
        self._check_range(start, stop)
        return self.rank_prefix(prefix, stop) - self.rank_prefix(prefix, start)

    # ------------------------------------------------------------------
    # Updates: the mutable tail window
    # ------------------------------------------------------------------
    def _check_window(self, pos: int, what: str) -> None:
        start = self.mutable_start
        if pos < start:
            raise InvalidOperationError(
                f"cannot {what} at position {pos}: positions below "
                f"{start} live in frozen tiers (TieredWaveletTrie mutates "
                "only its tail tier; run compact() to rebuild, or use "
                "DynamicWaveletTrie for full mutability)"
            )

    def append(self, value: Any) -> None:
        """Append to the tail tier; advances compaction by the budget."""
        self._active.append(value)
        self._size += 1
        self._after_write(1)

    def extend(self, values: Iterable[Any]) -> None:
        """Bulk append, chunked so sealing happens on capacity boundaries.

        All or nothing: the tail binarises the whole batch once, before the
        first chunk lands (values its path cache routes skip the codec), so
        a value the codec rejects leaves no chunk applied and no seal
        started.  The binarised pairs stay valid across a seal: every tail
        shares this trie's codec.
        """
        routed = self._active._binarise(values)
        cursor = 0
        while cursor < len(routed):
            self._maybe_seal()
            room = self.active_capacity - len(self._active)
            if room <= 0:
                # A seal is already in flight: overshoot in bounded chunks.
                room = self.active_capacity
            chunk = routed[cursor : cursor + room]
            tail = self._active
            before = len(tail)
            try:
                tail._extend_routed(chunk)
            finally:
                # Rows a failing chunk flushed before it raised still count.
                self._size += len(tail) - before
            cursor += len(chunk)
            self._maybe_seal()
            self._advance(self.compact_budget * len(chunk))

    def insert(self, value: Any, pos: int) -> None:
        """Insert inside the mutable tail window (``pos >= mutable_start``)."""
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {self._size}"
            )
        self._check_window(pos, "insert")
        self._active.insert(value, pos - self.mutable_start)
        self._size += 1
        self._after_write(1)

    def insert_many(self, values: Sequence[Any], pos: int) -> None:
        """Bulk insert at one tail-window position, amortised.

        Delegates to the dynamic tier's contiguous-block ``insert_many``
        (one topology pass + one ``insert_many`` per touched node), then
        advances compaction by one budget per inserted element.
        """
        values = list(values)
        if not values:
            return
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(
                f"insert position {pos} out of range for length {self._size}"
            )
        self._check_window(pos, "insert")
        self._active.insert_many(values, pos - self.mutable_start)
        self._size += len(values)
        self._after_write(len(values))

    def delete(self, pos: int) -> Any:
        """Delete inside the mutable tail window; returns the value."""
        self._check_position(pos)
        self._check_window(pos, "delete")
        value = self._active.delete(pos - self.mutable_start)
        self._size -= 1
        self._advance(self.compact_budget)
        return value

    def delete_many(self, positions: Sequence[int]) -> List[Any]:
        """Bulk delete inside the tail window, all-or-nothing, no amortisation.

        Validates the whole batch (bounds, duplicates, window) before any
        mutation, then delegates to the dynamic tail's ``delete_many``, one
        scalar ``delete`` per position; values return in input order.
        """
        positions = validate_delete_positions(positions, self._size)
        if not positions:
            return []
        start = self.mutable_start
        for pos in positions:
            self._check_window(pos, "delete")
        values = self._active.delete_many([pos - start for pos in positions])
        self._size -= len(positions)
        self._advance(self.compact_budget * len(positions))
        return values
