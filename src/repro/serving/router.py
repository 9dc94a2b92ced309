"""Position-range partitioning and scatter-gather routing for the cluster.

The multi-process cluster splits one logical column into contiguous
**position ranges**: shard ``i`` owns global rows ``[bounds[i],
bounds[i+1])`` of the frozen prefix, and the *tail* shard (the last one)
additionally owns every row appended after the split -- so the
single-writer rule survives sharding: exactly one worker process ever
mutates rows.

Two pieces live here, both free of process machinery so the property
suite can drive them hermetically:

* :class:`PartitionMap` -- the partition function.  It is **total**
  (every non-negative position maps to exactly one shard) and **stable**
  (a pure function of ``(total, num_shards)``, so supervisor restarts and
  worker respawns reproduce it bit-for-bit; the manifest round-trips it).
* :class:`ClusterRouter` -- decomposes global reads over one logical
  column into per-shard scalar subrequests, scatter-gathers them through
  an injected async ``fetch`` callable (the supervisor plugs in pipelined
  worker connections; tests plug in sliced columns), and merges results
  **in input order** with responses byte-identical to the unsharded
  server: same values, same versions, same error codes and messages.

The identities the router rests on (``cum[i] = bounds[i]``):

* ``access(pos)`` -- answered entirely by the owning shard at
  ``pos - cum[i]``.
* ``rank(v, pos)`` -- sum of the *full* counts of the shards left of the
  boundary plus one boundary-local rank.  Full counts of frozen shards
  never change, so they are fetched once and cached forever; the tail's
  count is cached per version.
* ``select(v, idx)`` -- binary search of the cumulative per-shard counts
  finds the owning shard, one local select there, plus the shard's base.

Scatter rounds are batched per shard.  The supervisor writes each shard's
batch in one write, and the worker answers the whole batch in one tick with
``*_many`` calls, so the batch amortisation of the index layer survives the
process hop.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_right
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.serving.coalescer import POSITION_OPS, check_group, group_reads
from repro.serving.metrics import ServingMetrics
from repro.serving.protocol import Request, encode_result

__all__ = ["ClusterRouter", "PartitionMap"]

# fetch(shard_index, payloads) -> result values aligned with the payloads.
Fetch = Callable[[int, List[Dict[str, Any]]], Awaitable[List[Any]]]


class PartitionMap:
    """A stable partition of global positions into contiguous shard ranges.

    ``bounds`` has one entry per shard plus a sentinel: shard ``i`` owns
    the frozen rows ``[bounds[i], bounds[i+1])``, and the tail shard
    (``num_shards - 1``) also owns every position at or past
    ``bounds[-1]`` -- the rows appended after the split.
    """

    def __init__(self, bounds: Sequence[int]) -> None:
        cleaned = tuple(int(bound) for bound in bounds)
        if len(cleaned) < 2 or cleaned[0] != 0:
            raise ValueError("bounds must start at 0 and name at least one shard")
        if any(lo > hi for lo, hi in zip(cleaned, cleaned[1:])):
            raise ValueError("bounds must be non-decreasing")
        self.bounds = cleaned

    @classmethod
    def from_total(cls, total: int, num_shards: int) -> "PartitionMap":
        """Balanced split of ``[0, total)`` into ``num_shards`` ranges.

        A pure function of its arguments -- the stability guarantee the
        property suite pins: re-partitioning the same total with the same
        shard count yields identical bounds, across processes and restarts.
        Delegates to :func:`repro.db.partition.partition_ranges`, the one
        home of the split arithmetic.
        """
        from repro.db.partition import partition_ranges

        ranges = partition_ranges(total, num_shards)
        return cls([0] + [hi for _, hi in ranges])

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def tail(self) -> int:
        """The shard owning appends (the last range)."""
        return self.num_shards - 1

    @property
    def total(self) -> int:
        """Rows covered by the frozen ranges (the total at split time)."""
        return self.bounds[-1]

    def base_of(self, shard: int) -> int:
        """Global position of the shard's first row."""
        return self.bounds[shard]

    def length_of(self, shard: int) -> int:
        """The shard's frozen length (the tail may have grown past it)."""
        return self.bounds[shard + 1] - self.bounds[shard]

    def owner_of(self, pos: int) -> int:
        """The unique shard owning global row ``pos`` (total: any pos >= 0)."""
        if pos >= self.bounds[-1]:
            return self.tail
        return bisect_right(self.bounds, pos) - 1

    def boundary_of(self, pos: int) -> int:
        """The shard whose local rank at ``pos - base`` completes a global
        rank at ``pos`` (rank endpoints may equal a shard's length)."""
        return min(bisect_right(self.bounds, pos) - 1, self.tail)

    # ------------------------------------------------------------------
    def to_manifest(self) -> Dict[str, Any]:
        """The JSON-ready form stored in the cluster manifest."""
        return {"kind": "position_range", "bounds": list(self.bounds)}

    @classmethod
    def from_manifest(cls, payload: Dict[str, Any]) -> "PartitionMap":
        """Rebuild the exact partition a manifest recorded."""
        if payload.get("kind") != "position_range":
            raise ValueError(f"unknown partition kind {payload.get('kind')!r}")
        return cls(payload["bounds"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartitionMap) and self.bounds == other.bounds

    def __hash__(self) -> int:
        return hash(self.bounds)

    def __repr__(self) -> str:
        return f"PartitionMap(bounds={list(self.bounds)})"


class _Round:
    """One scatter round: per-shard payload batches keyed for the gather."""

    def __init__(self) -> None:
        self._payloads: Dict[int, List[Dict[str, Any]]] = {}
        self._keys: Dict[int, List[Any]] = {}
        self._seen: Set[Any] = set()

    def add(self, shard: int, payload: Dict[str, Any], key: Any) -> None:
        if key in self._seen:  # dedup shared needs (e.g. one count, many asks)
            return
        self._seen.add(key)
        self._payloads.setdefault(shard, []).append(payload)
        self._keys.setdefault(shard, []).append(key)

    @property
    def width(self) -> int:
        return len(self._seen)

    async def run(self, fetch: Fetch) -> Dict[Any, Any]:
        """Fetch every shard's batch concurrently; map results back by key."""
        shards = sorted(self._payloads)
        batches = await asyncio.gather(
            *(fetch(shard, self._payloads[shard]) for shard in shards)
        )
        gathered: Dict[Any, Any] = {}
        for shard, values in zip(shards, batches):
            for key, value in zip(self._keys[shard], values):
                gathered[key] = value
        return gathered


class ClusterRouter:
    """Scatter-gather reads for one logical column across position shards.

    ``fetch`` is the only I/O seam: an async callable taking a shard index
    and a batch of request payloads (plain frame dicts, ``shard`` already
    set to the logical column name) and returning the result values in
    order.  The supervisor's implementation writes the batch in one write
    on the worker's NDJSON connection (with restart-and-retry
    underneath); the property tests implement it directly against sliced
    columns.

    Count caches keep steady-state reads cheap: a frozen shard's full
    count for a (rank-kind, key) never changes and is cached forever,
    while the tail's count is keyed by the global version it was computed
    at.  Both survive worker respawns because a recovered worker replays
    to exactly the same state.
    """

    def __init__(
        self,
        partition: PartitionMap,
        fetch: Fetch,
        column: str = "default",
        metrics: Optional[ServingMetrics] = None,
    ) -> None:
        self.partition = partition
        self.column = column
        self.metrics = metrics
        self._fetch = fetch
        # (kind, key, shard) -> full count, for shards left of the tail.
        self._frozen_counts: Dict[Tuple[str, str, int], int] = {}
        # (kind, key) -> (global version, tail count at that version).
        self._tail_counts: Dict[Tuple[str, str], Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def _count_field(self, kind: str) -> str:
        return "value" if kind == "rank" else "prefix"

    def _need_frozen_counts(
        self, round_: _Round, kind: str, key: str, upto: int
    ) -> None:
        """Queue fetches for the uncached full counts of shards < upto."""
        field = self._count_field(kind)
        for shard in range(upto):
            if (kind, key, shard) not in self._frozen_counts:
                round_.add(
                    shard,
                    {
                        "op": kind,
                        "shard": self.column,
                        field: key,
                        "pos": self.partition.length_of(shard),
                    },
                    ("count", kind, key, shard),
                )

    def _need_tail_count(
        self, round_: _Round, kind: str, key: str, version: int
    ) -> None:
        """Queue a tail count fetch unless cached at this exact version."""
        cached = self._tail_counts.get((kind, key))
        if cached is not None and cached[0] == version:
            return
        tail = self.partition.tail
        round_.add(
            tail,
            {
                "op": kind,
                "shard": self.column,
                self._count_field(kind): key,
                "pos": version - self.partition.base_of(tail),
            },
            ("tail_count", kind, key),
        )

    def _absorb_counts(self, gathered: Dict[Any, Any], version: int) -> None:
        for key, value in gathered.items():
            if key[0] == "count":
                _, kind, group_key, shard = key
                self._frozen_counts[(kind, group_key, shard)] = value
            elif key[0] == "tail_count":
                _, kind, group_key = key
                self._tail_counts[(kind, group_key)] = (version, value)

    def _counts_below(self, kind: str, key: str, upto: int) -> int:
        return sum(
            self._frozen_counts[(kind, key, shard)] for shard in range(upto)
        )

    # ------------------------------------------------------------------
    async def answer(
        self, requests: Sequence[Request], version: int
    ) -> List[bytes]:
        """Answer one batch of global reads at one global ``version``.

        Returns one response frame per request, aligned with the input
        order, byte-identical to what the unsharded server would emit for
        the same requests at the same version: grouping and validation are
        the coalescer's own (:func:`~repro.serving.coalescer.group_reads`,
        :func:`~repro.serving.coalescer.check_group`), scalar work scatters
        to the owning shards (at most two rounds: counts, then locates),
        and the supervisor-authoritative ``version`` stamps every success
        frame.
        """
        part = self.partition
        tail = part.tail
        frames: List[Optional[bytes]] = [None] * len(requests)

        # Round 1: every position op (access, rank partials) plus every
        # count a select group will need.
        round1 = _Round()
        positional: List[Tuple[str, Any, List[int], List[int]]] = []
        select_groups: List[Tuple[str, str, str, List[int]]] = []
        for (op, key), slots in group_reads(requests).items():
            if op in POSITION_OPS:
                ok_slots, positions = check_group(
                    op, key, slots, requests, version, frames
                )
                owners = []
                for slot, pos in zip(ok_slots, positions):
                    if op == "access":
                        owner = part.owner_of(pos)
                        payload = {"op": "access", "shard": self.column}
                    else:
                        owner = part.boundary_of(pos)
                        self._need_frozen_counts(round1, op, key, owner)
                        payload = {
                            "op": op,
                            "shard": self.column,
                            self._count_field(op): key,
                        }
                    payload["pos"] = pos - part.base_of(owner)
                    round1.add(owner, payload, ("req", slot))
                    owners.append(owner)
                positional.append((op, key, ok_slots, owners))
            else:  # select / select_prefix: counts now, locates in round 2
                kind = "rank" if op == "select" else "rank_prefix"
                self._need_frozen_counts(round1, kind, key, tail)
                self._need_tail_count(round1, kind, key, version)
                select_groups.append((op, kind, key, slots))

        if self.metrics is not None and round1.width:
            self.metrics.record_batch("scatter", round1.width)
        gathered = await round1.run(self._fetch)
        self._absorb_counts(gathered, version)

        for op, key, ok_slots, owners in positional:
            for slot, owner in zip(ok_slots, owners):
                result = gathered[("req", slot)]
                if op != "access":
                    result += self._counts_below(op, key, owner)
                frames[slot] = encode_result(requests[slot].id, result, version)

        # Round 2: validate select indexes against the gathered totals,
        # then locate each hit inside its owning shard.
        round2 = _Round()
        located: List[Tuple[int, int]] = []
        for op, kind, key, slots in select_groups:
            cumulative = [0]
            for shard in range(tail):
                count = self._frozen_counts[(kind, key, shard)]
                cumulative.append(cumulative[-1] + count)
            cumulative.append(cumulative[-1] + self._tail_counts[(kind, key)][1])
            ok_slots, indexes = check_group(
                op, key, slots, requests, cumulative[-1], frames
            )
            for slot, idx in zip(ok_slots, indexes):
                owner = bisect_right(cumulative, idx) - 1
                round2.add(
                    owner,
                    {
                        "op": op,
                        "shard": self.column,
                        self._count_field(kind): key,
                        "idx": idx - cumulative[owner],
                    },
                    ("req", slot),
                )
                located.append((slot, owner))

        if round2.width:
            if self.metrics is not None:
                self.metrics.record_batch("scatter", round2.width)
            gathered = await round2.run(self._fetch)
            for slot, owner in located:
                frames[slot] = encode_result(
                    requests[slot].id,
                    gathered[("req", slot)] + part.base_of(owner),
                    version,
                )

        assert all(frame is not None for frame in frames)
        return frames  # type: ignore[return-value]
