"""The coalescing core: drain concurrent scalar reads as ``*_many`` batches.

This is the pure (no-I/O, no-asyncio) heart of the index server.  A *tick*
takes the scalar read requests that accumulated on a shard's queue and
answers all of them with at most one batch call per operation kind per
distinct key:

* every ``access`` in the tick -> one ``access_many``;
* the ``rank`` / ``select`` requests, grouped by value -> one
  ``rank_many`` / ``select_many`` per distinct value;
* the ``rank_prefix`` / ``select_prefix`` requests, grouped by prefix ->
  one ``rank_prefix_many`` / ``select_prefix_many`` per distinct prefix.

Requests that fail validation (positions past the snapshot, select indexes
past the occurrence count) get their typed error frame individually and do
not poison the rest of the batch; the error messages are exactly the ones
the scalar :class:`~repro.db.column.ColumnSnapshot` calls raise.  A group
whose batch call raises -- a key the codec rejects -- is answered again one
request at a time, so it cannot poison the other groups of its tick.  The
grouping (:func:`group_reads`) and the per-request checks
(:func:`check_group`) are shared with the cluster's
:class:`~repro.serving.router.ClusterRouter`, which validates against its
gathered totals instead of a local snapshot -- so each error message is
written exactly once.

The function is deliberately the *only* read path: with coalescing disabled
the server still calls :func:`run_read_tick` with singleton batches, so a
coalesced response is byte-identical to the serial one by construction --
the property the equivalence suite then verifies end to end.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.interface import check_select_index, check_select_prefix_index
from repro.exceptions import OutOfBoundsError
from repro.serving.metrics import ServingMetrics
from repro.serving.protocol import (
    READ_OPS,
    Request,
    encode_error,
    encode_result,
    error_code_for_exception,
    error_message,
)

__all__ = ["POSITION_OPS", "check_group", "group_reads", "run_read_tick"]

# Ops whose argument is a position checked against the sequence length; the
# select ops check an index against an occurrence total instead.
POSITION_OPS = frozenset({"access", "rank", "rank_prefix"})


def group_reads(requests: Sequence[Request]) -> Dict[Tuple[str, Any], List[int]]:
    """Bucket one tick's reads by ``(op, key)``: the coalescing unit.

    ``key`` is the ``value`` (rank / select), the ``prefix`` (rank_prefix /
    select_prefix), or None (access).  Returns the request slots of each
    group in input order, groups in order of first appearance.  O(q).
    """
    groups: Dict[Tuple[str, Any], List[int]] = {}
    for slot, request in enumerate(requests):
        op = request.op
        assert op in READ_OPS, op
        if op == "access":
            key = None
        elif op in ("rank", "select"):
            key = request.args["value"]
        else:
            key = request.args["prefix"]
        groups.setdefault((op, key), []).append(slot)
    return groups


def check_group(
    op: str,
    key: Any,
    slots: Sequence[int],
    requests: Sequence[Request],
    bound: int,
    frames: List[Optional[bytes]],
) -> Tuple[List[int], List[int]]:
    """Validate one ``(op, key)`` group against its bound.

    ``bound`` is the sequence length for :data:`POSITION_OPS` and the
    occurrence total of ``key`` (select) or of elements with prefix ``key``
    (select_prefix) for the select ops.  Each rejected request gets its
    typed error frame written into ``frames`` -- with the exact message the
    scalar snapshot call raises -- and the rest come back as ``(slots,
    arguments)``: positions, or select indexes.  O(len(slots)).
    """
    ok_slots: List[int] = []
    ok_args: List[int] = []
    field = "pos" if op in POSITION_OPS else "idx"
    for slot in slots:
        request = requests[slot]
        arg = request.args[field]
        problem = _problem(op, key, arg, bound)
        if problem is None:
            ok_slots.append(slot)
            ok_args.append(arg)
        else:
            frames[slot] = encode_error(request.id, *problem)
    return ok_slots, ok_args


def _problem(op: str, key: Any, arg: int, bound: int) -> Optional[Tuple[str, str]]:
    """The ``(code, message)`` rejecting one argument, or None if it is valid."""
    if op in POSITION_OPS:
        # Rank positions may equal the length; access positions may not.
        limit = bound if op == "access" else bound + 1
        if 0 <= arg < limit:
            return None
        what = "position" if op == "access" else "rank position"
        return "out_of_bounds", f"{what} {arg} out of range for length {bound}"
    if bound == 0:
        if op == "select":
            return "value_not_found", f"value {key!r} does not occur in the sequence"
        return "value_not_found", f"no element has prefix {key!r}"
    check = check_select_index if op == "select" else check_select_prefix_index
    try:
        check(key, arg, bound)
    except OutOfBoundsError as error:
        return "out_of_bounds", str(error)
    return None


def run_read_tick(
    snapshot,
    requests: Sequence[Request],
    metrics: Optional[ServingMetrics] = None,
) -> List[bytes]:
    """Answer one tick's read requests against one pinned snapshot.

    Returns one response frame per request, aligned with the input order.
    Amortised: at most one ``*_many`` batch walk per op kind per distinct
    key, plus O(q) validation -- the 10-40x batch speedups of the index
    layer become a per-tick constant instead of a per-request cost.  A
    group whose batch raises (a key the codec rejects, say) is answered
    again one request at a time, each error in its own frame, exactly as a
    coalescing-disabled server answers it: reads change nothing, so the
    replay is exact and the other groups are unaffected.
    """
    frames: List[Optional[bytes]] = [None] * len(requests)
    for (op, key), slots in group_reads(requests).items():
        try:
            _answer_group(snapshot, op, key, slots, requests, frames, metrics)
        except Exception:
            for slot in slots:
                try:
                    _answer_group(
                        snapshot, op, key, [slot], requests, frames, metrics
                    )
                except Exception as error:
                    frames[slot] = encode_error(
                        requests[slot].id,
                        error_code_for_exception(error),
                        error_message(error),
                    )

    assert all(frame is not None for frame in frames)
    return frames  # type: ignore[return-value]


def _answer_group(
    snapshot,
    op: str,
    key: Any,
    slots: Sequence[int],
    requests: Sequence[Request],
    frames: List[Optional[bytes]],
    metrics: Optional[ServingMetrics],
) -> None:
    """Write the frames of one ``(op, key)`` group: one batch call."""
    version = snapshot.version
    # Select groups validate against one pinned-count rank per group.
    if op == "select":
        bound = snapshot.rank(key, version)
    elif op == "select_prefix":
        bound = snapshot.rank_prefix(key, version)
    else:
        bound = version
    ok_slots, args = check_group(op, key, slots, requests, bound, frames)
    if not args:
        return
    if op == "access":
        results = snapshot.access_many(args)
    else:
        results = getattr(snapshot, f"{op}_many")(key, args)
    for slot, result in zip(ok_slots, results):
        frames[slot] = encode_result(requests[slot].id, result, version)
    if metrics is not None:
        metrics.record_batch(op, len(args))
