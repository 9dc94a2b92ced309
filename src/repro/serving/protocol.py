"""Wire protocol of the index server: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, compact deterministic
encoding (sorted keys, no whitespace) so equivalence tests can compare
responses *byte for byte*.  The same frames travel over both transports: raw
NDJSON on the unix socket, and as the body of ``POST /query`` over localhost
HTTP.

A request is an object with:

``op``
    One of the read ops ``access`` / ``rank`` / ``select`` /
    ``rank_prefix`` / ``select_prefix`` (the full Grossi--Ottaviano query
    surface), the write ops ``append`` / ``extend``, or the admin ops
    ``stats`` / ``ping``.
``id``
    Optional client correlation token (any JSON scalar), echoed verbatim.
``shard``
    Optional shard name (default ``"default"``).
``pos`` / ``idx`` / ``value`` / ``prefix`` / ``values``
    The op's arguments (see :data:`OP_FIELDS`).

A response echoes ``id`` and carries either ``ok: true`` with ``result`` and
-- for shard ops -- ``version`` (the pinned snapshot length for reads, the
new length for writes), or ``ok: false`` with a typed ``error``
``{"code", "message"}``.  Error codes are the closed set
:data:`ERROR_CODES`; library exceptions map onto them via
:func:`error_code_for_exception` so a scalar replay raises byte-identical
messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import (
    BinarizationError,
    InvalidOperationError,
    OutOfBoundsError,
    ReproError,
    ValueNotFoundError,
)

__all__ = [
    "ADMIN_OPS",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "OP_FIELDS",
    "ProtocolError",
    "READ_OPS",
    "Request",
    "WRITE_OPS",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "encode_request",
    "encode_result",
    "error_code_for_exception",
    "error_message",
]

DEFAULT_MAX_FRAME_BYTES = 1 << 20  # 1 MiB: a frame larger than this is a fault

READ_OPS = frozenset({"access", "rank", "select", "rank_prefix", "select_prefix"})
WRITE_OPS = frozenset({"append", "extend"})
ADMIN_OPS = frozenset({"stats", "ping"})

# Required argument fields per op (beyond op/id/shard), with the python types
# accepted for each.  ``None`` is never a valid argument value.
OP_FIELDS: Dict[str, Dict[str, type]] = {
    "access": {"pos": int},
    "rank": {"value": str, "pos": int},
    "select": {"value": str, "idx": int},
    "rank_prefix": {"prefix": str, "pos": int},
    "select_prefix": {"prefix": str, "idx": int},
    "append": {"value": str},
    "extend": {"values": list},
    "stats": {},
    "ping": {},
}

ERROR_CODES = frozenset(
    {
        "malformed",        # not a JSON object / bad field types / value the codec rejects
        "oversized",        # frame exceeds the configured byte limit
        "bad_request",      # unknown op / missing argument
        "unknown_shard",    # the named shard is not served here
        "out_of_bounds",    # position/index outside the snapshot range
        "value_not_found",  # value/prefix has zero occurrences
        "invalid_operation",  # e.g. write to a non-appendable column
        "overloaded",       # shard queue at capacity (backpressure)
        "timeout",          # request expired before its tick drained
        "shutting_down",    # server is draining; no new work accepted
        "internal",         # unexpected failure inside a handler
    }
)


class ProtocolError(ReproError):
    """A request frame that cannot be accepted, with its wire error code."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code


def error_code_for_exception(error: BaseException) -> str:
    """The wire error code for a library exception (closed mapping)."""
    if isinstance(error, ProtocolError):
        return error.code
    if isinstance(error, BinarizationError):
        return "malformed"  # a value the column's codec cannot encode
    if isinstance(error, OutOfBoundsError):
        return "out_of_bounds"
    if isinstance(error, ValueNotFoundError):
        return "value_not_found"
    if isinstance(error, InvalidOperationError):
        return "invalid_operation"
    return "internal"


def error_message(error: BaseException) -> str:
    """The human message of an exception, bypassing ``KeyError.__str__``.

    :class:`~repro.exceptions.ValueNotFoundError` derives from ``KeyError``,
    whose ``__str__`` repr-wraps the message in an extra layer of quotes;
    the wire carries the message exactly as raised.
    """
    if len(error.args) == 1 and isinstance(error.args[0], str):
        return error.args[0]
    return str(error)


@dataclass
class Request:
    """A validated request frame, ready for a shard queue."""

    op: str
    shard: str = "default"
    id: Any = None
    args: Dict[str, Any] = field(default_factory=dict)


def decode_frame(
    line: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Request:
    """Parse and validate one request line into a :class:`Request`.

    Raises :class:`ProtocolError` with the precise wire code: ``oversized``
    for frames over the limit, ``malformed`` for non-JSON / non-object /
    mistyped frames, ``bad_request`` for unknown ops or missing arguments.
    """
    if len(line) > max_frame_bytes:
        raise ProtocolError(
            "oversized",
            f"frame of {len(line)} bytes exceeds the {max_frame_bytes} byte limit",
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError("malformed", f"frame is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "malformed", f"frame must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if not isinstance(op, str) or op not in OP_FIELDS:
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r}: expected one of {sorted(OP_FIELDS)}",
        )
    shard = payload.get("shard", "default")
    if not isinstance(shard, str):
        raise ProtocolError("malformed", "shard must be a string")
    args: Dict[str, Any] = {}
    for name, kind in OP_FIELDS[op].items():
        if name not in payload:
            raise ProtocolError(
                "bad_request", f"op {op!r} requires the {name!r} field"
            )
        value = payload[name]
        # bool is an int subclass; a boolean position is always a client bug.
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ProtocolError(
                "malformed",
                f"field {name!r} must be {kind.__name__}, got {type(value).__name__}",
            )
        if kind is list and not all(isinstance(item, str) for item in value):
            raise ProtocolError("malformed", f"field {name!r} must list strings")
        args[name] = value
    return Request(op=op, shard=shard, id=payload.get("id"), args=args)


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One response line: compact, key-sorted, newline-terminated."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def encode_request(op: str, shard: str = "default", id: Any = None, **args: Any) -> bytes:
    """One *request* line, compactly encoded (the client-side twin of
    :func:`decode_frame`).

    Used wherever this codebase is itself the client: the cluster
    supervisor's scatter subrequests and journal replays, and the test
    harnesses' deterministic request logs.  ``id`` is omitted when ``None``
    (pipelined connections correlate strictly FIFO, so scatter subrequests
    carry no ids at all).
    """
    payload: Dict[str, Any] = {"op": op, "shard": shard, **args}
    if id is not None:
        payload["id"] = id
    return encode_frame(payload)


def encode_result(
    request_id: Any, result: Any, version: Optional[int] = None
) -> bytes:
    """A success frame; ``version`` is the snapshot/write length when shard-bound."""
    payload: Dict[str, Any] = {"id": request_id, "ok": True, "result": result}
    if version is not None:
        payload["version"] = version
    return encode_frame(payload)


def encode_error(request_id: Any, code: str, message: str) -> bytes:
    """A typed error frame (``code`` must be in :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return encode_frame(
        {"id": request_id, "ok": False, "error": {"code": code, "message": message}}
    )
