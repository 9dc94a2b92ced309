"""The NDJSON wire protocol: decoding, validation, deterministic encoding."""

import json

import pytest

from repro.exceptions import (
    BinarizationError,
    InvalidOperationError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.serving.protocol import (
    ADMIN_OPS,
    ERROR_CODES,
    OP_FIELDS,
    READ_OPS,
    WRITE_OPS,
    ProtocolError,
    decode_frame,
    encode_error,
    encode_frame,
    encode_result,
    error_code_for_exception,
)


def frame(**payload) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class TestDecode:
    def test_every_op_has_a_field_spec(self):
        assert READ_OPS | WRITE_OPS | ADMIN_OPS == set(OP_FIELDS)

    def test_valid_read_frames(self):
        request = decode_frame(frame(op="access", pos=3, id="c1"))
        assert (request.op, request.shard, request.id) == ("access", "default", "c1")
        assert request.args == {"pos": 3}
        request = decode_frame(frame(op="rank", value="a", pos=0, shard="urls"))
        assert request.shard == "urls"
        assert request.args == {"value": "a", "pos": 0}
        request = decode_frame(frame(op="select_prefix", prefix="", idx=7))
        assert request.args == {"prefix": "", "idx": 7}

    def test_valid_write_and_admin_frames(self):
        assert decode_frame(frame(op="append", value="x")).args == {"value": "x"}
        assert decode_frame(frame(op="extend", values=["x", ""])).args == {
            "values": ["x", ""]
        }
        assert decode_frame(frame(op="stats")).args == {}
        assert decode_frame(frame(op="ping")).args == {}

    def test_extra_fields_are_ignored(self):
        request = decode_frame(frame(op="access", pos=1, banana=True))
        assert request.args == {"pos": 1}

    @pytest.mark.parametrize(
        "line, code",
        [
            (b"not json\n", "malformed"),
            (b"[1, 2]\n", "malformed"),
            (b'"access"\n', "malformed"),
            (b"\xff\xfe\n", "malformed"),
            (frame(op="access", pos="3"), "malformed"),
            (frame(op="access", pos=True), "malformed"),
            (frame(op="rank", value=3, pos=0), "malformed"),
            (frame(op="extend", values=["a", 3]), "malformed"),
            (frame(op="extend", values="abc"), "malformed"),
            (frame(op="access", pos=0, shard=7), "malformed"),
            (frame(op="frobnicate"), "bad_request"),
            (frame(op=3), "bad_request"),
            (frame(pos=3), "bad_request"),
            (frame(op="access"), "bad_request"),
            (frame(op="rank", value="a"), "bad_request"),
            (frame(op="select", idx=0), "bad_request"),
        ],
    )
    def test_rejects_with_the_precise_code(self, line, code):
        with pytest.raises(ProtocolError) as caught:
            decode_frame(line)
        assert caught.value.code == code

    def test_oversized_frame(self):
        line = frame(op="append", value="x" * 100)
        with pytest.raises(ProtocolError) as caught:
            decode_frame(line, max_frame_bytes=64)
        assert caught.value.code == "oversized"
        assert decode_frame(line).op == "append"  # default limit is roomy


class TestEncode:
    def test_frames_are_compact_sorted_and_newline_terminated(self):
        payload = {"ok": True, "id": 9, "result": [1, 2]}
        line = encode_frame(payload)
        assert line == b'{"id":9,"ok":true,"result":[1,2]}\n'
        assert json.loads(line) == payload

    def test_encoding_is_deterministic_across_insertion_orders(self):
        a = encode_frame({"id": 1, "ok": True, "result": "x"})
        b = encode_frame({"result": "x", "ok": True, "id": 1})
        assert a == b

    def test_result_frame_with_and_without_version(self):
        assert json.loads(encode_result("r", 5, 10)) == {
            "id": "r", "ok": True, "result": 5, "version": 10,
        }
        assert json.loads(encode_result(None, "pong")) == {
            "id": None, "ok": True, "result": "pong",
        }

    def test_error_frame_carries_a_typed_code(self):
        payload = json.loads(encode_error(3, "timeout", "too slow"))
        assert payload == {
            "id": 3, "ok": False,
            "error": {"code": "timeout", "message": "too slow"},
        }
        with pytest.raises(AssertionError):
            encode_error(3, "nonsense-code", "boom")

    def test_error_frames_sort_error_first(self):
        # The shard relies on this prefix to count error responses cheaply.
        assert encode_error(1, "internal", "x").startswith(b'{"error"')
        assert not encode_result(1, "x").startswith(b'{"error"')


class TestErrorMapping:
    def test_library_exceptions_map_onto_the_closed_set(self):
        assert error_code_for_exception(OutOfBoundsError("x")) == "out_of_bounds"
        assert error_code_for_exception(ValueNotFoundError("x")) == "value_not_found"
        assert (
            error_code_for_exception(InvalidOperationError("x"))
            == "invalid_operation"
        )
        assert error_code_for_exception(BinarizationError("x")) == "malformed"
        assert error_code_for_exception(RuntimeError("x")) == "internal"
        assert error_code_for_exception(ProtocolError("oversized", "x")) == "oversized"

    def test_every_mapped_code_is_declared(self):
        for error in (
            OutOfBoundsError("x"),
            ValueNotFoundError("x"),
            InvalidOperationError("x"),
            RuntimeError("x"),
        ):
            assert error_code_for_exception(error) in ERROR_CODES
