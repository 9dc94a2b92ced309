"""Coalescing equivalence: batched responses byte-identical to serial ones.

Two layers of the same property:

* **Tick level** (pure, no event loop): one :func:`run_read_tick` over a
  mixed batch returns exactly the frames that per-request singleton ticks
  return, which in turn match a hand-rolled scalar replay through
  :class:`~repro.db.column.ColumnSnapshot` -- including every typed error.
* **Server level** (real asyncio, real sockets): the same request set fired
  concurrently over many connections against a coalescing server and a
  coalescing-disabled server yields byte-identical response frames, and the
  coalescing server's metrics prove multi-request batches actually formed.
* **Write level**: a tick whose combined ``extend`` holds a value the codec
  rejects answers every request exactly as one tick per request does.
* **Read level**: so does a tick holding a read whose key the codec
  rejects; that read's group is answered one request at a time.

Randomised cases are seeded -- every run replays the same schedules.
"""

import asyncio
import random

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.bits.bitstring import Bits
from repro.db.column import CompressedColumn
from repro.serving import (
    IndexServer,
    IndexShard,
    NDJSONClient,
    Request,
    ServerConfig,
    encode_error,
    encode_result,
    error_code_for_exception,
    error_message,
    run_read_tick,
)
from repro.tries.binarize import StringCodec

UNIVERSE = ["app/li", "app/lo", "app/le", "apricot", "banana", "b", ""]
PREFIXES = ["app/", "app/l", "ap", "b", "zzz", ""]
MISSING = ["zebra", "app/lix"]


def make_column(rows: int = 120, seed: int = 7) -> CompressedColumn:
    rng = random.Random(seed)
    return CompressedColumn(
        "urls", [rng.choice(UNIVERSE) for _ in range(rows)], tiered=True
    )


def random_requests(count: int, rows: int, seed: int) -> list:
    """A seeded mix of all five read ops, valid and invalid alike."""
    rng = random.Random(seed)
    requests = []
    for i in range(count):
        op = rng.choice(
            ["access", "rank", "select", "rank_prefix", "select_prefix"]
        )
        value = rng.choice(UNIVERSE + MISSING)
        prefix = rng.choice(PREFIXES + MISSING)
        pos = rng.randint(-2, rows + 2)
        idx = rng.randint(-2, rows + 2)
        args = {
            "access": {"pos": pos},
            "rank": {"value": value, "pos": pos},
            "select": {"value": value, "idx": idx},
            "rank_prefix": {"prefix": prefix, "pos": pos},
            "select_prefix": {"prefix": prefix, "idx": idx},
        }[op]
        requests.append(Request(op=op, id=i, args=args))
    return requests


def scalar_frame(snapshot, request: Request) -> bytes:
    """The serial oracle: one scalar ColumnSnapshot call per request."""
    calls = {
        "access": lambda: snapshot.access(request.args["pos"]),
        "rank": lambda: snapshot.rank(request.args["value"], request.args["pos"]),
        "select": lambda: snapshot.select(
            request.args["value"], request.args["idx"]
        ),
        "rank_prefix": lambda: snapshot.rank_prefix(
            request.args["prefix"], request.args["pos"]
        ),
        "select_prefix": lambda: snapshot.select_prefix(
            request.args["prefix"], request.args["idx"]
        ),
    }
    try:
        result = calls[request.op]()
    except Exception as error:
        return encode_error(
            request.id, error_code_for_exception(error), error_message(error)
        )
    return encode_result(request.id, result, snapshot.version)


class TestTickEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_tick_matches_singleton_ticks_and_scalar_replay(self, seed):
        column = make_column(seed=seed)
        snapshot = column.snapshot()
        requests = random_requests(80, len(column), seed)
        batched = run_read_tick(snapshot, requests)
        singletons = [
            run_read_tick(snapshot, [request])[0] for request in requests
        ]
        assert batched == singletons
        assert batched == [scalar_frame(snapshot, r) for r in requests]

    def test_scalar_results_agree_with_the_naive_oracle(self):
        column = make_column()
        naive = NaiveIndexedSequence(column.values())
        snapshot = column.snapshot()
        requests = [r for r in random_requests(120, len(column), 13)]
        frames = run_read_tick(snapshot, requests)
        import json

        for request, frame in zip(requests, frames):
            payload = json.loads(frame)
            if not payload["ok"]:
                continue
            expected = {
                "access": lambda: naive.access(request.args["pos"]),
                "rank": lambda: naive.rank(
                    request.args["value"], request.args["pos"]
                ),
                "select": lambda: naive.select(
                    request.args["value"], request.args["idx"]
                ),
                "rank_prefix": lambda: naive.rank_prefix(
                    request.args["prefix"], request.args["pos"]
                ),
                "select_prefix": lambda: naive.select_prefix(
                    request.args["prefix"], request.args["idx"]
                ),
            }[request.op]()
            assert payload["result"] == expected, request

    def test_empty_tick(self):
        assert run_read_tick(make_column().snapshot(), []) == []

    def test_duplicate_requests_coalesce_to_identical_frames(self):
        column = make_column()
        snapshot = column.snapshot()
        request = Request(op="rank", id=None, args={"value": "banana", "pos": 50})
        frames = run_read_tick(snapshot, [request] * 17)
        assert len(set(frames)) == 1


async def _serve_and_fire(tmp_path, coalesce: bool, requests, connections: int):
    """Fire the request set over ``connections`` concurrent clients."""
    column = make_column()
    path = str(tmp_path / f"eq-{int(coalesce)}.sock")
    server = IndexServer(
        column, ServerConfig(unix_path=path, coalesce=coalesce)
    )
    await server.start()
    try:
        clients = [
            await NDJSONClient.connect(path) for _ in range(connections)
        ]
        lanes = [requests[i::connections] for i in range(connections)]

        async def lane(client, mine):
            return [
                (request.id, await client.call_raw(_wire(request)))
                for request in mine
            ]

        answers = await asyncio.gather(
            *[lane(c, m) for c, m in zip(clients, lanes)]
        )
        for client in clients:
            await client.close()
        frames = dict(pair for chunk in answers for pair in chunk)
        return frames, server.metrics
    finally:
        await server.stop()


def _wire(request: Request) -> bytes:
    import json

    payload = {"op": request.op, "id": request.id, **request.args}
    return json.dumps(payload).encode() + b"\n"


class TestServerEquivalence:
    def test_concurrent_coalesced_responses_match_serial_server_byte_for_byte(
        self, tmp_path
    ):
        requests = random_requests(192, 120, seed=29)

        async def main():
            coalesced, metrics = await _serve_and_fire(
                tmp_path, True, requests, connections=24
            )
            serial, _ = await _serve_and_fire(
                tmp_path, False, requests, connections=24
            )
            return coalesced, serial, metrics

        coalesced, serial, metrics = asyncio.run(main())
        assert set(coalesced) == set(serial) == {r.id for r in requests}
        for request_id in coalesced:
            assert coalesced[request_id] == serial[request_id]
        # The property is only interesting if batches actually formed.
        assert max(metrics.max_batch.values()) > 1

    def test_serial_server_never_forms_multi_request_batches(self, tmp_path):
        requests = random_requests(64, 120, seed=31)

        async def main():
            return await _serve_and_fire(tmp_path, False, requests, 16)

        _, metrics = asyncio.run(main())
        assert max(metrics.max_batch.values()) == 1

    def test_concurrent_appends_coalesce_into_bulk_extends(self, tmp_path):
        """Appends from many connections land exactly once each, and the
        tick loop turns them into fewer bulk ``extend`` calls than appends."""
        column = CompressedColumn("burst", ["seed"], tiered=True)
        path = str(tmp_path / "writes.sock")

        async def main():
            server = IndexServer(column, ServerConfig(unix_path=path, compact_budget=8))
            await server.start()
            try:
                clients = [await NDJSONClient.connect(path) for _ in range(4)]

                async def writer(client, lane):
                    for i in range(25):
                        response = await client.call(op="append", value=f"w{lane}-{i}")
                        assert response["ok"], response

                await asyncio.gather(*(writer(c, lane) for lane, c in enumerate(clients)))
                for client in clients:
                    await client.close()
                return server.metrics.batches["write"]
            finally:
                await server.stop()

        bulk_extends = asyncio.run(main())
        assert len(column) == 101
        assert sorted(column.index.to_list()[1:]) == sorted(
            f"w{lane}-{i}" for lane in range(4) for i in range(25)
        )
        assert bulk_extends < 100


REJECTED_TICK = [
    Request(op="extend", id="bad", args={"values": ["x", "bad\u0000"]}),
    Request(op="extend", id="good", args={"values": ["good1", "good2"]}),
]


async def _serve_writes(together: bool):
    """Run :data:`REJECTED_TICK` in one tick or one tick per request, then
    an append and a read; returns every frame and the column's rows."""
    column = CompressedColumn("c", ["seed"], tiered=True)
    shard = IndexShard("c", column)
    if together:
        frames = list(await asyncio.gather(*map(shard.submit, REJECTED_TICK)))
        assert shard.metrics.ticks == 1
    else:
        frames = [await shard.submit(request) for request in REJECTED_TICK]
    frames.append(
        await shard.submit(Request(op="append", id="after", args={"value": "after"}))
    )
    frames.append(await shard.submit(Request(op="access", id="read", args={"pos": 1})))
    await shard.drain()
    return frames, column.index.to_list()


class TestRejectedWriteInACoalescedTick:
    def test_a_rejected_write_fails_alone_and_changes_nothing(self):
        """``extend`` is all or nothing, so a tick whose combined ``extend``
        raises changed nothing, and the shard then applies its requests one
        at a time: the frames equal one tick per request."""
        coalesced, rows = asyncio.run(_serve_writes(together=True))
        serial, serial_rows = asyncio.run(_serve_writes(together=False))
        assert coalesced == serial
        assert rows == serial_rows == ["seed", "good1", "good2", "after"]
        assert coalesced == [
            encode_error(
                "bad", "malformed", "Utf8Codec values must not contain NUL bytes"
            ),
            encode_result("good", {"appended": 2}, 3),
            encode_result("after", {"appended": 1}, 4),
            encode_result("read", "good1", 4),
        ]

    def test_an_error_after_rows_landed_fails_the_tick_and_applies_nothing_twice(self):
        """A codec that is not prefix-free lets the combined ``extend`` land
        ``"01"`` and then raise on ``"0"``, a prefix of it.  Rows landed, so
        the shard must not retry the requests one at a time: that would
        append ``"01"`` a second time."""

        class RawBitsCodec(StringCodec):
            def to_bits(self, value):
                return Bits.from_string(value)

            def from_bits(self, bits):
                return bits.to01()

            def prefix_to_bits(self, prefix):
                return Bits.from_string(prefix)

        async def serve():
            column = CompressedColumn("c", ["00"], codec=RawBitsCodec(), tiered=True)
            shard = IndexShard("c", column)
            ticket = [
                Request(op="extend", id="new", args={"values": ["01"]}),
                Request(op="extend", id="prefix", args={"values": ["0"]}),
            ]
            frames = await asyncio.gather(*map(shard.submit, ticket))
            await shard.drain()
            return frames, column

        frames, column = asyncio.run(serve())
        assert column.index.to_list() == ["00", "01"]
        assert len(column) == 2
        message = "inserting this value would violate prefix-freeness"
        assert frames == [
            encode_error("new", "malformed", message),
            encode_error("prefix", "malformed", message),
        ]


# A read the codec rejects beside two good reads: every read answers as if
# it ran alone.
REJECTED_READ_TICK = [
    Request(op="rank", id="bad", args={"value": "a\u0000", "pos": 2}),
    Request(op="rank", id="good", args={"value": "good1", "pos": 3}),
    Request(op="access", id="read", args={"pos": 1}),
]


def _rejected_read_frames(column):
    """The frames a serial server sends for :data:`REJECTED_READ_TICK`."""
    version = len(column)
    return [
        encode_error(
            "bad", "malformed", "Utf8Codec values must not contain NUL bytes"
        ),
        encode_result("good", 0, version),
        encode_result("read", column.index.access(1), version),
    ]


async def _serve_reads_in_one_write(tmp_path, coalesce: bool):
    """Send :data:`REJECTED_READ_TICK` in one socket write; return the
    frames and the number of ticks the server ran."""
    column = make_column()
    path = str(tmp_path / f"reads-{int(coalesce)}.sock")
    server = IndexServer(column, ServerConfig(unix_path=path, coalesce=coalesce))
    await server.start()
    try:
        client = await NDJSONClient.connect(path, max_inflight=len(REJECTED_READ_TICK))
        futures = await client.submit_many([_wire(r) for r in REJECTED_READ_TICK])
        frames = [await future for future in futures]
        await client.close()
        return column, frames, server.metrics.ticks
    finally:
        await server.stop()


class TestRejectedReadInACoalescedTick:
    def test_a_rejected_read_fails_alone_in_its_tick(self):
        """The rejected group is answered one request at a time, so the
        other groups of the tick keep their answers."""
        column = make_column()
        snapshot = column.snapshot()
        frames = run_read_tick(snapshot, REJECTED_READ_TICK)
        assert frames == [scalar_frame(snapshot, r) for r in REJECTED_READ_TICK]
        assert frames == _rejected_read_frames(column)

    def test_a_rejected_group_is_answered_per_request(self):
        """Two requests share the rejected group; each gets its own frame."""
        column = make_column()
        snapshot = column.snapshot()
        requests = [
            Request(op="rank_prefix", id=1, args={"prefix": "x\u0000", "pos": 0}),
            Request(op="rank_prefix", id=2, args={"prefix": "x\u0000", "pos": 999}),
            Request(op="select", id=3, args={"value": "banana", "idx": 0}),
        ]
        frames = run_read_tick(snapshot, requests)
        assert frames == [scalar_frame(snapshot, r) for r in requests]
        assert frames[0] == encode_error(
            1, "malformed", "Utf8Codec prefixes must not contain NUL bytes"
        )
        assert frames[1] == encode_error(
            2, "out_of_bounds", "rank position 999 out of range for length 120"
        )

    def test_coalesced_server_answers_like_the_serial_server(self, tmp_path):
        async def main():
            coalesced = await _serve_reads_in_one_write(tmp_path, True)
            serial = await _serve_reads_in_one_write(tmp_path, False)
            return coalesced, serial

        (column, coalesced, ticks), (_, serial, serial_ticks) = asyncio.run(main())
        # One write is one tick when coalescing, one tick per read without.
        assert (ticks, serial_ticks) == (1, len(REJECTED_READ_TICK))
        assert coalesced == serial == _rejected_read_frames(column)
