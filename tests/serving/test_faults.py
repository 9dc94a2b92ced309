"""Fault injection: the server under slow handlers, crashes, skewed clocks,
hostile frames and vanishing clients.

Everything is deterministic: faults are scripted per tick, slowness is
``asyncio.sleep(0)`` yield turns, and time is a fake clock the script
advances -- no wall-clock sleeps anywhere.
"""

import asyncio
import json

import pytest

from repro.db.column import CompressedColumn
from repro.serving import (
    FaultInjector,
    FaultPlan,
    IndexServer,
    IndexShard,
    NDJSONClient,
    Request,
    ServerConfig,
)

VALUES = ["app/a", "app/b", "b", "app/a"]


def make_column() -> CompressedColumn:
    return CompressedColumn("urls", VALUES, tiered=True)


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    """A manually-advanced clock; the shard adds fault skew on top."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


class TestSlowHandlers:
    def test_slow_batch_only_delays_it_does_not_corrupt(self):
        faults = FaultInjector().script(FaultPlan(yield_turns=40))

        async def main():
            shard = IndexShard("s", make_column(), faults=faults)
            answers = await asyncio.gather(
                *[
                    shard.submit(Request(op="access", id=i, args={"pos": i % 4}))
                    for i in range(8)
                ]
            )
            await shard.drain()
            return answers

        answers = run(main())
        for i, frame in enumerate(answers):
            payload = json.loads(frame)
            assert payload["ok"] and payload["result"] == VALUES[i % 4]
        assert faults.applied["yield_turns"] == 40

    def test_requests_arriving_during_a_slow_batch_form_the_next_tick(self):
        faults = FaultInjector().script(FaultPlan(yield_turns=10))

        async def main():
            shard = IndexShard("s", make_column(), faults=faults)
            first = asyncio.ensure_future(
                shard.submit(Request(op="access", id="a", args={"pos": 0}))
            )
            await asyncio.sleep(0)  # let the pump pin tick 1 and go slow
            late = asyncio.ensure_future(
                shard.submit(Request(op="access", id="b", args={"pos": 1}))
            )
            frames = await asyncio.gather(first, late)
            await shard.drain()
            return frames, shard.metrics.ticks

        frames, ticks = run(main())
        assert all(json.loads(f)["ok"] for f in frames)
        assert ticks >= 2  # the late request ran in its own tick


class TestCrashes:
    def test_a_crashing_tick_fails_its_requests_and_spares_the_next(self):
        faults = FaultInjector().script(FaultPlan(crash=RuntimeError("disk on fire")))

        async def main():
            shard = IndexShard("s", make_column(), faults=faults)
            crashed = await asyncio.gather(
                *[
                    shard.submit(Request(op="access", id=i, args={"pos": 0}))
                    for i in range(3)
                ]
            )
            healthy = await shard.submit(
                Request(op="access", id="ok", args={"pos": 0})
            )
            await shard.drain()
            return crashed, healthy

        crashed, healthy = run(main())
        for frame in crashed:
            payload = json.loads(frame)
            assert not payload["ok"]
            assert payload["error"]["code"] == "internal"
            assert payload["error"]["message"] == "disk on fire"
        assert json.loads(healthy)["ok"]
        assert faults.applied["crashes"] == 1


class TestTimeouts:
    def test_clock_skew_expires_queued_requests_with_a_typed_error(self):
        clock = FakeClock()
        # Tick 1: advance the clock far past the timeout while requests for
        # tick 2 are already queued behind the slow batch.
        faults = FaultInjector().script(
            FaultPlan(yield_turns=6, advance_clock=10.0)
        )

        async def main():
            shard = IndexShard(
                "s",
                make_column(),
                request_timeout=1.0,
                clock=clock,
                faults=faults,
            )
            first = asyncio.ensure_future(
                shard.submit(Request(op="access", id="fast", args={"pos": 0}))
            )
            await asyncio.sleep(0)  # pump pins tick 1, fault starts burning
            late = asyncio.ensure_future(
                shard.submit(Request(op="rank", id="late", args={"value": "b", "pos": 2}))
            )
            frames = await asyncio.gather(first, late)
            await shard.drain()
            return [json.loads(f) for f in frames]

        fast, late = run(main())
        assert fast["ok"]
        assert not late["ok"]
        assert late["error"]["code"] == "timeout"
        assert shard_error_count(late) == 1

    def test_no_timeout_configured_means_no_expiry(self):
        clock = FakeClock()
        faults = FaultInjector().script(FaultPlan(advance_clock=1e6))

        async def main():
            shard = IndexShard("s", make_column(), clock=clock, faults=faults)
            first = await shard.submit(Request(op="access", id=1, args={"pos": 0}))
            second = await shard.submit(Request(op="access", id=2, args={"pos": 1}))
            await shard.drain()
            return [json.loads(f) for f in (first, second)]

        assert all(p["ok"] for p in run(main()))


def shard_error_count(payload) -> int:
    return 1 if not payload["ok"] else 0


class TestBackpressure:
    def test_submissions_beyond_the_bound_are_rejected_immediately(self):
        async def main():
            shard = IndexShard("s", make_column(), max_pending=2)
            # gather starts all submits before the pump gets a turn, so the
            # queue bound is hit deterministically by the 3rd..5th request.
            frames = await asyncio.gather(
                *[
                    shard.submit(Request(op="access", id=i, args={"pos": 0}))
                    for i in range(5)
                ]
            )
            await shard.drain()
            return [json.loads(f) for f in frames], shard.metrics

        payloads, metrics = run(main())
        rejected = [p for p in payloads if not p["ok"]]
        served = [p for p in payloads if p["ok"]]
        assert len(served) == 2 and len(rejected) == 3
        assert {p["error"]["code"] for p in rejected} == {"overloaded"}
        assert metrics.errors["overloaded"] == 3


class TestHostileFrames:
    def test_oversized_frame_gets_a_typed_error_and_the_connection_closes(
        self, tmp_path
    ):
        path = str(tmp_path / "f1.sock")

        async def main():
            server = IndexServer(
                make_column(),
                ServerConfig(unix_path=path, max_frame_bytes=256),
            )
            await server.start()
            client = await NDJSONClient.connect(path)
            # Past max_frame_bytes + the stream slack, so readline() itself
            # overflows and the server cannot resync at a newline.
            huge = json.dumps({"op": "append", "value": "x" * 5000}).encode() + b"\n"
            line = await client.call_raw(huge)
            follow_up_dead = False
            try:
                await client.call(op="ping")
            except ConnectionError:
                follow_up_dead = True
            await client.close()
            # A fresh connection still works: the fault was per-connection.
            fresh = await NDJSONClient.connect(path)
            pong = await fresh.call(op="ping")
            await fresh.close()
            await server.stop()
            return json.loads(line), follow_up_dead, pong

        payload, closed, pong = run(main())
        assert not payload["ok"]
        assert payload["error"]["code"] == "oversized"
        assert closed
        assert pong["result"] == "pong"

    def test_oversized_but_parseable_frame_keeps_the_connection(self, tmp_path):
        # Over the protocol limit yet under the stream buffer: the server
        # can resync at the newline, so only the one frame is rejected.
        path = str(tmp_path / "f2.sock")

        async def main():
            config = ServerConfig(unix_path=path)
            config.max_frame_bytes = 128
            server = IndexServer(make_column(), config)
            server.config.max_frame_bytes = 128
            await server.start()
            client = await NDJSONClient.connect(path)
            big = json.dumps({"op": "append", "value": "y" * 200, "id": 5}).encode() + b"\n"
            first = json.loads(await client.call_raw(big))
            second = await client.call(op="ping")
            await client.close()
            await server.stop()
            return first, second

        first, second = run(main())
        assert first["error"]["code"] == "oversized"
        assert first["id"] == 5  # id salvaged from the rejected frame
        assert second["result"] == "pong"

    def test_malformed_frames_answer_typed_errors_and_keep_the_stream(
        self, tmp_path
    ):
        path = str(tmp_path / "f3.sock")
        lines = [
            (b"this is not json\n", "malformed"),
            (b"[1,2,3]\n", "malformed"),
            (b'{"op":"frobnicate"}\n', "bad_request"),
            (b'{"op":"access"}\n', "bad_request"),
            (b'{"op":"access","pos":true}\n', "malformed"),
            (b'{"op":"access","pos":0,"shard":"nope"}\n', "unknown_shard"),
        ]

        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=path))
            await server.start()
            client = await NDJSONClient.connect(path)
            seen = []
            for line, _ in lines:
                seen.append(json.loads(await client.call_raw(line)))
            healthy = await client.call(op="access", pos=0)
            await client.close()
            await server.stop()
            return seen, healthy, server.metrics

        seen, healthy, metrics = run(main())
        for (line, code), payload in zip(lines, seen):
            assert not payload["ok"]
            assert payload["error"]["code"] == code, line
        assert healthy["ok"] and healthy["result"] == "app/a"
        assert metrics.errors["malformed"] == 3
        assert metrics.errors["bad_request"] == 2
        assert metrics.errors["unknown_shard"] == 1

    def test_deeply_nested_frame_is_malformed_and_keeps_the_stream(
        self, tmp_path
    ):
        # Under the 1 MiB frame limit, but json.loads recurses past the
        # interpreter's limit on it.
        path = str(tmp_path / "f4.sock")
        deep = b"[" * 100_000 + b"]" * 100_000 + b"\n"

        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=path))
            await server.start()
            client = await NDJSONClient.connect(path)
            try:
                first = json.loads(
                    await asyncio.wait_for(client.call_raw(deep), 5)
                )
                second = await asyncio.wait_for(client.call(op="ping"), 5)
            finally:
                await client.close()
                await server.stop()
            return first, second, server.metrics

        first, second, metrics = run(main())
        assert first["error"]["code"] == "malformed"
        assert second["result"] == "pong"
        assert metrics.errors["malformed"] == 1

    def test_a_raising_dispatch_answers_internal_and_keeps_the_stream(
        self, tmp_path, caplog
    ):
        path = str(tmp_path / "f5.sock")

        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=path))
            dispatch = server.dispatch

            async def flaky(request):
                if request.id == "boom":
                    raise RuntimeError("injected dispatch failure")
                return await dispatch(request)

            server.dispatch = flaky
            await server.start()
            client = await NDJSONClient.connect(path, max_inflight=2)
            try:
                failed = await client.submit(
                    b'{"op":"access","pos":0,"id":"boom"}\n'
                )
                healthy = await client.submit(
                    b'{"op":"access","pos":1,"id":"next"}\n'
                )
                first = json.loads(await asyncio.wait_for(failed, 5))
                second = json.loads(await asyncio.wait_for(healthy, 5))
            finally:
                await client.close()
                await server.stop()
            return first, second, server.metrics

        first, second, metrics = run(main())
        assert first["id"] == "boom"
        assert first["error"] == {
            "code": "internal", "message": "injected dispatch failure"
        }
        assert second["id"] == "next" and second["result"] == "app/b"
        assert metrics.errors["internal"] == 1
        logged = [r for r in caplog.records if r.name == "repro.serving.server"]
        assert len(logged) == 1 and logged[0].exc_info is not None


class TestDisconnects:
    def test_client_vanishing_mid_batch_does_not_poison_the_tick(self, tmp_path):
        """One client sends a request and disconnects before the (slowed)
        tick answers; the surviving clients still get correct frames."""
        path = str(tmp_path / "d1.sock")
        faults = FaultInjector().script(FaultPlan(yield_turns=30))

        async def main():
            server = IndexServer(
                make_column(), ServerConfig(unix_path=path), faults=faults
            )
            await server.start()
            doomed = await NDJSONClient.connect(path)
            survivors = [await NDJSONClient.connect(path) for _ in range(3)]

            async def fire_and_vanish():
                doomed._writer.write(
                    b'{"op":"access","pos":0,"id":"doomed"}\n'
                )
                await doomed._writer.drain()
                await doomed.close()  # gone before the response lands

            async def survivor(client, i):
                return await client.call(op="access", pos=i % 4, id=i)

            results = await asyncio.gather(
                fire_and_vanish(),
                *[survivor(c, i) for i, c in enumerate(survivors)],
            )
            for client in survivors:
                await client.close()
            await server.stop()
            return results[1:]

        for i, payload in enumerate(run(main())):
            assert payload["ok"] and payload["result"] == VALUES[i % 4]


class TestDrain:
    def test_drain_answers_queued_work_then_rejects_new_requests(self):
        async def main():
            shard = IndexShard("s", make_column(), faults=FaultInjector().script(
                FaultPlan(yield_turns=5)
            ))
            queued = [
                asyncio.ensure_future(
                    shard.submit(Request(op="access", id=i, args={"pos": 0}))
                )
                for i in range(4)
            ]
            await asyncio.sleep(0)  # pump picks the batch up
            await shard.drain()
            late = await shard.submit(Request(op="ping", id="late", args={}))
            return [json.loads(await q) for q in queued], json.loads(late)

        queued, late = run(main())
        assert all(p["ok"] for p in queued)
        assert late["error"]["code"] == "shutting_down"

    def test_server_stop_rejects_dispatch_with_shutting_down(self):
        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=None))
            server._stopping = True
            frame = await server.dispatch(
                Request(op="access", id=1, args={"pos": 0})
            )
            return json.loads(frame)

        assert run(main())["error"]["code"] == "shutting_down"
