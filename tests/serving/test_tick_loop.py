"""The one tick loop both front ends run, and the cluster's use of it.

:class:`~repro.serving.shard.TickLoop` owns the queues, the pump, the
gather window and admission; :class:`~repro.serving.shard.IndexShard` and
:class:`~repro.serving.cluster.ClusterSupervisor` supply only the write and
read steps.  The hermetic tests drive a recording loop directly; the
cluster tests fork real workers to check that the supervisor honours the
server options the loop and its workers read (``coalesce``,
``compact_budget``).  The last class checks that frames arriving in one
socket read share one tick, on one process and through a scatter round.
"""

from __future__ import annotations

import asyncio
import json
from typing import List

from repro.db.column import CompressedColumn
from repro.serving.cluster import ClusterConfig, ClusterSupervisor
from repro.serving.protocol import Request, encode_request, encode_result
from repro.serving.server import IndexServer, NDJSONClient, ServerConfig
from repro.serving.shard import TickLoop
from repro.storage.shards import export_shard_images


class RecordingLoop(TickLoop):
    """A loop whose steps log what each tick saw; writes await the loop."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.log: List[tuple] = []
        self.during_write = None  # coroutine factory run inside a write step

    async def _apply_writes(self, requests: List[Request]) -> List[bytes]:
        self.log.append(("writes", self.metrics.ticks, [r.id for r in requests]))
        if self.during_write is not None:
            hook, self.during_write = self.during_write, None
            await hook()
        return [encode_result(r.id, "written") for r in requests]

    async def _answer_reads(self, requests: List[Request]) -> List[bytes]:
        if requests:
            self.log.append(("reads", self.metrics.ticks, [r.id for r in requests]))
        return [encode_result(r.id, "read") for r in requests]


def write(request_id) -> Request:
    return Request(op="append", id=request_id, args={"value": "v"})


def read(request_id) -> Request:
    return Request(op="access", id=request_id, args={"pos": 0})


class TestTickLoop:
    def test_writes_arriving_during_the_write_step_join_the_tick(self):
        async def main():
            loop = RecordingLoop()
            late: List["asyncio.Future"] = []

            async def submit_more():
                # Arrive while the tick is awaiting its write step.
                late.append(asyncio.ensure_future(loop.submit(write("w2"))))
                late.append(asyncio.ensure_future(loop.submit(read("r2"))))
                for _ in range(3):
                    await asyncio.sleep(0)

            loop.during_write = submit_more
            first = await asyncio.gather(loop.submit(write("w1")), loop.submit(read("r1")))
            await asyncio.gather(*late)
            await loop.drain()
            return loop.log, first

        log, first = asyncio.run(main())
        assert [json.loads(frame)["result"] for frame in first] == ["written", "read"]
        # One tick: w1, then the late w2, then every read -- reads last.
        assert log == [
            ("writes", 1, ["w1"]),
            ("writes", 1, ["w2"]),
            ("reads", 1, ["r1", "r2"]),
        ]

    def test_without_coalescing_each_tick_answers_one_read(self):
        async def main():
            loop = RecordingLoop(coalesce=False, coalesce_window=4)
            await asyncio.gather(*(loop.submit(read(i)) for i in range(4)))
            await loop.drain()
            return loop.log

        assert asyncio.run(main()) == [("reads", i + 1, [i]) for i in range(4)]


def export(tmp_path, workers: int, values=None) -> str:
    image_dir = tmp_path / "images"
    values = values if values is not None else [f"app/{i % 5}" for i in range(60)]
    export_shard_images(
        {"default": CompressedColumn("default", values, appendable=True)},
        image_dir,
        workers,
    )
    return str(image_dir)


class TestClusterOptions:
    def test_workers_receive_the_compact_budget(self, tmp_path):
        cluster = ClusterSupervisor(
            ServerConfig(unix_path=str(tmp_path / "sup.sock"), compact_budget=8),
            ClusterConfig(image_dir=export(tmp_path, 2)),
        )
        tail = cluster._workers[cluster.partition.tail]
        command = cluster._command(tail)
        assert command[command.index("--compact-budget") + 1] == "8"

    def test_coalesce_off_means_one_read_per_tick(self, tmp_path):
        image_dir = export(tmp_path, 2)

        async def run(coalesce: bool):
            cluster = ClusterSupervisor(
                ServerConfig(
                    unix_path=str(tmp_path / f"sup-{coalesce}.sock"),
                    coalesce=coalesce,
                ),
                ClusterConfig(image_dir=image_dir, restart_backoff=0.0),
            )
            await cluster.start()
            try:
                client = await NDJSONClient.connect(
                    cluster.config.unix_path, max_inflight=16
                )
                futures = [
                    await client.submit(
                        encode_request("rank", id=i, value="app/1", pos=i * 7)
                    )
                    for i in range(8)
                ]
                frames = [await future for future in futures]
                await client.close()
            finally:
                await cluster.stop()
            return frames, cluster.metrics.ticks, cluster.stats()["config"]

        serial, serial_ticks, config = asyncio.run(run(False))
        coalesced, _, _ = asyncio.run(run(True))
        assert config["coalesce"] is False
        assert serial_ticks == 8
        assert serial == coalesced


async def send_round(reader, writer, frames: List[bytes]) -> List[dict]:
    """Write ``frames`` in one write, then read one response per frame."""
    writer.write(b"".join(frames))
    await writer.drain()
    lines = [
        await asyncio.wait_for(reader.readline(), 10) for _ in range(len(frames))
    ]
    return [json.loads(line) for line in lines]


class TestFramesOfOneRead:
    """Frames that reach a server in one socket read share one tick."""

    def test_one_write_of_sixteen_frames_is_one_tick(self, tmp_path):
        path = str(tmp_path / "srv.sock")
        values = ["app/a", "app/b", "blog"] * 10

        async def main():
            server = IndexServer(
                CompressedColumn("default", values, appendable=True),
                ServerConfig(unix_path=path),
            )
            await server.start()
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                responses = await send_round(
                    reader,
                    writer,
                    [
                        encode_request("rank", id=i, value="app/a", pos=i)
                        for i in range(16)
                    ],
                )
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return responses, server.metrics.snapshot()

        responses, metrics = asyncio.run(main())
        assert [r["result"] for r in responses] == [
            values[:i].count("app/a") for i in range(16)
        ]
        assert metrics["ticks"] == 1
        assert metrics["batches"]["rank"]["batches"] == 1
        assert metrics["batches"]["rank"]["requests"] == 16

    def test_a_scatter_round_reaches_its_worker_in_one_tick(self, tmp_path):
        values = [f"app/{i % 5}" for i in range(120)]
        image_dir = export(tmp_path, 2, values)

        async def main():
            cluster = ClusterSupervisor(
                ServerConfig(unix_path=str(tmp_path / "sup.sock")),
                ClusterConfig(image_dir=image_dir, restart_backoff=0.0),
            )
            await cluster.start()
            reader, writer = await asyncio.open_unix_connection(
                cluster.config.unix_path
            )
            try:
                results = []
                for _ in range(5):
                    responses = await send_round(
                        reader,
                        writer,
                        [encode_request("access", pos=i) for i in range(16)],
                    )
                    results.append([r["result"] for r in responses])
                (stats,) = await send_round(
                    reader, writer, [encode_request("stats")]
                )
            finally:
                writer.close()
                await writer.wait_closed()
                await cluster.stop()
            return results, stats["result"]

        results, stats = asyncio.run(main())
        assert results == [values[:16]] * 5
        worker = stats["worker_metrics"]["0"]
        assert worker["ticks"] == 5
        assert worker["batches"]["access"]["mean_size"] == 16
        assert stats["supervisor_metrics"]["ticks"] == 5

    def test_submit_many_past_the_inflight_bound_keeps_fifo(self, tmp_path):
        path = str(tmp_path / "srv.sock")

        async def main():
            server = IndexServer(
                CompressedColumn("default", ["a", "b"] * 10, appendable=True),
                ServerConfig(unix_path=path),
            )
            await server.start()
            client = await NDJSONClient.connect(path, max_inflight=4)
            try:
                # Ten frames through four slots, raced by single submits:
                # every future still resolves to its own frame's answer.
                batch = client.submit_many(
                    [encode_request("access", id=f"m{i}", pos=i) for i in range(10)]
                )
                singles = [
                    client.submit(encode_request("access", id=f"s{i}", pos=i))
                    for i in range(6)
                ]
                many, *single = await asyncio.gather(batch, *singles)
                futures = many + single
                responses = [
                    json.loads(await asyncio.wait_for(f, 10)) for f in futures
                ]
            finally:
                await client.close()
                await server.stop()
            return responses

        responses = asyncio.run(main())
        ids = [f"m{i}" for i in range(10)] + [f"s{i}" for i in range(6)]
        assert [r["id"] for r in responses] == ids
        assert [r["result"] for r in responses] == (
            [["a", "b"][i % 2] for i in range(10)]
            + [["a", "b"][i % 2] for i in range(6)]
        )
