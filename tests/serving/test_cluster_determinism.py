"""Cross-process determinism: the cluster answers byte-for-byte like the
single-process server.

The headline contract of the sharded cluster is that sharding is
*invisible*: for any sequenced request log (reads pipelined freely, writes
ordered), the frames a :class:`~repro.serving.cluster.ClusterSupervisor`
returns are byte-identical to what one
:class:`~repro.serving.server.IndexServer` over the unsharded column
returns -- same results, same versions, same error codes and messages.

These tests fork real worker processes: data reaches the workers through
RWT2 shard images on disk, subrequests travel over per-worker unix
sockets, and responses scatter-gather back through the supervisor --
everything the production topology does, under deterministic logs.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Dict, List

from repro.db.column import CompressedColumn
from repro.serving.cluster import ClusterConfig, ClusterSupervisor
from repro.serving.protocol import encode_request
from repro.serving.server import IndexServer, NDJSONClient, ServerConfig
from repro.storage.shards import export_shard_images

VALUES = ["app/a", "app/b", "app/cart", "blog/x", "blog", "b", "zzz"]


def make_values(n: int = 240, seed: int = 11) -> List[str]:
    rng = random.Random(seed)
    return [rng.choice(VALUES) for _ in range(n)]


def build_log(n: int, seed: int = 23, writes: bool = True) -> List[bytes]:
    """A deterministic mixed request log over a column of ``n`` rows.

    Tracks the growing length so positions stay interesting (a mix of
    valid, boundary, and out-of-range) as writes land.
    """
    rng = random.Random(seed)
    keys = VALUES + ["app/", "missing", ""]
    ops = ["access", "rank", "select", "rank_prefix", "select_prefix", "ping"]
    if writes:
        ops += ["extend", "append"]
    log: List[bytes] = []
    for i in range(180):
        op = rng.choice(ops)
        if op == "access":
            log.append(encode_request("access", id=i, pos=rng.randrange(-2, n + 40)))
        elif op == "rank":
            log.append(
                encode_request(
                    "rank", id=i, value=rng.choice(keys), pos=rng.randrange(0, n + 40)
                )
            )
        elif op == "select":
            log.append(
                encode_request(
                    "select", id=i, value=rng.choice(keys), idx=rng.randrange(-1, n)
                )
            )
        elif op == "rank_prefix":
            log.append(
                encode_request(
                    "rank_prefix",
                    id=i,
                    prefix=rng.choice(keys),
                    pos=rng.randrange(0, n + 40),
                )
            )
        elif op == "select_prefix":
            log.append(
                encode_request(
                    "select_prefix",
                    id=i,
                    prefix=rng.choice(keys),
                    idx=rng.randrange(0, n),
                )
            )
        elif op == "extend":
            values = [rng.choice(VALUES) for _ in range(rng.randrange(1, 4))]
            log.append(encode_request("extend", id=i, values=values))
            n += len(values)
        elif op == "append":
            log.append(encode_request("append", id=i, value=rng.choice(VALUES)))
            n += 1
        else:
            log.append(encode_request("ping", id=i))
    return log


async def replay(client: NDJSONClient, log: List[bytes]) -> List[bytes]:
    """Sequenced replay: reads pipeline, each write is an order barrier."""
    out: List[bytes] = []
    pending: List["asyncio.Future[bytes]"] = []
    for frame in log:
        if json.loads(frame)["op"] in ("extend", "append"):
            for future in pending:
                out.append(await future)
            pending = []
            out.append(await client.call_raw(frame))
        else:
            pending.append(await client.submit(frame))
    for future in pending:
        out.append(await future)
    return out


async def compare_cluster_to_single(
    tmp_path,
    columns: Dict[str, List[str]],
    log: List[bytes],
    num_workers: int,
) -> None:
    image_dir = tmp_path / f"images-{num_workers}"
    export_shard_images(
        {
            name: CompressedColumn(name, list(values), appendable=True)
            for name, values in columns.items()
        },
        image_dir,
        num_workers,
    )
    cluster = ClusterSupervisor(
        ServerConfig(unix_path=str(tmp_path / f"cluster-{num_workers}.sock")),
        ClusterConfig(image_dir=str(image_dir), restart_backoff=0.0),
    )
    single = IndexServer(
        {
            name: CompressedColumn(name, list(values), appendable=True)
            for name, values in columns.items()
        },
        ServerConfig(unix_path=str(tmp_path / f"single-{num_workers}.sock")),
    )
    await cluster.start()
    await single.start()
    try:
        clustered_client = await NDJSONClient.connect(
            cluster.config.unix_path, max_inflight=32
        )
        single_client = await NDJSONClient.connect(
            single.config.unix_path, max_inflight=32
        )
        clustered = await replay(clustered_client, log)
        unsharded = await replay(single_client, log)
        await clustered_client.close()
        await single_client.close()
    finally:
        await cluster.stop()
        await single.stop()
    assert len(clustered) == len(unsharded) == len(log)
    mismatched = [
        (got, want) for got, want in zip(clustered, unsharded) if got != want
    ]
    assert not mismatched, f"{len(mismatched)} frames differ: {mismatched[:3]}"


class TestClusterDeterminism:
    def test_mixed_log_byte_identical_across_worker_counts(self, tmp_path):
        values = make_values()
        log = build_log(len(values))
        for num_workers in (1, 3, 4):
            asyncio.run(
                compare_cluster_to_single(
                    tmp_path, {"default": values}, log, num_workers
                )
            )

    def test_read_only_log_byte_identical(self, tmp_path):
        values = make_values(150, seed=41)
        log = build_log(len(values), seed=42, writes=False)
        asyncio.run(
            compare_cluster_to_single(tmp_path, {"default": values}, log, 3)
        )

    def test_codec_rejected_reads_fail_alone(self, tmp_path):
        # A key holding NUL is rejected by the workers' codec, which the
        # supervisor cannot check: that read alone answers malformed, and
        # the valid reads pipelined beside it answer as one process does.
        values = make_values(120, seed=3)
        log: List[bytes] = []
        for i, op in enumerate(
            ["rank", "select", "rank_prefix", "select_prefix"] * 5
        ):
            field = "prefix" if op.endswith("_prefix") else "value"
            where = {"pos": 13 * i % 121} if op.startswith("rank") else {"idx": i % 4}
            bad = ("a\u0000", "app/\u0000")[i // 4 % 2]
            log.append(encode_request(op, id=f"bad{i}", **{field: bad}, **where))
            log.append(
                encode_request(op, id=f"ok{i}", **{field: VALUES[i % 7]}, **where)
            )
            log.append(encode_request("access", id=f"at{i}", pos=5 * i))
        for num_workers in (1, 2):
            asyncio.run(
                compare_cluster_to_single(
                    tmp_path, {"default": values}, log, num_workers
                )
            )

    def test_multi_column_store_routes_per_column(self, tmp_path):
        urls = make_values(120, seed=5)
        tags = [v.split("/")[0] for v in make_values(120, seed=6)]
        rng = random.Random(77)
        log: List[bytes] = []
        for i in range(120):
            name = rng.choice(["urls", "tags"])
            kind = rng.choice(["access", "rank", "extend"])
            if kind == "access":
                log.append(
                    encode_request("access", shard=name, id=i, pos=rng.randrange(0, 140))
                )
            elif kind == "rank":
                log.append(
                    encode_request(
                        "rank",
                        shard=name,
                        id=i,
                        value=rng.choice(VALUES),
                        pos=rng.randrange(0, 140),
                    )
                )
            else:
                log.append(
                    encode_request(
                        "extend", shard=name, id=i, values=[rng.choice(VALUES)]
                    )
                )
        # Frames naming no shard the cluster serves error identically too.
        log.append(encode_request("access", shard="nope", id="x", pos=0))
        asyncio.run(
            compare_cluster_to_single(
                tmp_path, {"urls": urls, "tags": tags}, log, 3
            )
        )

    def test_empty_column_grows_from_nothing(self, tmp_path):
        # All frozen slices empty: every row the cluster serves arrived
        # through the tail worker's write path.
        log = [
            encode_request("access", id="miss", pos=0),
            encode_request("extend", id="w", values=["a", "b", "a"]),
            encode_request("rank", id="r", value="a", pos=3),
            encode_request("select", id="s", value="b", idx=0),
            encode_request("access", id="hit", pos=2),
        ]
        asyncio.run(compare_cluster_to_single(tmp_path, {"default": []}, log, 3))

    def test_merged_stats_count_every_request(self, tmp_path):
        values = make_values(90, seed=9)
        image_dir = tmp_path / "images"
        export_shard_images(
            {"default": CompressedColumn("default", values, appendable=True)},
            image_dir,
            3,
        )

        async def main():
            cluster = ClusterSupervisor(
                ServerConfig(unix_path=str(tmp_path / "sup.sock")),
                ClusterConfig(image_dir=str(image_dir), restart_backoff=0.0),
            )
            await cluster.start()
            try:
                client = await NDJSONClient.connect(
                    cluster.config.unix_path, max_inflight=16
                )
                futures = [
                    await client.submit(encode_request("access", id=i, pos=i))
                    for i in range(20)
                ]
                for future in futures:
                    assert json.loads(await future)["ok"]
                stats = json.loads(
                    await client.call_raw(encode_request("stats", id="s"))
                )["result"]
                await client.close()
            finally:
                await cluster.stop()
            # The supervisor counted each logical request once; the merged
            # view adds the workers' subrequest counts on top.
            assert stats["supervisor_metrics"]["requests"]["access"] == 20
            assert stats["metrics"]["requests"]["access"] >= 20
            merged_access = stats["metrics"]["requests"]["access"]
            summed = stats["supervisor_metrics"]["requests"]["access"] + sum(
                worker["requests"].get("access", 0)
                for worker in stats["worker_metrics"].values()
            )
            assert merged_access == summed
            assert stats["cluster"]["total_restarts"] == 0

        asyncio.run(main())
