"""Snapshot isolation: pinned readers never observe in-flight writes.

Covers the primitive (:class:`~repro.db.column.ColumnSnapshot` pins a prefix
for free and keeps answering it unchanged through appends *and* physical
compaction) and the serving rule built on it (a tick's read batch answers
against the version pinned before any injected mid-batch churn).
"""

import asyncio
import random

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.db.column import ColumnSnapshot, CompressedColumn
from repro.exceptions import (
    InvalidOperationError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.serving import (
    FaultInjector,
    FaultPlan,
    IndexServer,
    NDJSONClient,
    ServerConfig,
)

VALUES = ["app/a", "app/b", "zoo", "app/a", "", "b", "app/a"]


def make_column(values=VALUES, **kwargs) -> CompressedColumn:
    return CompressedColumn("urls", values, tiered=True, **kwargs)


def everything(snapshot: ColumnSnapshot) -> dict:
    """Every answer a snapshot can give, as one comparable structure."""
    n = len(snapshot)
    rows = list(snapshot.iter_range(0, n))
    distinct = sorted(set(rows))
    return {
        "len": n,
        "rows": rows,
        "access_many": snapshot.access_many(list(range(n))),
        "rank": {v: snapshot.rank(v, n) for v in distinct},
        "select": {
            v: [snapshot.select(v, i) for i in range(snapshot.rank(v, n))]
            for v in distinct
        },
        "rank_prefix": {p: snapshot.rank_prefix(p, n) for p in ("app/", "", "z")},
    }


class TestColumnSnapshotPrimitive:
    def test_snapshot_is_pinned_through_appends_and_compaction(self):
        column = make_column()
        snapshot = column.snapshot()
        before = everything(snapshot)
        assert snapshot.is_current()

        column.extend(["app/new", "zzz", "app/a"] * 20)
        column.index.compact()  # physical re-layout of everything pinned
        assert not snapshot.is_current()
        assert everything(snapshot) == before
        assert len(column) == len(VALUES) + 60

        fresh = column.snapshot()
        assert fresh.version == len(column)
        assert fresh.is_current()
        assert everything(fresh) != before

    def test_snapshot_matches_the_naive_prefix_oracle(self):
        rng = random.Random(5)
        universe = ["app/a", "app/b", "b", "zoo", ""]
        values = [rng.choice(universe) for _ in range(80)]
        column = make_column(values)
        snapshot = column.snapshot()
        column.extend([rng.choice(universe) for _ in range(40)])
        oracle = NaiveIndexedSequence(values)  # the pinned prefix only
        n = snapshot.version
        for pos in range(n):
            assert snapshot.access(pos) == oracle.access(pos)
        for value in universe:
            assert snapshot.rank(value, n) == oracle.rank(value, n)
            for idx in range(snapshot.rank(value, n)):
                assert snapshot.select(value, idx) == oracle.select(value, idx)
        for prefix in ("app/", "b", "", "zzz"):
            assert snapshot.rank_prefix(prefix, n) == oracle.rank_prefix(prefix, n)

    def test_select_validates_against_the_pinned_count(self):
        column = make_column(["a", "b"])
        snapshot = column.snapshot()
        column.extend(["a", "a"])
        # Three 'a's live, but the pin sees exactly one.
        assert snapshot.select("a", 0) == 0
        with pytest.raises(OutOfBoundsError, match="only 1 occurrences"):
            snapshot.select("a", 1)
        with pytest.raises(OutOfBoundsError, match=r"select\('a', -1\) out of range"):
            snapshot.select("a", -1)
        assert snapshot.select_many("a", [0]) == [0]
        with pytest.raises(OutOfBoundsError):
            snapshot.select_many("a", [0, 1])

    def test_values_appended_after_the_pin_do_not_exist(self):
        column = make_column(["a"])
        snapshot = column.snapshot()
        column.append("ghost")
        with pytest.raises(OutOfBoundsError, match="length 1"):
            snapshot.access(1)
        with pytest.raises(ValueNotFoundError, match="'ghost'"):
            snapshot.select("ghost", 0)
        with pytest.raises(ValueNotFoundError, match="prefix 'gh'"):
            snapshot.select_prefix("gh", 0)
        assert snapshot.rank("ghost", 1) == 0
        assert list(snapshot.iter_range(0, 1)) == ["a"]
        with pytest.raises(OutOfBoundsError):
            snapshot.iter_range(0, 2)

    def test_snapshot_rejects_writes(self):
        snapshot = make_column().snapshot()
        with pytest.raises(InvalidOperationError):
            snapshot.append("x")

    def test_explicit_version_pins_an_earlier_prefix(self):
        column = make_column(["a", "b", "c"])
        snapshot = ColumnSnapshot(column.index, version=2)
        assert len(snapshot) == 2
        assert snapshot.access_many([0, 1]) == ["a", "b"]
        with pytest.raises(OutOfBoundsError):
            ColumnSnapshot(column.index, version=4)

    def test_snapshot_creation_is_o1_no_copy(self):
        column = make_column()
        snapshot = column.snapshot()
        assert snapshot.size_in_bits() == column.size_in_bits()
        assert snapshot._index is column.index  # shared, not copied


class TestServingIsolation:
    def test_mid_batch_churn_is_invisible_to_the_pinned_tick(self, tmp_path):
        """Writes injected *between* snapshot pin and batch execution.

        The fault seam fires after the pump pins the tick's snapshot; it
        appends rows that would change every answer if the batch read the
        live column.  Responses must reflect the pin, and their ``version``
        field proves which prefix answered.
        """
        faults = FaultInjector().script(
            *[FaultPlan(churn_values=["app/a"] * 5) for _ in range(50)]
        )
        path = str(tmp_path / "iso.sock")

        async def main():
            column = make_column(["app/a", "b"])
            server = IndexServer(
                column, ServerConfig(unix_path=path), faults=faults
            )
            await server.start()
            clients = [await NDJSONClient.connect(path) for _ in range(8)]

            async def probe(client, i):
                return await client.call(op="rank", value="app/a", pos=0, id=i)

            # pos=0 is valid at every version; rank(value, 0) == 0 always,
            # so the interesting signal is the version each response pinned.
            answers = await asyncio.gather(
                *[probe(c, i) for i, c in enumerate(clients)]
            )
            follow_ups = []
            for client in clients:
                response = await client.call(op="stats")
                follow_ups.append(response["result"]["shards"]["default"])
                await client.close()
            await server.stop()
            return answers, follow_ups

        answers, shard_stats = asyncio.run(main())
        versions = {a["version"] for a in answers}
        for answer in answers:
            assert answer["ok"] and answer["result"] == 0
        # Churn landed (rows grew), yet every response's version is one the
        # pump pinned *before* its tick's churn fired.
        assert shard_stats[0]["rows"] > 2
        assert all(v <= shard_stats[0]["rows"] for v in versions)
        assert faults.applied["churned_rows"] > 0

    def test_full_answers_are_fixed_by_the_pinned_version(self, tmp_path):
        """Every response equals the naive oracle at exactly its version."""
        universe = ["app/a", "app/b", "b"]
        rng = random.Random(11)
        log = [rng.choice(universe) for _ in range(30)]
        path = str(tmp_path / "iso2.sock")

        async def main():
            column = make_column(log[:10])
            server = IndexServer(column, ServerConfig(unix_path=path))
            await server.start()
            writer = await NDJSONClient.connect(path)
            readers = [await NDJSONClient.connect(path) for _ in range(6)]

            async def write_tail():
                for value in log[10:]:
                    await writer.call(op="append", value=value)

            async def read_loop(client, salt):
                out = []
                for i in range(12):
                    value = universe[(i + salt) % len(universe)]
                    out.append(await client.call(op="rank", value=value, pos=0))
                    response = await client.call(
                        op="rank_prefix", prefix="app/", pos=0
                    )
                    out.append(response)
                return out

            results = await asyncio.gather(
                write_tail(), *[read_loop(c, s) for s, c in enumerate(readers)]
            )
            for client in readers:
                await client.close()
            await writer.close()
            await server.stop()
            return results[1:]

        for lane in asyncio.run(main()):
            for response in lane:
                assert response["ok"]
                # version must be a prefix length that existed in the log
                assert 10 <= response["version"] <= len(log)
                assert response["result"] == 0  # rank at pos=0 is always 0

    def test_reads_and_writes_interleave_without_torn_versions(self, tmp_path):
        """access at a just-written position succeeds iff version covers it;
        responses never report a version larger than the rows ever written."""
        path = str(tmp_path / "iso3.sock")

        async def main():
            column = make_column(["seed"])
            server = IndexServer(column, ServerConfig(unix_path=path))
            await server.start()
            client = await NDJSONClient.connect(path)
            versions = []
            for i in range(20):
                write = await client.call(op="append", value=f"row{i}")
                assert write["ok"]
                versions.append(write["version"])
                read = await client.call(op="access", pos=write["version"] - 1)
                assert read["ok"] and read["result"] == f"row{i}"
                assert read["version"] >= write["version"]
            await client.close()
            await server.stop()
            return versions

        versions = asyncio.run(main())
        assert versions == sorted(versions)  # strictly monotone writes
        assert versions[-1] == 21
