"""Transport endpoints: HTTP routes, stats payload, multi-shard routing,
the ``serve`` CLI command, and lifecycle edges."""

import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.core.static import WaveletTrie
from repro.db.column import CompressedColumn
from repro.exceptions import InvalidOperationError
from repro.serving import IndexServer, NDJSONClient, ServerConfig


def make_column(name="urls", values=("app/a", "app/b", "b")) -> CompressedColumn:
    return CompressedColumn(name, list(values), tiered=True)


async def http_call(host, port, request: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(request)
    await writer.drain()
    status = (await reader.readline()).decode()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return int(status.split()[1]), headers, body


class TestHttpTransport:
    def test_query_stats_ping_and_404(self):
        async def main():
            server = IndexServer(
                make_column(), ServerConfig(unix_path=None, http_port=0)
            )
            await server.start()
            host, port = server.http_address
            body = (
                b'{"op":"access","pos":1,"id":"q1"}\n'
                b'{"op":"rank","value":"b","pos":3,"id":"q2"}\n'
                b"\n"
                b'{"op":"nope","id":"q3"}\n'
            )
            request = (
                b"POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % len(body)
            ) + body
            query = await http_call(host, port, request)
            stats = await http_call(host, port, b"GET /stats HTTP/1.1\r\n\r\n")
            ping = await http_call(host, port, b"GET /ping HTTP/1.1\r\n\r\n")
            missing = await http_call(host, port, b"GET /nope HTTP/1.1\r\n\r\n")
            bad = await http_call(host, port, b"GARBAGE\r\n\r\n")
            await server.stop()
            return query, stats, ping, missing, bad

        query, stats, ping, missing, bad = asyncio.run(main())
        status, headers, body = query
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        frames = [json.loads(line) for line in body.splitlines() if line]
        assert [f.get("id") for f in frames] == ["q1", "q2", "q3"]
        assert frames[0]["result"] == "app/b"
        assert frames[1]["result"] == 1
        assert frames[2]["error"]["code"] == "bad_request"

        payload = json.loads(stats[2])
        assert stats[0] == 200 and payload["ok"]
        assert "default" in payload["result"]["shards"]
        assert json.loads(ping[2])["result"] == "pong"
        assert missing[0] == 404
        assert bad[0] == 400

    def test_body_too_large_is_rejected(self):
        async def main():
            server = IndexServer(
                make_column(), ServerConfig(unix_path=None, http_port=0)
            )
            await server.start()
            host, port = server.http_address
            request = b"POST /query HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n"
            result = await http_call(host, port, request)
            await server.stop()
            return result

        status, _, _ = asyncio.run(main())
        assert status == 413

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_rejected(self, length):
        async def main():
            server = IndexServer(
                make_column(), ServerConfig(unix_path=None, http_port=0)
            )
            await server.start()
            host, port = server.http_address
            request = b"POST /query HTTP/1.1\r\ncontent-length: %s\r\n\r\n" % length
            try:
                return await asyncio.wait_for(http_call(host, port, request), 5)
            finally:
                await server.stop()

        status, _, body = asyncio.run(main())
        assert status == 400
        assert body == b"bad content-length\n"


class TestStatsPayload:
    def test_stats_reflect_requests_batches_and_latency(self, tmp_path):
        path = str(tmp_path / "stats.sock")

        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=path))
            await server.start()
            clients = [await NDJSONClient.connect(path) for _ in range(6)]
            await asyncio.gather(
                *[c.call(op="rank", value="b", pos=3) for c in clients]
            )
            await clients[0].call(op="append", value="new")
            stats = (await clients[0].call(op="stats"))["result"]
            for client in clients:
                await client.close()
            await server.stop()
            return stats

        stats = asyncio.run(main())
        metrics = stats["metrics"]
        assert metrics["requests"]["rank"] == 6
        assert metrics["requests"]["append"] == 1
        assert metrics["requests"]["stats"] == 1
        assert metrics["batches"]["rank"]["requests"] == 6
        assert metrics["batches"]["rank"]["batches"] <= 6
        assert metrics["latency"]["rank"]["samples"] == 6
        assert metrics["latency"]["rank"]["p50_ms"] >= 0
        assert metrics["ticks"] >= 1
        shard = stats["shards"]["default"]
        assert shard["rows"] == 4 and shard["appendable"]
        assert stats["config"]["coalesce"] is True


class TestStaticColumn:
    def test_writes_to_a_static_column_are_invalid_operations(self, tmp_path):
        """A column wrapped around a static trie is not appendable: ``stats``
        says so, and a write answers ``invalid_operation``, not
        ``internal``."""
        path = str(tmp_path / "static.sock")
        column = CompressedColumn.from_index("default", WaveletTrie(["/a", "/b", "/a"]))

        async def main():
            server = IndexServer(column, ServerConfig(unix_path=path))
            await server.start()
            client = await NDJSONClient.connect(path)
            append = await client.call(op="append", value="/c")
            extend = await client.call(op="extend", values=["/c", "/d"])
            access = await client.call(op="access", pos=2)
            stats = (await client.call(op="stats"))["result"]
            await client.close()
            await server.stop()
            return append, extend, access, stats

        append, extend, access, stats = asyncio.run(main())
        assert append["error"]["code"] == "invalid_operation"
        assert extend["error"]["code"] == "invalid_operation"
        assert access["result"] == "/a"
        shard = stats["shards"]["default"]
        assert shard["appendable"] is False and shard["rows"] == 3
        assert len(column) == 3

    def test_a_static_index_cannot_be_wrapped_as_appendable(self):
        """An explicit ``appendable=True`` over a static trie is refused up
        front, as the image loader refuses it, so no served write can reach
        the trie and fail as ``internal``."""
        with pytest.raises(InvalidOperationError, match="appendable over a static index"):
            CompressedColumn.from_index("default", WaveletTrie(["/a", "/b"]), appendable=True)


class TestMultiShard:
    def test_requests_route_by_shard_name(self, tmp_path):
        path = str(tmp_path / "multi.sock")

        async def main():
            server = IndexServer(
                {
                    "urls": make_column("urls", ["u1", "u2"]),
                    "agents": make_column("agents", ["a1"]),
                },
                ServerConfig(unix_path=path),
            )
            await server.start()
            client = await NDJSONClient.connect(path)
            urls = await client.call(op="access", pos=1, shard="urls")
            agents = await client.call(op="access", pos=0, shard="agents")
            default = await client.call(op="access", pos=0)  # no such shard
            stats = (await client.call(op="stats"))["result"]
            await client.close()
            await server.stop()
            return urls, agents, default, stats

        urls, agents, default, stats = asyncio.run(main())
        assert urls["result"] == "u2"
        assert agents["result"] == "a1"
        assert default["error"]["code"] == "unknown_shard"
        assert set(stats["shards"]) == {"agents", "urls"}


class TestLifecycle:
    def test_no_transport_config_is_an_error(self):
        async def main():
            server = IndexServer(
                make_column(), ServerConfig(unix_path=None, http_port=None)
            )
            await server.start()

        with pytest.raises(ValueError, match="no transport"):
            asyncio.run(main())

    def test_stop_removes_the_unix_socket(self, tmp_path):
        path = str(tmp_path / "gone.sock")

        async def main():
            server = IndexServer(make_column(), ServerConfig(unix_path=path))
            await server.start()
            assert os.path.exists(path)
            await server.stop()

        asyncio.run(main())
        assert not os.path.exists(path)


class TestServeCli:
    def test_parser_accepts_the_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "idx.wt", "--socket", "/tmp/x.sock", "--http-port", "0",
                "--shard", "urls", "--no-coalesce", "--max-pending", "9",
                "--timeout", "1.5", "--compact-budget", "4",
            ]
        )
        assert args.command == "serve"
        assert args.socket == "/tmp/x.sock"
        assert args.http_port == 0
        assert args.shard == "urls"
        assert args.no_coalesce
        assert args.max_pending == 9
        assert args.timeout == 1.5
        assert args.compact_budget == 4

    def test_serve_subprocess_answers_and_shuts_down_on_sigterm(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("app/a\napp/b\nb\n")
        index = str(tmp_path / "data.wt")
        root = pathlib.Path(__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "build", str(data),
                "-o", index, "--variant", "tiered",
            ],
            env=env, check=True, capture_output=True, cwd=root,
        )
        sock = str(tmp_path / "serve.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", index, "--socket", sock],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=root,
        )
        try:
            deadline = time.monotonic() + 20
            while not os.path.exists(sock):
                assert time.monotonic() < deadline, proc.stderr
                assert proc.poll() is None, proc.communicate()
                time.sleep(0.02)
            while True:
                conn = socket.socket(socket.AF_UNIX)
                try:
                    conn.connect(sock)
                    break
                except ConnectionRefusedError:
                    # bind() makes the file before listen(): not ready yet.
                    conn.close()
                    assert time.monotonic() < deadline, proc.stderr
                    assert proc.poll() is None, proc.communicate()
                    time.sleep(0.02)
            with conn:
                conn.sendall(b'{"op":"rank_prefix","prefix":"app/","pos":3,"id":1}\n')
                line = conn.makefile().readline()
            payload = json.loads(line)
            assert payload == {"id": 1, "ok": True, "result": 2, "version": 3}
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20)
        assert proc.returncode == 0, err.decode()
        assert "serving shard 'default'" in out.decode()
