"""The asyncio index server: transports, dispatch, and lifecycle.

Two layers live here:

* :class:`FrameServer` -- the transport machinery shared by every serving
  front end (the single-process :class:`IndexServer` below and the
  multi-process :class:`~repro.serving.cluster.ClusterSupervisor`): a
  **unix socket** speaking raw NDJSON and **localhost HTTP/1.1**
  (``GET /stats`` / ``GET /ping`` for admin, ``POST /query`` with an NDJSON
  body).  The NDJSON handler is *pipelined*: it keeps reading frames while
  earlier ones are still being answered (bounded by
  ``ServerConfig.pipeline_depth``) and writes responses strictly in request
  order.  Every frame of one socket read starts its dispatch in the same
  loop turn, so frames that arrive together share one coalescing tick.
* :class:`IndexServer` -- the single-process server: one or more named
  shards (each a :class:`~repro.db.column.CompressedColumn` behind an
  :class:`~repro.serving.shard.IndexShard`), requests routed by the frame's
  ``shard`` field.

A graceful ``stop`` closes the listeners, lets every queued request finish
(the subclass ``_drain`` hook), answers anything submitted after the stop
with a ``shutting_down`` error, then disconnects lingering idle clients.

:class:`NDJSONClient` is the matching client used by the test harness, the
benchmark, the CLI and the cluster supervisor.  It supports **bounded
pipelining**: up to ``max_inflight`` frames may be outstanding on one
connection, responses correlate to requests strictly FIFO (the server
answers in order per connection), so a single client can exercise the
server's per-(op, key) coalescing width; ``submit_many`` writes a batch of
frames in one write, so the server reads them together.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.db.column import CompressedColumn
from repro.serving.faults import FaultInjector
from repro.serving.metrics import ServingMetrics
from repro.serving.protocol import (
    ADMIN_OPS,
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    decode_frame,
    encode_error,
    encode_result,
    error_message,
)
from repro.serving.shard import IndexShard, TickLoop

__all__ = ["FrameServer", "IndexServer", "NDJSONClient", "ServerConfig"]

_HTTP_BODY_LIMIT = 1 << 24  # 16 MiB of NDJSON per POST /query call
_LOG = logging.getLogger(__name__)


@dataclass
class ServerConfig:
    """Tunables for a :class:`FrameServer` (all transports optional)."""

    unix_path: Optional[str] = None
    http_host: str = "127.0.0.1"
    http_port: Optional[int] = None  # None: no HTTP; 0: ephemeral port
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    coalesce: bool = True
    coalesce_window: int = 4  # loop turns the pump waits for a wider batch
    max_pending: int = 1024
    request_timeout: Optional[float] = None
    compact_budget: Optional[int] = None
    pipeline_depth: int = 32  # frames one connection may have in flight


class FrameServer:
    """Transport + lifecycle shared by the serving front ends.

    :meth:`dispatch` answers admin ops inline and hands every shard op to
    the :class:`~repro.serving.shard.TickLoop` serving its shard.
    Subclasses implement :meth:`_loops` (shard name -> loop) and
    :meth:`stats` (the ``GET /stats`` payload), and may override
    :meth:`_stats_op` (the ``stats`` op payload) and :meth:`_drain` (finish
    queued work during a graceful :meth:`stop`).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        metrics: Optional[ServingMetrics] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self.http_address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _loops(self) -> Dict[str, TickLoop]:
        """Shard name -> the tick loop that serves its requests."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """The full ``stats`` payload served by ``GET /stats``."""
        raise NotImplementedError

    async def _stats_op(self) -> Dict[str, Any]:
        """The payload of the ``stats`` op (default: :meth:`stats`)."""
        return self.stats()

    async def _drain(self) -> None:
        """Finish queued work during a graceful stop (subclass hook)."""

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request) -> bytes:
        """Answer one validated request with one response frame.

        Admin ops answer inline; shard ops go to the tick loop serving the
        frame's ``shard`` (``shutting_down`` once :meth:`stop` began,
        ``unknown_shard`` for a name no loop serves).
        """
        if request.op in ADMIN_OPS:
            self.metrics.record_request(request.op)
            if request.op == "ping":
                return encode_result(request.id, "pong")
            return encode_result(request.id, await self._stats_op())
        if self._stopping:
            self.metrics.record_error("shutting_down")
            return encode_error(
                request.id, "shutting_down", "server is draining"
            )
        loops = self._loops()
        loop = loops.get(request.shard)
        if loop is None:
            self.metrics.record_error("unknown_shard")
            return encode_error(
                request.id,
                "unknown_shard",
                f"no shard named {request.shard!r}: serving {sorted(loops)}",
            )
        return await loop.submit(request)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the configured transports and start accepting clients."""
        self._stopped = asyncio.Event()
        limit = self.config.max_frame_bytes + 1024  # room for one frame + slack
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._spawn_handler(self._handle_ndjson),
                path=self.config.unix_path,
                limit=limit,
            )
            self._servers.append(server)
        if self.config.http_port is not None:
            server = await asyncio.start_server(
                self._spawn_handler(self._handle_http),
                host=self.config.http_host,
                port=self.config.http_port,
                limit=limit,
            )
            self._servers.append(server)
            self.http_address = server.sockets[0].getsockname()[:2]
        if not self._servers:
            raise ValueError("ServerConfig enables no transport")

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain queued work, disconnect.

        Queued requests are answered; frames arriving after the stop get a
        typed ``shutting_down`` error; idle connections are then closed.
        """
        self._stopping = True
        for server in self._servers:
            server.close()
        await self._drain()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if (
            self.config.unix_path is not None
            and os.path.exists(self.config.unix_path)
        ):
            os.unlink(self.config.unix_path)
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` completes (for ``repro serve``)."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    def _spawn_handler(self, handler):
        # Track connection tasks so stop() can cancel lingering idle clients.
        async def run(reader, writer):
            task = asyncio.current_task()
            assert task is not None
            self._conn_tasks.add(task)
            try:
                await handler(reader, writer)
            except asyncio.CancelledError:
                # stop() disconnects lingering idle clients; ending the task
                # normally keeps the streams machinery from logging it.
                pass
            finally:
                self._conn_tasks.discard(task)

        return run

    # ------------------------------------------------------------------
    # Dispatch plumbing (shared by both transports)
    # ------------------------------------------------------------------
    @staticmethod
    def _salvage_id(line: bytes) -> Any:
        """Best-effort ``id`` recovery from a frame that failed validation."""
        try:
            payload = json.loads(line)
        except Exception:
            return None
        if isinstance(payload, dict):
            request_id = payload.get("id")
            if isinstance(request_id, (str, int, float)) or request_id is None:
                return request_id
        return None

    async def dispatch_line(self, line: bytes) -> bytes:
        """Decode one request line and answer it with one response frame."""
        try:
            request = decode_frame(line, self.config.max_frame_bytes)
        except ProtocolError as error:
            self.metrics.record_error(error.code)
            return encode_error(self._salvage_id(line), error.code, str(error))
        return await self.dispatch(request)

    def _dispatched_frame(self, line: bytes, task: "asyncio.Task[bytes]") -> bytes:
        """The response of one finished dispatch; one that raised is ``internal``."""
        try:
            return task.result()
        except Exception as error:
            _LOG.exception("dispatching a frame raised")
            self.metrics.record_error("internal")
            return encode_error(self._salvage_id(line), "internal", error_message(error))

    # ------------------------------------------------------------------
    # Unix-socket transport: pipelined NDJSON, responses in request order
    # ------------------------------------------------------------------
    async def _handle_ndjson(self, reader, writer) -> None:
        # Every frame of one socket read starts its dispatch in the same loop
        # turn, so all of them are on their shard queue before its pump
        # drains.  At most pipeline_depth frames are in flight: reading
        # pauses at the bound.  One responder task writes the responses
        # strictly in request order, each run of finished frames in one write.
        depth = max(1, self.config.pipeline_depth)
        limit = self.config.max_frame_bytes + 1024  # the stream limit of start()
        inflight: Deque[Tuple[bytes, "asyncio.Task[bytes]"]] = deque()
        queued, room = asyncio.Event(), asyncio.Event()
        reading = True

        async def respond() -> None:
            try:
                while inflight or reading:
                    if not inflight:
                        queued.clear()
                        await queued.wait()
                        continue
                    if not inflight[0][1].done():
                        await asyncio.wait((inflight[0][1],))
                    run = []
                    while inflight and inflight[0][1].done():
                        run.append(self._dispatched_frame(*inflight.popleft()))
                    room.set()
                    writer.write(b"".join(run))
                    await writer.drain()
            finally:
                room.set()  # a reader waiting for room must see the end

        responder = asyncio.create_task(respond())
        buffer = b""
        oversized = False
        try:
            while not oversized and not responder.done():
                chunk = await reader.read(limit)
                lines, buffer, oversized = self._split_frames(buffer + chunk, limit)
                if not chunk and not oversized:
                    lines.append(buffer)  # EOF: an unterminated tail is a frame
                for line in lines:
                    while len(inflight) >= depth and not responder.done():
                        room.clear()
                        await room.wait()
                    if responder.done():
                        break
                    if line.strip():
                        task = asyncio.create_task(self.dispatch_line(line))
                        inflight.append((line, task))
                        queued.set()
                if not chunk:
                    break
            reading = False
            queued.set()
            await responder
            if oversized:
                # The line outgrew the stream limit: report it after every
                # earlier response, then close -- resyncing mid-line is not
                # possible.
                writer.write(
                    encode_error(
                        None,
                        "oversized",
                        "frame exceeds the "
                        f"{self.config.max_frame_bytes} byte limit",
                    )
                )
                self.metrics.record_error("oversized")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.metrics.record_disconnect()
        finally:
            # Close before awaiting anything: a cancel (stop()) landing in an
            # await below must not skip it and leak the transport.
            writer.close()
            responder.cancel()
            for _, task in inflight:
                task.cancel()
            await asyncio.gather(
                responder, *(task for _, task in inflight), return_exceptions=True
            )
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                self.metrics.record_disconnect()

    @staticmethod
    def _split_frames(buffer: bytes, limit: int) -> Tuple[List[bytes], bytes, bool]:
        """Cut ``buffer`` into complete lines (newline kept) and the rest.

        Returns ``(lines, rest, oversized)``.  A line or rest longer than
        ``limit`` bytes (newline excluded) is oversized: only the lines
        before it are returned.
        """
        lines = []
        start = 0
        while True:
            end = buffer.find(b"\n", start) + 1
            if not end:
                rest = buffer[start:]
                return lines, rest, len(rest) > limit
            if end - 1 - start > limit:
                return lines, b"", True
            lines.append(buffer[start:end])
            start = end

    # ------------------------------------------------------------------
    # HTTP transport: GET /stats, POST /query (NDJSON body)
    # ------------------------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    await self._http_respond(writer, 400, b"bad request line\n")
                    break
                method, path = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length_field = headers.get("content-length") or "0"
                if not length_field.isdecimal():  # latin-1 decimals are 0-9
                    await self._http_respond(writer, 400, b"bad content-length\n")
                    break
                length = int(length_field)
                if length > _HTTP_BODY_LIMIT:
                    await self._http_respond(writer, 413, b"body too large\n")
                    break
                body = await reader.readexactly(length) if length else b""
                if method == "GET" and path == "/stats":
                    await self._http_respond(
                        writer, 200, encode_result(None, self.stats())
                    )
                elif method == "GET" and path == "/ping":
                    await self._http_respond(
                        writer, 200, encode_result(None, "pong")
                    )
                elif method == "POST" and path == "/query":
                    out = bytearray()
                    for line in body.split(b"\n"):
                        if line.strip():
                            out += await self.dispatch_line(line)
                    await self._http_respond(writer, 200, bytes(out))
                else:
                    await self._http_respond(writer, 404, b"not found\n")
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.metrics.record_disconnect()
        except asyncio.CancelledError:
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                self.metrics.record_disconnect()

    @staticmethod
    async def _http_respond(writer, status: int, body: bytes) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class IndexServer(FrameServer):
    """Serve Wavelet-Trie columns with coalesced reads and snapshot pins."""

    def __init__(
        self,
        columns: Union[CompressedColumn, Dict[str, CompressedColumn]],
        config: Optional[ServerConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(config)
        if isinstance(columns, CompressedColumn):
            columns = {"default": columns}
        self.shards: Dict[str, IndexShard] = {
            name: IndexShard(
                name,
                column,
                coalesce=self.config.coalesce,
                coalesce_window=self.config.coalesce_window,
                max_pending=self.config.max_pending,
                request_timeout=self.config.request_timeout,
                compact_budget=self.config.compact_budget,
                clock=clock,
                metrics=self.metrics,
                faults=faults,
            )
            for name, column in columns.items()
        }

    async def _drain(self) -> None:
        for shard in self.shards.values():
            await shard.drain()

    def _loops(self) -> Dict[str, TickLoop]:
        return self.shards

    def stats(self) -> Dict[str, Any]:
        """The full ``stats`` payload: per-shard state plus server metrics."""
        return {
            "shards": {
                name: shard.stats() for name, shard in sorted(self.shards.items())
            },
            "metrics": self.metrics.snapshot(),
            "config": {
                "coalesce": self.config.coalesce,
                "coalesce_window": self.config.coalesce_window,
                "max_pending": self.config.max_pending,
                "request_timeout": self.config.request_timeout,
                "max_frame_bytes": self.config.max_frame_bytes,
            },
        }


class NDJSONClient:
    """A unix-socket NDJSON client with bounded pipelining.

    Up to ``max_inflight`` request frames may be outstanding on the
    connection at once; responses correlate to requests strictly FIFO
    (the server answers in order per connection).  With the default
    ``max_inflight=1`` the client behaves exactly like the original
    one-frame-at-a-time client; the cluster supervisor and the pipelining
    tests raise it so a single connection can fill a whole coalescing tick,
    and :meth:`submit_many` sends a batch in one write.
    """

    def __init__(self, reader, writer, max_inflight: int = 1) -> None:
        self._reader = reader
        self._writer = writer
        self.max_inflight = max(1, int(max_inflight))
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._waiting: Deque["asyncio.Future[bytes]"] = deque()
        self._reader_task: Optional["asyncio.Task"] = None
        self._broken: Optional[BaseException] = None

    @classmethod
    async def connect(
        cls, unix_path: str, max_inflight: int = 1
    ) -> "NDJSONClient":
        """Open one NDJSON connection to the server's unix socket."""
        reader, writer = await asyncio.open_unix_connection(unix_path)
        return cls(reader, writer, max_inflight=max_inflight)

    # ------------------------------------------------------------------
    async def submit(self, frame: bytes) -> "asyncio.Future[bytes]":
        """Send one pre-encoded frame as soon as a pipeline slot frees.

        Returns a future resolving to the raw response line for *this*
        frame (FIFO correlation).  Blocks only while ``max_inflight``
        frames are already outstanding -- the backpressure that keeps the
        pipeline bounded.
        """
        return (await self.submit_many([frame]))[0]

    async def submit_many(self, frames: List[bytes]) -> List["asyncio.Future[bytes]"]:
        """Send pre-encoded frames together; one future per frame, in order.

        Frames that find a free pipeline slot go out in one write, so the
        server reads them in one go and answers them in one tick.  Past
        ``max_inflight`` outstanding frames, the frames gathered so far are
        written and the rest wait for slots, as in :meth:`submit`.
        """
        loop = asyncio.get_running_loop()
        futures: List["asyncio.Future[bytes]"] = []
        batch: List[bytes] = []
        for frame in frames:
            if batch and self._slots.locked():
                # Write before waiting: no other sender may come between a
                # future joining the FIFO and its frame reaching the socket.
                await self._send(batch)
                batch = []
            self._check_open()
            await self._slots.acquire()
            if self._broken is not None:
                self._slots.release()
                self._check_open()
            future: "asyncio.Future[bytes]" = loop.create_future()
            self._waiting.append(future)
            futures.append(future)
            batch.append(frame)
        if batch:
            await self._send(batch)
        return futures

    def _check_open(self) -> None:
        if self._broken is not None:
            raise ConnectionError("connection is broken") from self._broken

    async def _send(self, frames: List[bytes]) -> None:
        self._ensure_reader()
        try:
            self._writer.write(b"".join(frames))
            await self._writer.drain()
        except Exception as error:
            self._fail_pending(error)
            raise

    async def call_raw(self, frame: bytes) -> bytes:
        """Send one pre-encoded frame, await and return the raw response."""
        future = await self.submit(frame)
        return await future

    async def call(self, **payload: Any) -> Dict[str, Any]:
        """Send one request object, await and decode its response frame."""
        frame = await self.call_raw(
            json.dumps(payload, sort_keys=True).encode() + b"\n"
        )
        return json.loads(frame)

    # ------------------------------------------------------------------
    def _ensure_reader(self) -> None:
        if self._reader_task is None or self._reader_task.done():
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                if self._waiting:
                    future = self._waiting.popleft()
                    if not future.done():
                        future.set_result(line)
                    self._slots.release()
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - fan the failure out
            self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        self._broken = error
        while self._waiting:
            future = self._waiting.popleft()
            if not future.done():
                if isinstance(error, ConnectionError):
                    future.set_exception(error)
                else:
                    future.set_exception(
                        ConnectionError(f"connection failed: {error!r}")
                    )
            self._slots.release()

    async def close(self) -> None:
        """Close the connection (idempotent); fails outstanding futures."""
        if self._reader_task is not None and not self._reader_task.done():
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
        self._fail_pending(ConnectionError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
