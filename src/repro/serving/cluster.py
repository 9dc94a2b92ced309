"""Multi-process sharded serving: the cluster supervisor.

:class:`ClusterSupervisor` is the cluster's single front door.  It speaks
the exact same NDJSON/HTTP protocol as the single-process
:class:`~repro.serving.server.IndexServer` (it shares the
:class:`~repro.serving.server.FrameServer` transports), but behind the
door the data lives in N **worker processes**, one per position-range
shard, each mmapping its slice from the RWT2 images the manifest names
(:mod:`repro.storage.shards`) and running the ordinary single-process
server over it.  The topology:

* **One tick loop.**  The supervisor is a
  :class:`~repro.serving.shard.TickLoop`, the same queue, pump, gather
  window, deadlines and admission checks as a single-process shard; only
  the two steps of a tick differ.
* **Reads scatter-gather.**  Concurrent reads park on the supervisor's
  queue and drain in ticks; each tick the
  :class:`~repro.serving.router.ClusterRouter` decomposes the batch into
  per-worker scalar subrequests, writes each worker's batch in one write
  on one persistent NDJSON connection per worker, and merges the results
  in input order -- byte-identical frames to the unsharded server, stamped
  with the supervisor's authoritative version.
* **Writes have one owner.**  Every ``append``/``extend`` routes to the
  *tail* worker (the only process whose columns open appendable), applied
  strictly in queue order; the tail worker funds the server's
  ``compact_budget`` per write tick.  Each write is journaled in the supervisor
  *before* it is sent, which makes recovery exact: a respawned worker is
  its image plus a journal replay, so an acknowledged write can neither
  be lost nor applied twice, and in-flight writes interrupted by a crash
  are recovered by the replay itself.
* **Supervision.**  Each worker's stdout is a control pipe (the ``ready``
  handshake); a watcher task notices process death
  and triggers a bounded restart with exponential backoff
  (``restart_backoff * 2**attempt`` -- zero in the deterministic tests,
  so recovery needs no wall-clock sleeps).  Reads hitting a dead worker
  wait for the respawn and retry; past ``max_restarts`` the worker is
  marked failed and its shard's requests answer ``internal``.  A graceful
  ``stop`` drains the queues (late frames get ``shutting_down``), then
  SIGTERMs the workers, which drain in turn.

``stats`` merges :mod:`~repro.serving.metrics` counters across the
supervisor and every worker (:func:`~repro.serving.metrics.merge_snapshots`)
and reports per-worker generation/restart state.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.exceptions import ReproError
from repro.serving.metrics import merge_snapshots
from repro.serving.protocol import (
    ProtocolError,
    Request,
    encode_error,
    encode_frame,
    encode_request,
    encode_result,
    error_message,
)
from repro.serving.router import ClusterRouter, PartitionMap
from repro.serving.server import FrameServer, NDJSONClient, ServerConfig
from repro.serving.shard import TickLoop
from repro.storage.shards import load_manifest

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterSupervisor",
    "LIVE_WORKER_PIDS",
    "WORKER_COALESCE_WINDOW",
    "WORKER_PIPELINE_DEPTH",
]

# Frames the supervisor keeps in flight on its one connection per worker;
# each worker's server admits as many per connection.
WORKER_PIPELINE_DEPTH = 64
# The worker pump's gather window (loop turns).  A scatter round reaches its
# worker in one write, so one tick; the window joins rounds that arrive in
# separate reads, such as two columns' rounds from one supervisor tick.
WORKER_COALESCE_WINDOW = 2

# Module-level registry of spawned worker pids, maintained across spawn and
# reap.  The test suite's orphan-reaper fixture sweeps it after every test,
# so a failing test can never leak a worker process into later matrix legs.
LIVE_WORKER_PIDS: Set[int] = set()


class ClusterError(ReproError):
    """A shard worker could not serve (dead past its restart budget)."""


@dataclass
class ClusterConfig:
    """Cluster-level tunables (process topology, not transports).

    Worker sockets live in ``image_dir``; the workers' own serving
    tunables come from the supervisor's
    :class:`~repro.serving.server.ServerConfig` (``compact_budget``) or are
    the fixed ``WORKER_*`` constants.
    """

    image_dir: str = ""
    restart_backoff: float = 0.05      # seconds; doubles per attempt; 0 in tests
    max_restarts: int = 5              # per worker, before it is marked failed
    # Deterministic test seam: worker index -> JSON-safe fault spec list
    # (FaultInjector.from_specs), applied to generation 0 only so a
    # respawned worker comes back healthy.
    fault_scripts: Dict[int, List[Dict[str, Any]]] = field(default_factory=dict)


class _WorkerHandle:
    """One worker process slot: its process, connection, and lifecycle."""

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.client: Optional[NDJSONClient] = None
        self.generation = 0
        self.restarts = 0
        self.failed = False
        self.shutting = False
        self.ready = asyncio.Event()
        self.lock = asyncio.Lock()
        self.control_task: Optional["asyncio.Task"] = None
        self.watch_task: Optional["asyncio.Task"] = None

    def state(self) -> Dict[str, Any]:
        return {
            "pid": self.proc.pid if self.proc is not None else None,
            "generation": self.generation,
            "restarts": self.restarts,
            "ready": self.ready.is_set() and not self.failed,
            "failed": self.failed,
        }


class ClusterSupervisor(FrameServer, TickLoop):
    """Serve one manifest's shard images through N worker processes.

    One :class:`~repro.serving.shard.TickLoop` serves every column: a tick
    journals and forwards its writes to the tail worker, then answers its
    reads through one :class:`~repro.serving.router.ClusterRouter` per
    column.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        cluster: Optional[ClusterConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        FrameServer.__init__(self, config)
        TickLoop.__init__(
            self,
            coalesce=self.config.coalesce,
            coalesce_window=self.config.coalesce_window,
            max_pending=self.config.max_pending,
            request_timeout=self.config.request_timeout,
            clock=clock,
            metrics=self.metrics,
        )
        self.cluster = cluster if cluster is not None else ClusterConfig()
        if not self.cluster.image_dir:
            raise ValueError("ClusterConfig.image_dir is required")
        self.manifest = load_manifest(self.cluster.image_dir)
        self.partition = PartitionMap.from_manifest(self.manifest["partition"])
        self.num_workers = int(self.manifest["workers"])
        self.columns: List[str] = list(self.manifest["columns"])
        # The supervisor's authoritative row count per logical column: the
        # value every read validates against and every response is stamped
        # with.  Workers only ever lag it by unacknowledged writes.
        self.versions: Dict[str, int] = {
            name: self.partition.total for name in self.columns
        }
        self.routers: Dict[str, ClusterRouter] = {
            name: ClusterRouter(
                self.partition, self._fetch, column=name, metrics=self.metrics
            )
            for name in self.columns
        }
        # The write journal: per column, the acknowledged-and-in-flight
        # writes in application order.  worker state == image + journal.
        self._journal: Dict[str, List[List[str]]] = {
            name: [] for name in self.columns
        }
        self._workers = [
            _WorkerHandle(
                index,
                os.path.join(self.cluster.image_dir, f"worker-{index}.sock"),
            )
            for index in range(self.num_workers)
        ]
        self.total_restarts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker, await their ready handshakes, then listen."""
        await asyncio.gather(
            *(self._spawn(handle) for handle in self._workers)
        )
        for handle in self._workers:
            handle.ready.set()
        await super().start()

    async def _drain(self) -> None:
        await self.drain()
        await self._shutdown_workers()

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _command(self, handle: _WorkerHandle) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.serving.worker",
            "--dir", self.cluster.image_dir,
            "--worker", str(handle.index),
            "--socket", handle.socket_path,
        ]
        if self.config.compact_budget is not None:
            command += ["--compact-budget", str(self.config.compact_budget)]
        script = self.cluster.fault_scripts.get(handle.index)
        if script and handle.generation == 0:
            command += ["--fault-script", json.dumps(script)]
        return command

    async def _spawn(self, handle: _WorkerHandle) -> None:
        """Start one worker process and wait for its ready handshake."""
        if os.path.exists(handle.socket_path):
            os.unlink(handle.socket_path)
        handle.proc = await asyncio.create_subprocess_exec(
            *self._command(handle), stdout=asyncio.subprocess.PIPE
        )
        LIVE_WORKER_PIDS.add(handle.proc.pid)
        assert handle.proc.stdout is not None
        while True:
            line = await handle.proc.stdout.readline()
            if not line:
                code = await handle.proc.wait()
                LIVE_WORKER_PIDS.discard(handle.proc.pid)
                raise ClusterError(
                    f"worker {handle.index} exited with code {code} "
                    "before its ready handshake"
                )
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("event") == "ready":
                break
        handle.client = await NDJSONClient.connect(
            handle.socket_path, max_inflight=WORKER_PIPELINE_DEPTH
        )
        loop = asyncio.get_running_loop()
        handle.control_task = loop.create_task(self._drain_control(handle))
        handle.watch_task = loop.create_task(
            self._watch_exit(handle, handle.generation)
        )

    async def _drain_control(self, handle: _WorkerHandle) -> None:
        """Consume the worker's control pipe until EOF, so it never fills."""
        assert handle.proc is not None and handle.proc.stdout is not None
        while await handle.proc.stdout.readline():
            pass

    async def _watch_exit(self, handle: _WorkerHandle, generation: int) -> None:
        """Notice a worker death and trigger its restart."""
        assert handle.proc is not None
        proc = handle.proc
        await proc.wait()
        LIVE_WORKER_PIDS.discard(proc.pid)
        if self._stopping or handle.shutting:
            return
        await self._restart(handle, generation)

    async def _reap(self, handle: _WorkerHandle) -> None:
        """Tear down a (possibly dead) worker's process and connection."""
        if handle.client is not None:
            await handle.client.close()
            handle.client = None
        if handle.control_task is not None:
            handle.control_task.cancel()
            await asyncio.gather(handle.control_task, return_exceptions=True)
            handle.control_task = None
        if handle.proc is not None:
            if handle.proc.returncode is None:
                handle.proc.kill()
            await handle.proc.wait()
            LIVE_WORKER_PIDS.discard(handle.proc.pid)
            handle.proc = None

    async def _restart(self, handle: _WorkerHandle, dead_generation: int) -> None:
        """Bounded restart-with-backoff; at most once per dead generation.

        Every path that notices the death (exit watcher, failed fetch,
        failed write) funnels here; the per-worker lock plus the generation
        check make the recovery idempotent.  The respawned worker replays
        the write journal before ``ready`` is set, so readers blocked on
        :meth:`_wait_ready` resume against fully recovered state.
        """
        async with handle.lock:
            if handle.failed or handle.generation != dead_generation:
                return
            handle.ready.clear()
            await self._reap(handle)
            while True:
                if handle.restarts >= self.cluster.max_restarts:
                    handle.failed = True
                    handle.ready.set()  # wake waiters; they see .failed
                    return
                handle.restarts += 1
                self.total_restarts += 1
                backoff = self.cluster.restart_backoff * (
                    2 ** (handle.restarts - 1)
                )
                await asyncio.sleep(backoff)
                handle.generation += 1
                try:
                    await self._spawn(handle)
                    if handle.index == self.partition.tail:
                        await self._replay_journal(handle)
                except (ClusterError, ConnectionError, OSError):
                    await self._reap(handle)
                    continue
                handle.ready.set()
                return

    async def _replay_journal(self, handle: _WorkerHandle) -> None:
        """Re-apply every journaled write to a freshly spawned tail worker."""
        assert handle.client is not None
        futures = []
        for name in self.columns:
            for values in self._journal[name]:
                frame = encode_request("extend", shard=name, values=values)
                futures.append(await handle.client.submit(frame))
        for future in futures:
            line = await future
            response = json.loads(line)
            if not response.get("ok"):
                raise ClusterError(
                    f"journal replay failed on worker {handle.index}: "
                    f"{response['error']['code']}: {response['error']['message']}"
                )

    async def _wait_ready(self, handle: _WorkerHandle) -> None:
        await handle.ready.wait()
        if handle.failed:
            raise ClusterError(
                f"worker {handle.index} is unavailable "
                f"(failed after {handle.restarts} restarts)"
            )

    async def _shutdown_workers(self) -> None:
        for handle in self._workers:
            handle.shutting = True
        for handle in self._workers:
            if handle.watch_task is not None:
                handle.watch_task.cancel()
                await asyncio.gather(handle.watch_task, return_exceptions=True)
                handle.watch_task = None
            if handle.proc is not None and handle.proc.returncode is None:
                handle.proc.terminate()
        for handle in self._workers:
            if handle.proc is not None:
                await handle.proc.wait()
                LIVE_WORKER_PIDS.discard(handle.proc.pid)
            if handle.client is not None:
                await handle.client.close()
                handle.client = None
            if handle.control_task is not None:
                handle.control_task.cancel()
                await asyncio.gather(handle.control_task, return_exceptions=True)
                handle.control_task = None
            if os.path.exists(handle.socket_path):
                os.unlink(handle.socket_path)

    # ------------------------------------------------------------------
    # The scatter seam: the routers' fetch callable
    # ------------------------------------------------------------------
    async def _fetch(self, shard: int, payloads: List[Dict[str, Any]]) -> List[Any]:
        """Send one batch of subrequests to one worker, with recovery.

        The batch goes out in one write, so the worker reads it in one go
        and answers it in one tick.  Reads are idempotent, so a connection
        failure (the worker died mid-batch) triggers the bounded restart
        and then simply retries the whole batch against the recovered
        worker.
        """
        handle = self._workers[shard]
        frames = [encode_frame(payload) for payload in payloads]
        last_error: Optional[BaseException] = None
        for _ in range(self.cluster.max_restarts + 1):
            await self._wait_ready(handle)
            generation = handle.generation
            client = handle.client
            assert client is not None
            try:
                futures = await client.submit_many(frames)
                lines = await asyncio.gather(*futures)
                return [self._subresult(shard, line) for line in lines]
            except ConnectionError as error:
                last_error = error
                await self._restart(handle, generation)
        raise ClusterError(
            f"worker {shard} is unavailable: {last_error}"
        )

    @staticmethod
    def _subresult(shard: int, line: bytes) -> Any:
        response = json.loads(line)
        if not response.get("ok"):
            error = response["error"]
            if error["code"] == "malformed":
                # A key the workers' codec rejects: the supervisor holds no
                # codec to check it first, so it is the client's error.
                raise ProtocolError("malformed", error["message"])
            # The supervisor pre-validates everything else, so any other
            # worker-side error means the cluster's own invariants broke --
            # surface it loudly.
            raise ClusterError(
                f"worker {shard} rejected a subrequest: "
                f"{error['code']}: {error['message']}"
            )
        return response["result"]

    # ------------------------------------------------------------------
    # The two steps of a tick
    # ------------------------------------------------------------------
    def _loops(self) -> Dict[str, TickLoop]:
        return dict.fromkeys(self.routers, self)

    async def _stats_op(self) -> Dict[str, Any]:
        return await self.cluster_stats()

    async def _apply_writes(self, requests: List[Request]) -> List[bytes]:
        """Journal and forward each write to the tail worker, in order."""
        return [await self._apply_write(request) for request in requests]

    async def _answer_reads(self, requests: List[Request]) -> List[bytes]:
        """Route the batch per column, answering the columns concurrently.

        A column batch that raises (a key the workers' codec rejects, say)
        is answered again one request at a time, each error in its own
        frame, as :func:`~repro.serving.coalescer.run_read_tick` does.
        """
        by_column: Dict[str, List[int]] = {}
        for slot, request in enumerate(requests):
            by_column.setdefault(request.shard, []).append(slot)
        frames: List[bytes] = [b""] * len(requests)

        async def answer(name: str, slots: List[int]) -> None:
            router, version = self.routers[name], self.versions[name]
            members = [requests[slot] for slot in slots]
            try:
                answered = await router.answer(members, version)
            except Exception:
                answered = []
                for request in members:
                    try:
                        answered += await router.answer([request], version)
                    except Exception as error:
                        answered += self._error_frames([request], error)
            for slot, frame in zip(slots, answered):
                frames[slot] = frame

        await asyncio.gather(
            *(answer(name, slots) for name, slots in by_column.items())
        )
        return frames

    async def _apply_write(self, request: Request) -> bytes:
        """One journaled write to the tail worker, recovered if it crashes.

        The journal entry is appended *before* the send: from that moment
        the write is part of the column's durable definition, so a worker
        crash at any point recovers it through the replay -- the response
        the client gets is correct in either world, exactly once.
        """
        name = request.shard
        values = self._write_values(request)
        handle = self._workers[self.partition.tail]
        self._journal[name].append(values)
        self.versions[name] += len(values)
        version = self.versions[name]
        frame = encode_request("extend", shard=name, values=values)
        try:
            while True:
                await self._wait_ready(handle)
                generation = handle.generation
                client = handle.client
                assert client is not None
                try:
                    line = await client.call_raw(frame)
                except ConnectionError:
                    # The respawn's journal replay applies this write (it
                    # is already journaled); nothing to resend.
                    await self._restart(handle, generation)
                    await self._wait_ready(handle)
                    break
                response = json.loads(line)
                if not response.get("ok"):
                    # A clean worker-side rejection (e.g. codec error):
                    # forward it and undo the journal entry -- applied
                    # nowhere, reported as the single-process server would.
                    self._journal[name].pop()
                    self.versions[name] -= len(values)
                    error = response["error"]
                    return encode_error(request.id, error["code"], error["message"])
                break
        except ClusterError as error:
            # Tail worker dead past its restart budget: the write cannot
            # be served; undo the journal entry and degrade loudly.
            self._journal[name].pop()
            self.versions[name] -= len(values)
            return encode_error(request.id, "internal", error_message(error))
        return encode_result(request.id, {"appended": len(values)}, version)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cluster_state(self) -> Dict[str, Any]:
        """Topology snapshot: partition, versions, per-worker lifecycle."""
        return {
            "workers": {
                str(handle.index): handle.state() for handle in self._workers
            },
            "partition": self.partition.to_manifest(),
            "tail": self.partition.tail,
            "columns": {name: self.versions[name] for name in self.columns},
            "journal_entries": {
                name: len(entries) for name, entries in self._journal.items()
            },
            "total_restarts": self.total_restarts,
        }

    def stats(self) -> Dict[str, Any]:
        """The synchronous (``GET /stats``) payload: supervisor-local only.

        The NDJSON ``stats`` op serves :meth:`cluster_stats` instead, which
        additionally gathers and merges every live worker's metrics.
        """
        return {
            "cluster": self.cluster_state(),
            "metrics": self.metrics.snapshot(),
            "config": {
                "coalesce": self.config.coalesce,
                "coalesce_window": self.config.coalesce_window,
                "max_pending": self.config.max_pending,
                "request_timeout": self.config.request_timeout,
                "max_frame_bytes": self.config.max_frame_bytes,
                "workers": self.num_workers,
            },
        }

    async def cluster_stats(self) -> Dict[str, Any]:
        """The merged ``stats`` op payload.

        ``metrics`` is the exact counter **sum** of the supervisor's and
        every reachable worker's metrics (see
        :func:`~repro.serving.metrics.merge_snapshots`); the unmerged
        per-worker payloads ride along under ``workers``.
        """
        stats_frame = encode_request("stats")
        worker_metrics: Dict[str, Any] = {}
        for handle in self._workers:
            if handle.failed or not handle.ready.is_set():
                continue
            client = handle.client
            if client is None:
                continue
            try:
                line = await client.call_raw(stats_frame)
                payload = json.loads(line)
            except (ConnectionError, json.JSONDecodeError):
                continue
            if payload.get("ok"):
                worker_metrics[str(handle.index)] = payload["result"]["metrics"]
        merged = merge_snapshots(
            [self.metrics.snapshot()] + list(worker_metrics.values())
        )
        payload = self.stats()
        payload["metrics"] = merged
        payload["supervisor_metrics"] = self.metrics.snapshot()
        payload["worker_metrics"] = worker_metrics
        return payload

    async def check_workers(self) -> Dict[str, Any]:
        """Active health check: ping every worker over its data socket."""
        ping = encode_request("ping")
        health: Dict[str, Any] = {}
        for handle in self._workers:
            state = handle.state()
            alive = False
            if not handle.failed and handle.ready.is_set() and handle.client:
                try:
                    response = json.loads(await handle.client.call_raw(ping))
                    alive = response.get("result") == "pong"
                except (ConnectionError, json.JSONDecodeError):
                    alive = False
            health[str(handle.index)] = {**state, "alive": alive}
        return health
