"""The serving tick loop, and one served shard built on it.

:class:`TickLoop` is where the server's concurrency rules live, once for
both front ends -- the single-process :class:`IndexShard` below and the
multi-process :class:`~repro.serving.cluster.ClusterSupervisor`:

* **Single writer.**  Exactly one *pump* task per loop ever applies
  writes.  Each tick first applies every queued write -- including writes
  that arrive while the write step awaits -- and only then answers one
  read batch, so appends and compaction stay off the read path.
* **Coalescing.**  A tick answers every queued read at once (or exactly
  one with ``coalesce=False``), after a short gather window that lets
  staggered arrivals join.
* **Backpressure and timeouts.**  The queue is bounded -- a submit beyond
  ``max_pending`` is rejected immediately with ``overloaded`` -- and each
  queued request carries a deadline checked when its tick drains
  (``timeout``).  Time comes from an injectable clock so the fault harness
  can expire requests deterministically, without sleeping.

A loop's user supplies only the two steps of a tick: ``_apply_writes``
and ``_answer_reads``, each mapping a request batch to aligned response
frames.  :class:`IndexShard` applies writes as one bulk ``extend`` plus a
budgeted ``compact_step``, and answers reads with
:func:`~repro.serving.coalescer.run_read_tick` on a pinned
:class:`~repro.db.column.ColumnSnapshot` (an O(1) prefix pin): writes
landing mid-batch (including injected churn) are invisible until the next
tick's pin.

All coordination is plain asyncio on one loop: ``submit`` parks the caller
on a future, an :class:`asyncio.Event` wakes the pump, and the pump resolves
the futures with pre-encoded response frames.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.db.column import ColumnSnapshot, CompressedColumn
from repro.serving.coalescer import run_read_tick
from repro.serving.faults import FaultInjector
from repro.serving.metrics import ServingMetrics
from repro.serving.protocol import (
    READ_OPS,
    WRITE_OPS,
    Request,
    encode_error,
    encode_result,
    error_code_for_exception,
    error_message,
)

__all__ = ["IndexShard", "TickLoop"]


@dataclass
class _Pending:
    """A parked request: its frame comes back through ``future``."""

    request: Request
    future: "asyncio.Future[bytes]"
    deadline: Optional[float] = None


class TickLoop:
    """Bounded request queues drained tick by tick by one pump task.

    Owns admission (``shutting_down`` while draining, ``overloaded`` past
    ``max_pending``), per-request deadlines, the pump task, the gather
    window and :meth:`drain`.  Subclasses implement the two steps of a
    tick, :meth:`_apply_writes` and :meth:`_answer_reads`.
    """

    def __init__(
        self,
        *,
        coalesce: bool = True,
        coalesce_window: int = 0,
        max_pending: int = 1024,
        request_timeout: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[ServingMetrics] = None,
    ) -> None:
        self.coalesce = coalesce
        self.coalesce_window = coalesce_window
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._clock = clock if clock is not None else time.monotonic
        self._clock_offset = 0.0
        self._reads: Deque[_Pending] = deque()
        self._writes: Deque[_Pending] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._pump_task: Optional["asyncio.Task"] = None
        self._draining = False

    # ------------------------------------------------------------------
    # The two steps of a tick (subclass hooks)
    # ------------------------------------------------------------------
    async def _apply_writes(self, requests: List[Request]) -> List[bytes]:
        """Apply one batch of writes in queue order; one frame per request."""
        raise NotImplementedError

    async def _answer_reads(self, requests: List[Request]) -> List[bytes]:
        """Answer one batch of reads (possibly empty); one frame per request."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Clock (injectable, skewable by the fault harness)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current loop time: the injected clock plus any fault skew."""
        return self._clock() + self._clock_offset

    def advance_clock(self, seconds: float) -> None:
        """Skew the loop clock forward (fault harness: trigger timeouts)."""
        self._clock_offset += seconds

    def queue_depth(self) -> int:
        """Requests currently parked on the loop (reads + writes)."""
        return len(self._reads) + len(self._writes)

    # ------------------------------------------------------------------
    # Submission (called from connection handlers)
    # ------------------------------------------------------------------
    async def submit(self, request: Request) -> bytes:
        """Queue one request and await its response frame.

        Rejects immediately (without queueing) when the loop is draining
        (``shutting_down``) or the bounded queue is full (``overloaded``).
        """
        self.metrics.record_request(request.op)
        if self._draining:
            return self._reject(request, "shutting_down", "server is draining")
        if self.queue_depth() >= self.max_pending:
            return self._reject(
                request,
                "overloaded",
                f"shard {request.shard!r} queue is full "
                f"({self.max_pending} pending)",
            )
        self._ensure_pump()
        started = self.now()
        deadline = (
            started + self.request_timeout
            if self.request_timeout is not None
            else None
        )
        pending = _Pending(
            request,
            asyncio.get_running_loop().create_future(),
            deadline,
        )
        if request.op in WRITE_OPS:
            self._writes.append(pending)
        else:
            assert request.op in READ_OPS, request.op
            self._reads.append(pending)
        assert self._wakeup is not None
        self._wakeup.set()
        frame = await pending.future
        self.metrics.record_latency(request.op, self.now() - started)
        # Sorted-key encoding puts "error" first in error frames only.
        if frame.startswith(b'{"error"'):
            self.metrics.record_error(json.loads(frame)["error"]["code"])
        return frame

    def _reject(self, request: Request, code: str, message: str) -> bytes:
        self.metrics.record_error(code)
        return encode_error(request.id, code, message)

    @staticmethod
    def _error_frames(requests: List[Request], error: Exception) -> List[bytes]:
        """The typed error frame ``error`` maps to, once per request."""
        code = error_code_for_exception(error)
        message = error_message(error)
        return [encode_error(request.id, code, message) for request in requests]

    @staticmethod
    def _write_values(request: Request) -> List[str]:
        """The rows one ``append`` / ``extend`` request adds."""
        if request.op == "append":
            return [request.args["value"]]
        return list(request.args["values"])

    # ------------------------------------------------------------------
    # The pump: the loop's single writer task
    # ------------------------------------------------------------------
    def _ensure_pump(self) -> None:
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def _pump(self) -> None:
        assert self._wakeup is not None
        while True:
            if self._reads or self._writes:
                self.metrics.record_tick()
                await self._gather_window()
                await self._tick()
            elif self._draining:
                return
            else:
                self._wakeup.clear()
                await self._wakeup.wait()

    async def _gather_window(self) -> None:
        """Give staggered in-flight submissions a few loop turns to join.

        Clients sharing the server's event loop land their requests in one
        ready-callback batch, and so do the frames of one socket read (the
        NDJSON handler starts them in one loop turn): the pump, woken by the
        first submit but scheduled after the rest, already sees them all.
        Frames in separate reads are different: they arrive staggered
        across selector passes, and the pump can wake between two arrivals
        and drain a near-empty queue.  Each ``sleep(0)`` here runs one full
        pass of ready callbacks (including freshly readable connections);
        the loop stops early once the queue stops growing, so an idle loop
        pays one wasted yield at most.  Bounded by ``coalesce_window``
        (0: off -- the deterministic fault tests rely on single-yield tick
        timing) and skipped without coalescing.
        """
        if not self.coalesce or self.coalesce_window <= 0:
            return
        for _ in range(self.coalesce_window):
            before = self.queue_depth()
            await asyncio.sleep(0)
            if self.queue_depth() == before:
                break

    async def _tick(self) -> None:
        """One queue drain: every queued write, then one read batch."""
        now = self.now()
        while self._writes:
            writes = self._take(self._writes, len(self._writes), now)
            if writes:
                frames = await self._apply_writes([p.request for p in writes])
                self._resolve_all(writes, frames)
        count = len(self._reads) if self.coalesce else 1
        reads = self._take(self._reads, count, now)
        requests = [p.request for p in reads]
        try:
            frames = await self._answer_reads(requests)
        except Exception as error:
            frames = self._error_frames(requests, error)
        self._resolve_all(reads, frames)

    def _take(self, queue: Deque[_Pending], count: int, now: float) -> List[_Pending]:
        """Pop up to ``count`` requests; expired ones are answered here."""
        taken = [queue.popleft() for _ in range(min(count, len(queue)))]
        live = []
        for pending in taken:
            if pending.deadline is not None and now > pending.deadline:
                self._resolve(
                    pending,
                    encode_error(
                        pending.request.id,
                        "timeout",
                        f"request expired after {self.request_timeout}s in queue",
                    ),
                )
            else:
                live.append(pending)
        return live

    @classmethod
    def _resolve_all(cls, batch: List[_Pending], frames: List[bytes]) -> None:
        for pending, frame in zip(batch, frames):
            cls._resolve(pending, frame)

    @staticmethod
    def _resolve(pending: _Pending, frame: bytes) -> None:
        # A caller that went away (cancelled dispatch) cancelled its future.
        if not pending.future.done():
            pending.future.set_result(frame)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful stop: answer everything queued, reject new submissions.

        Sets the draining flag (new ``submit`` calls get ``shutting_down``),
        wakes the pump so it finishes every parked request, and waits for
        the pump task to exit.
        """
        self._draining = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None


class IndexShard(TickLoop):
    """A named column served by one pump task with coalescing queues."""

    def __init__(
        self,
        name: str,
        column: CompressedColumn,
        *,
        coalesce: bool = True,
        coalesce_window: int = 0,
        max_pending: int = 1024,
        request_timeout: Optional[float] = None,
        compact_budget: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[ServingMetrics] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(
            coalesce=coalesce,
            coalesce_window=coalesce_window,
            max_pending=max_pending,
            request_timeout=request_timeout,
            clock=clock,
            metrics=metrics,
        )
        self.name = name
        self.column = column
        self.compact_budget = compact_budget
        self.faults = faults if faults is not None else FaultInjector()
        self._snapshot: Optional[ColumnSnapshot] = None

    @property
    def snapshot(self) -> Optional[ColumnSnapshot]:
        """The snapshot the last tick pinned (None before the first tick)."""
        return self._snapshot

    def stats(self) -> Dict[str, Any]:
        """The shard's slice of the ``stats`` endpoint payload."""
        return {
            "rows": len(self.column),
            "snapshot_version": (
                self._snapshot.version if self._snapshot is not None else None
            ),
            "appendable": self.column.appendable,
            "coalesce": self.coalesce,
            "queue_depth": self.queue_depth(),
            "draining": self._draining,
            "size_in_bits": self.column.size_in_bits(),
        }

    async def _apply_writes(self, requests: List[Request]) -> List[bytes]:
        """Coalesce this tick's appends into one bulk ``extend``.

        Amortised: one ``extend`` (no descent for a value the tail's path
        cache routes) absorbs every write queued this tick, then one
        budgeted ``compact_step`` advances the freeze of a sealed tail --
        all off the read path.  That step never merges frozen tiers, so
        each seal adds one; reads stay cheap because each walks only the
        tier owning its position.  Per-request versions are assigned as if
        the writes ran serially in queue order.  A value the codec rejects
        makes the combined ``extend`` raise before any row lands; when
        nothing landed the requests are applied one at a time, so only the
        bad ones fail and every frame is the one a serial server sends.  An
        error raised after rows landed fails the whole tick.
        """
        before = len(self.column)
        try:
            frames = self._extend(requests)
        except Exception as error:
            if len(requests) == 1 or len(self.column) != before:
                return self._error_frames(requests, error)
            frames = []
            for request in requests:
                try:
                    frames += self._extend([request])
                except Exception as alone:
                    frames += self._error_frames([request], alone)
        if self.compact_budget is not None and hasattr(
            self.column.index, "compact_step"
        ):
            self.column.index.compact_step(self.compact_budget)
        return frames

    def _extend(self, requests: List[Request]) -> List[bytes]:
        """One ``extend`` of every row ``requests`` add; a frame per request."""
        counts = []
        combined: List[str] = []
        for request in requests:
            values = self._write_values(request)
            combined.extend(values)
            counts.append(len(values))
        version = len(self.column)
        self.column.extend(combined)
        self.metrics.record_batch("write", len(combined))
        frames = []
        for request, count in zip(requests, counts):
            version += count
            frames.append(encode_result(request.id, {"appended": count}, version))
        return frames

    async def _answer_reads(self, requests: List[Request]) -> List[bytes]:
        """Pin this tick's snapshot, then answer the batch against it."""
        if self._snapshot is None or not self._snapshot.is_current():
            self._snapshot = self.column.snapshot()
        snapshot = self._snapshot
        if not requests:
            return []
        # The fault seam: runs after the snapshot pin, so injected churn is
        # exactly the concurrent write a pinned reader must not see.
        await self.faults.before_batch(self)
        return run_read_tick(snapshot, requests, self.metrics)
