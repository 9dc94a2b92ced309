"""Serving processes and the closed-loop load generator.

:class:`ServerProcess` launches ``repro serve`` through its CLI in its own
session, so that stopping it can always reach every process it spawned
(cluster workers included).  :func:`first_answer` measures the cold start: it
polls the unix socket until one read frame comes back correct.
:func:`closed_loop` is the load generator: one asyncio task per connection,
each keeping ``depth`` frames in flight and sending the next frame as soon as
a response arrives.  Responses correlate FIFO per connection (the server
answers in request order), so frames carry no ids and nothing is parsed while
the clock runs unless the workload asks for it.

Times that the benchmark reports are CPU time, read from the kernel's
per-task run-time counters (``/proc/<pid>/task/<tid>/schedstat``, in ns).
On a shared virtual machine the hypervisor takes the CPU away for stretches
of milliseconds to minutes; wall-clock figures swing with it, while a
process's run time does not count the time it was not running.
:class:`CpuClock` sums the run time of the serving processes, and
:func:`group_cpu_s` that of every process in a server's process group.
"""

from __future__ import annotations

import asyncio
import glob
import json
import math
import os
import signal
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

__all__ = [
    "CpuClock",
    "LoadResult",
    "ServerProcess",
    "call",
    "closed_loop",
    "first_answer",
    "group_cpu_s",
    "peak_rss_mb",
    "percentile",
]

_now = time.perf_counter


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _schedstat_paths(pid: int) -> List[str]:
    return glob.glob(f"/proc/{pid}/task/*/schedstat")


def _run_ns(raw: bytes) -> int:
    return int(raw.split(maxsplit=1)[0])


class CpuClock:
    """CPU seconds the given processes have run, summed over their threads.

    The files stay open and are re-read in place, so a reading costs a few
    microseconds and can be taken for every chunk of responses.
    """

    def __init__(self, pids: List[int]) -> None:
        self._fds = [os.open(path, os.O_RDONLY) for pid in pids for path in _schedstat_paths(pid)]
        if not self._fds:
            raise RuntimeError(f"no schedstat for processes {pids}")

    def __call__(self) -> float:
        return sum(_run_ns(os.pread(fd, 64, 0)) for fd in self._fds) / 1e9

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


def group_cpu_s(group: int) -> float:
    """CPU seconds run so far by every live process of a process group."""
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
            if int(fields[2]) != group:
                continue
            for path in _schedstat_paths(int(entry)):
                with open(path, "rb") as source:
                    total += _run_ns(source.read())
        except (OSError, IndexError, ValueError):  # the process just exited
            continue
    return total / 1e9


class ServerProcess:
    """One ``python -m repro.cli serve`` process group."""

    def __init__(self, argv: List[str], cwd: str, env: Dict[str, str], log: str) -> None:
        self.argv = argv
        self.cwd = cwd
        self.env = env
        self.log_path = log
        self.proc: Optional[subprocess.Popen] = None
        self.launched = 0.0

    def start(self) -> None:
        with open(self.log_path, "ab") as log:
            self.launched = _now()
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def check_alive(self) -> None:
        if self.proc is not None and self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with code {self.proc.returncode}; log:\n{self.log_tail()}"
            )

    def log_tail(self, lines: int = 20) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                return "".join(log.readlines()[-lines:])
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM the server (it drains its workers), then reap the group."""
        if self.proc is None:
            return
        group = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(group)
                self.proc.wait(timeout)
        deadline = _now() + timeout
        while _group_alive(group):
            if _now() > deadline:
                _kill_group(group)
                deadline = _now() + timeout
            time.sleep(0.01)
        self.proc = None


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


async def call(socket_path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """One request on a fresh connection; returns the decoded response."""
    reader, writer = await asyncio.open_unix_connection(socket_path, limit=1 << 24)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def first_answer(
    server: ServerProcess,
    socket_path: str,
    frame: bytes,
    check: Callable[[Dict[str, Any]], bool],
    timeout: float = 120.0,
) -> float:
    """Seconds from the server's launch to its first correct answer."""
    deadline = server.launched + timeout
    while True:
        try:
            reader, writer = await asyncio.open_unix_connection(socket_path)
        except (FileNotFoundError, ConnectionRefusedError):
            server.check_alive()
            if _now() > deadline:
                raise TimeoutError(f"server did not answer within {timeout}s")
            await asyncio.sleep(0.002)
            continue
        try:
            writer.write(frame)
            await writer.drain()
            line = await reader.readline()
        finally:
            writer.close()
            await writer.wait_closed()
        elapsed = _now() - server.launched
        response = json.loads(line)
        if not check(response):
            raise AssertionError(f"first answer is wrong: {response}")
        return elapsed


@dataclass
class LoadResult:
    """Every completed frame of a closed-loop run, with the timed window.

    ``window_start``/``window_end`` are set to the instants the window really
    opened and closed, and ``cpu_start``/``cpu_end`` to the serving CPU clock
    read at those instants.
    """

    window_start: float
    window_end: float
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    # (sent, done, tag, response line, sent CPU, done CPU) per frame, in
    # completion order: wall times and the serving CPU clock at both ends.
    records: List[Tuple[float, float, Any, bytes, float, float]] = field(default_factory=list)

    def in_window(self) -> List[Tuple[float, float, Any, bytes, float, float]]:
        """The frames sent and answered inside the window."""
        return [r for r in self.records
                if self.window_start <= r[0] and r[1] <= self.window_end]

    def completed(self) -> int:
        """How many frames were answered inside the window."""
        return sum(1 for r in self.records if self.window_start <= r[1] <= self.window_end)


async def closed_loop(
    socket_path: str,
    connections: int,
    depth: int,
    next_frame: Callable[[], Tuple[bytes, Any]],
    seconds: float,
    warmup: float,
    clock: Callable[[], float],
    frames: Optional[Tuple[int, int]] = None,
    on_response: Optional[Callable[[Any, bytes], None]] = None,
    on_window: Optional[Callable[[str], None]] = None,
    beside: Optional[Callable[[LoadResult], Awaitable[None]]] = None,
) -> LoadResult:
    """Drive ``connections`` pipelined connections for ``warmup + seconds``.

    Each connection keeps ``depth`` frames in flight; a response triggers
    the next send until the window closes, then the connection drains.
    With ``frames=(warm-up frames, window frames)`` both are counted in
    answered frames instead of seconds, so that every run does the same work
    whatever the host's speed (for a workload whose cost grows as it runs).
    ``clock`` is the serving CPU clock, read once per chunk of responses.
    ``on_window("open"/"close")`` runs at the window edges (the traced run
    signals its servers there); ``beside(result)`` runs alongside the load.
    """
    start = _now()
    if frames is None:
        result = LoadResult(start + warmup, start + warmup + seconds)
    else:
        result = LoadResult(math.inf, math.inf)
    records = result.records

    def open_window(now: float, cpu: float) -> None:
        result.window_start, result.cpu_start = now, cpu
        if on_window is not None:
            on_window("open")

    def close_window(now: float, cpu: float) -> None:
        result.window_end, result.cpu_end = now, cpu
        if on_window is not None:
            on_window("close")

    async def drive() -> None:
        reader, writer = await asyncio.open_unix_connection(socket_path, limit=1 << 24)
        inflight: deque = deque()

        def send_one(cpu: float) -> None:
            frame, tag = next_frame()
            inflight.append((_now(), cpu, tag))
            writer.write(frame)

        try:
            cpu = clock()
            for _ in range(depth):
                send_one(cpu)
            pending = b""
            while inflight:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                done, cpu = _now(), clock()
                lines = (pending + chunk).split(b"\n")
                pending = lines.pop()
                for line in lines:
                    sent, sent_cpu, tag = inflight.popleft()
                    records.append((sent, done, tag, line, sent_cpu, cpu))
                    if frames is not None:
                        if len(records) == frames[0]:
                            open_window(done, cpu)
                        elif len(records) == frames[0] + frames[1]:
                            close_window(done, cpu)
                    if on_response is not None:
                        on_response(tag, line)
                    if done < result.window_end:
                        send_one(cpu)
        finally:
            writer.close()
            await writer.wait_closed()

    async def edges() -> None:
        await asyncio.sleep(max(0.0, result.window_start - _now()))
        open_window(_now(), clock())
        await asyncio.sleep(max(0.0, result.window_end - _now()))
        close_window(_now(), clock())

    tasks = [drive() for _ in range(connections)]
    if frames is None:
        tasks.append(edges())
    if beside is not None:
        tasks.append(beside(result))
    await asyncio.gather(*tasks)
    return result


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]
