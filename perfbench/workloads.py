"""The benchmark's four workloads, each with its oracle.

Every workload follows one life cycle, driven by ``run.py``:

``prepare()``
    generate the seeded inputs and the oracle (not timed);
``setup(traced)``
    everything a user pays before the first query -- generate, build, save,
    export, spawn -- returning ``(setup_s, cold_start_s)`` in CPU seconds;
``measure(seconds, window)``
    the timed phase, then the oracle gate over every answer; returns the
    raw figures (``Measured``);
``teardown()``
    stop every process the set-up started.

The served workloads launch the program through its CLI (``repro serve``)
over an RWT2 image and drive it with the closed-loop generator in
``procs.py``: one process, two connections, 32 frames in flight each.
``search_urls`` runs in the library, because search is not served; its cold
start launches ``repro search count`` over a saved index.

Every time figure is CPU time of the program, not wall time (``procs``
explains why): the serving processes' run time for the served workloads,
the calling thread's for the in-library search, the benchmark process's own
for the in-library builds of the set-up.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import procs

_now = time.perf_counter

#: Read-op mix shared by the served workloads.
READ_MIX = (("rank", 0.35), ("select", 0.30), ("rank_prefix", 0.20), ("access", 0.15))

#: The ``locate`` patterns of the search benchmark (length >= 4).
LOCATE_PATTERNS = ("http://www.", "shop", ".com/", "search", "static", "edit3")


class WrongAnswer(AssertionError):
    """The program returned an answer that disagrees with the oracle."""


@dataclass
class Context:
    """Where and how one benchmark run executes."""

    root: str      # the checkout
    work: str      # scratch directory of this run, inside the checkout
    seed: int
    tiny: bool
    trace_dir: Optional[str] = None  # set while the traced half runs

    def server_env(self, traced: bool) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src")]
        if traced:
            paths.insert(0, os.path.join(self.root, "perfbench", "boot"))
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir or ""
        else:
            env.pop("PERFBENCH_TRACE_DIR", None)
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def path(self, name: str) -> str:
        """A path inside the work directory, relative to the checkout.

        Unix socket paths are limited to ~107 bytes, so everything the
        servers bind is addressed relative to the checkout (the benchmark's
        working directory) or to the work directory (the servers').
        """
        return os.path.relpath(os.path.join(self.work, name), self.root)


@dataclass
class Measured:
    """Raw figures of one timed phase (already checked by the oracle)."""

    ops: int                    # operations answered inside the timed window
    cpu_s: float                # CPU seconds the program ran in the window
    latencies: List[float]      # CPU-clock latency (s) of each op in the window
    attempted: int              # operations checked (whole run)
    failed: int                 # typed error frames / refusals / timeouts
    bits_per_entry: float
    peak_rss_mb: float
    report: Dict[str, Any] = field(default_factory=dict)   # named extras


def _run(coro):
    return asyncio.run(coro)


def _frame(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def _positions(values: List[str]) -> Dict[str, List[int]]:
    table: Dict[str, List[int]] = {}
    for position, value in enumerate(values):
        table.setdefault(value, []).append(position)
    return table


def _prefixes(value: str) -> List[str]:
    """The ``/``-terminated proper prefixes of a hierarchical value."""
    parts = value.split("/")
    return ["/".join(parts[: depth + 1]) + "/" for depth in range(len(parts) - 1)]


def _pick_op(rng: random.Random) -> str:
    point = rng.random()
    for op, weight in READ_MIX:
        if point < weight:
            return op
        point -= weight
    return READ_MIX[-1][0]


class _ColumnOracle:
    """Answers every read op from per-value position lists."""

    def __init__(self, values: List[str]) -> None:
        self.values = values
        self.positions = _positions(values)
        self._prefix_positions: Dict[str, List[int]] = {}

    def prefix_positions(self, prefix: str) -> List[int]:
        cached = self._prefix_positions.get(prefix)
        if cached is None:
            merged: List[int] = []
            for value, where in self.positions.items():
                if value.startswith(prefix):
                    merged.extend(where)
            cached = self._prefix_positions[prefix] = sorted(merged)
        return cached

    def answer(self, op: str, key: Optional[str], arg: int) -> int | str:
        if op == "access":
            return self.values[arg]
        if op == "rank":
            return bisect.bisect_left(self.positions.get(key, []), arg)
        if op == "rank_prefix":
            return bisect.bisect_left(self.prefix_positions(key), arg)
        if op == "select":
            return self.positions[key][arg]
        raise ValueError(op)


def _read_frame(op: str, key: Optional[str], arg: int) -> bytes:
    if op == "access":
        return _frame({"op": "access", "pos": arg})
    if op == "rank":
        return _frame({"op": "rank", "value": key, "pos": arg})
    if op == "rank_prefix":
        return _frame({"op": "rank_prefix", "prefix": key, "pos": arg})
    return _frame({"op": "select", "value": key, "idx": arg})


def _served(result: procs.LoadResult, failed: int, bits_per_entry: float,
            rss: float) -> Measured:
    """The figures of a served timed phase; wall-clock ones go to the report."""
    window = result.in_window()
    wall = [done - sent for sent, done, *_ in window]
    span = result.window_end - result.window_start
    measured = Measured(
        ops=result.completed(),
        cpu_s=result.cpu_end - result.cpu_start,
        latencies=[done_cpu - sent_cpu for *_, sent_cpu, done_cpu in window],
        attempted=len(result.records),
        failed=failed,
        bits_per_entry=bits_per_entry,
        peak_rss_mb=rss,
    )
    measured.report.update(
        samples=len(window),
        wall_ops_per_s=measured.ops / span,
        wall_p50_ms=_ms(wall, 0.50),
        wall_p99_ms=_ms(wall, 0.99),
        serving_cpu_share=measured.cpu_s / span,
        serve_rss_mb=rss,
        slice_ops_per_cpu_s=_slice_rates(result),
    )
    return measured


def _slice_rates(result: procs.LoadResult, width: float = 1.0) -> List[float]:
    """Frames answered per serving CPU second in each ``width``-second slice."""
    marks: List[Tuple[int, float]] = []   # (frames answered, CPU) at slice ends
    edge, answered = result.window_start + width, 0
    for _, done, _, _, _, done_cpu in result.records:
        if done < result.window_start:
            continue
        while done > edge and edge <= result.window_end:
            marks.append((answered, done_cpu))
            edge += width
        answered += 1
    rates = []
    for (a0, c0), (a1, c1) in zip(marks, marks[1:]):
        rates.append((a1 - a0) / (c1 - c0) if c1 > c0 else 0.0)
    return rates


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class _Served:
    """Shared machinery of the workloads served through ``repro serve``."""

    name = ""
    connections = 2
    depth = 32
    warmup = 0.5

    def __init__(self, ctx: Context, rows: int) -> None:
        self.ctx = ctx
        self.rows = rows
        self.server: Optional[procs.ServerProcess] = None
        self.socket = ctx.path(f"{self.name}.sock")
        self.image = ctx.path(f"{self.name}.rwt2")
        self.launches = 0
        self.cold_wall_s: List[float] = []

    def generate(self) -> List[str]:
        from repro.workloads import ColumnGenerator

        return ColumnGenerator(
            cardinality=64, zipf_exponent=1.1, seed=self.ctx.seed
        ).generate(self.rows)

    def regenerate(self) -> List[str]:
        """The set-up's own generation step, checked against ``prepare``'s."""
        values = self.generate()
        if values != self.values:
            raise WrongAnswer("the generator is not deterministic for this seed")
        return values

    def probe(self) -> Tuple[bytes, Callable[[Dict[str, Any]], bool]]:
        """A read frame and the check its first answer must pass."""
        key = self.values[0]
        n = len(self.values)
        expected = self.oracle.answer("rank", key, n)
        return _read_frame("rank", key, n), (
            lambda r: r.get("ok") and r["result"] == expected and r["version"] == n
        )

    def setup(self, traced: bool) -> Tuple[float, float]:
        built = _build_cpu(self.build)
        cold = self.relaunch(traced)
        return built + cold, cold

    def relaunch(self, traced: bool = False) -> float:
        """(Re)start the server over the on-disk image; returns the CPU
        seconds its processes ran up to the first correct answer."""
        self.teardown()
        server = self._launch(self.serve_args(), traced)
        frame, check = self.probe()
        self.cold_wall_s.append(_run(procs.first_answer(server, self.socket, frame, check)))
        return procs.group_cpu_s(server.pid)

    # -- process control ---------------------------------------------------
    def _launch(self, args: List[str], traced: bool) -> procs.ServerProcess:
        self.launches += 1
        socket_name = os.path.basename(self.socket)
        argv = [sys.executable, "-m", "repro.cli", "serve"] + args + ["--socket", socket_name]
        server = procs.ServerProcess(
            argv,
            cwd=self.ctx.work,
            env=self.ctx.server_env(traced),
            log=os.path.join(self.ctx.work, f"{self.name}-{self.launches}.log"),
        )
        server.start()
        self.server = server
        return server

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def stats(self) -> Dict[str, Any]:
        response = _run(procs.call(self.socket, {"op": "stats"}))
        if not response.get("ok"):
            raise RuntimeError(f"stats failed: {response}")
        return response["result"]

    def serving_pids(self) -> List[int]:
        assert self.server is not None
        return [self.server.pid]

    # -- the timed phase ---------------------------------------------------
    def _drive(self, seconds: float, next_frame, on_response=None, window=None,
               beside=None, frames=None):
        pids = self.serving_pids()

        def edges(which: str) -> None:
            if window is not None:
                window(which, pids)

        clock = procs.CpuClock(pids)
        try:
            return _run(
                procs.closed_loop(
                    self.socket,
                    self.connections,
                    self.depth,
                    next_frame,
                    seconds,
                    self.warmup,
                    clock,
                    frames=frames,
                    on_response=on_response,
                    on_window=edges,
                    beside=beside,
                )
            )
        finally:
            clock.close()


class ServeZipf(_Served):
    """Read-only static RRR trie, hot keys, one server process."""

    name = "serve_zipf"
    hot_keys = 8
    pool = 4096

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, rows=3_000 if ctx.tiny else 100_000)

    def prepare(self) -> None:
        from repro.workloads import ZipfSampler

        self.values = self.generate()
        self.oracle = _ColumnOracle(self.values)
        rng = random.Random(self.ctx.seed * 7919 + 1)
        # The hot keys are the column's most frequent values, so every seed
        # walks trie paths of similar depth.
        by_count = sorted(self.oracle.positions,
                          key=lambda value: (-len(self.oracle.positions[value]), value))
        hot = ZipfSampler(by_count[: self.hot_keys], exponent=2.5, seed=self.ctx.seed + 3)
        n = len(self.values)
        frames: List[Tuple[bytes, Tuple[str, Optional[str], int]]] = []
        for _ in range(self.pool):
            op = _pick_op(rng)
            key = hot.sample()
            if op == "access":
                tag = ("access", None, rng.randrange(n))
            elif op == "rank":
                tag = ("rank", key, rng.randint(0, n))
            elif op == "rank_prefix":
                tag = ("rank_prefix", rng.choice(_prefixes(key)), rng.randint(0, n))
            else:
                tag = ("select", key, rng.randrange(len(self.oracle.positions[key])))
            frames.append((_read_frame(*tag), tag))
        self.frames = frames
        self.expected = [self.oracle.answer(*tag) for _, tag in frames]

    def build(self) -> None:
        from repro.core.static import WaveletTrie
        from repro.storage.image import save_image

        save_image(WaveletTrie(self.regenerate()), self.image)

    def serve_args(self) -> List[str]:
        return [os.path.basename(self.image)]

    def measure(self, seconds: float, window=None) -> Measured:
        cycle = itertools.cycle(range(len(self.frames)))
        frames = self.frames

        def next_frame():
            index = next(cycle)
            return frames[index][0], index

        result = self._drive(seconds, next_frame, window=window)
        stats = self.stats()
        pids = self.serving_pids()
        rss = sum(procs.peak_rss_mb(pid) for pid in pids)
        bits, rows = self.served_size(stats)
        if rows != len(self.values):
            raise WrongAnswer(f"served {rows} rows, expected {len(self.values)}")
        failed = 0
        n = len(self.values)
        for _, _, index, line, *_ in result.records:
            response = json.loads(line)
            if not response.get("ok"):
                failed += 1
                continue
            if response["result"] != self.expected[index] or response["version"] != n:
                raise WrongAnswer(
                    f"{frames[index][0]!r} -> {line!r}, expected {self.expected[index]!r}"
                )
        measured = _served(result, failed, bits / rows, rss)
        measured.report.update(bits_per_row=bits / rows, worker_restarts=self.restarts(stats))
        return measured

    def served_size(self, stats: Dict[str, Any]) -> Tuple[int, int]:
        shard = stats["shards"]["default"]
        return shard["size_in_bits"], shard["rows"]

    def restarts(self, stats: Dict[str, Any]) -> int:
        return 0

    def lower_bound_values(self) -> List[str]:
        return self.values


class ClusterCold(ServeZipf):
    """The ``serve_zipf`` corpus and stream through ``serve --workers 2``."""

    name = "cluster_cold"
    workers = 2

    def setup(self, traced: bool) -> Tuple[float, float]:
        self.teardown()
        shutil.rmtree(os.path.join(self.ctx.work, "shards"), ignore_errors=True)
        # No manifest yet: the first launch exports the shards.
        setup_s = _build_cpu(self.build) + self.relaunch(traced)
        self.cold_wall_s.pop()  # that launch was set-up, not a cold start
        # The cold start relaunches over the exported images.
        return setup_s, self.relaunch(traced)

    def relaunch(self, traced: bool = False) -> float:
        cold = super().relaunch(traced)
        self.worker_pids = [
            int(worker["pid"]) for worker in self.stats()["cluster"]["workers"].values()
        ]
        return cold

    def serve_args(self) -> List[str]:
        return [
            os.path.basename(self.image),
            "--workers", str(self.workers),
            "--image-dir", "shards",
        ]

    def serving_pids(self) -> List[int]:
        return [self.server.pid] + self.worker_pids

    def served_size(self, stats: Dict[str, Any]) -> Tuple[int, int]:
        from repro.storage.image import open_image
        from repro.storage.shards import load_manifest

        image_dir = os.path.join(self.ctx.work, "shards")
        manifest = load_manifest(image_dir)
        bits = sum(
            open_image(os.path.join(image_dir, name)).size_in_bits()
            for names in manifest["images"].values()
            for name in names
        )
        return bits, stats["cluster"]["columns"]["default"]

    def restarts(self, stats: Dict[str, Any]) -> int:
        return int(stats["cluster"]["total_restarts"])

    def measure(self, seconds: float, window=None) -> Measured:
        measured = super().measure(seconds, window)
        if measured.report["worker_restarts"]:
            raise WrongAnswer(
                f"{measured.report['worker_restarts']} worker restarts during the run"
            )
        return measured


class IngestMixed(_Served):
    """Writes beside reads on a tiered trie that seals and compacts.

    A frame costs more the more rows the trie holds, so the warm-up and the
    timed window are fixed numbers of frames: every run appends the same
    rows.  ``frames_per_second`` sizes the window to ``--seconds`` on the
    reference host.
    """

    name = "ingest_mixed"
    write_share = 0.25
    rows_per_write = 16
    compact_budget = 64
    warmup_frames = 300
    frames_per_second = 600

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, rows=2_000 if ctx.tiny else 50_000)
        self.active_capacity = 512 if ctx.tiny else 4096

    def prepare(self) -> None:
        from repro.workloads import ColumnGenerator

        self.values = self.generate()
        self.oracle = _ColumnOracle(self.values)
        rng = random.Random(self.ctx.seed * 7919 + 2)
        self.keys = sorted(self.oracle.positions)
        self.prefix_pool = sorted({p for key in self.keys for p in _prefixes(key)})
        distinct = ColumnGenerator(cardinality=64).distinct_values()
        self.batches = [
            [rng.choice(distinct) for _ in range(self.rows_per_write)]
            for _ in range(512)
        ]
        self.batch_frames = [_frame({"op": "extend", "values": b}) for b in self.batches]
        # One op stream per run: (kind, key, uniform) drawn up front.
        self.stream = []
        for _ in range(8192):
            if rng.random() < self.write_share:
                self.stream.append(("extend", rng.randrange(len(self.batches)), 0.0))
                continue
            op = _pick_op(rng)
            key = rng.choice(self.prefix_pool if op == "rank_prefix" else self.keys)
            self.stream.append((op, key, rng.random()))

    def build(self) -> None:
        from repro.core.tiers import TieredWaveletTrie
        from repro.storage.image import save_image

        # One frozen tier holding every row, then the small tail capacity
        # the served run seals at.
        trie = TieredWaveletTrie(self.regenerate(), active_capacity=self.rows + 1)
        trie.compact(merge=True)
        trie.active_capacity = self.active_capacity
        save_image(trie, self.image)

    def serve_args(self) -> List[str]:
        return [os.path.basename(self.image), "--compact-budget", str(self.compact_budget)]

    def measure(self, seconds: float, window=None) -> Measured:
        n0 = len(self.values)
        known = [n0]          # every row below this is acknowledged
        acked: Dict[int, int] = {}
        writes: Dict[int, int] = {}   # version after the write -> batch index
        counts = {key: len(self.oracle.positions[key]) for key in self.keys}
        stream = itertools.cycle(self.stream)

        def next_frame():
            kind, key, u = next(stream)
            if kind == "extend":
                return self.batch_frames[key], ("extend", key, 0)
            if kind == "access":
                arg = int(u * known[0])
            elif kind == "select":
                arg = int(u * counts[key])
            else:
                arg = int(u * (known[0] + 1))
            tag = (kind, key, arg)
            return _read_frame(*tag), tag

        def on_response(tag, line):
            if tag[0] != "extend":
                return
            response = json.loads(line)
            if not response.get("ok"):
                return
            version = response["version"]
            writes[version] = tag[1]
            acked[version - self.rows_per_write] = version
            while known[0] in acked:
                known[0] = acked.pop(known[0])

        # Space is sampled each time another 1024 acknowledged rows land, up
        # to 16 samples: the same row counts in every run, so neither the
        # host's speed nor where the run ends in the seal cycle moves it.
        bits_samples: List[float] = []

        async def sample_space(result: procs.LoadResult) -> None:
            mark = n0 + 8 * 1024
            while len(bits_samples) < 16 and _now() < result.window_end:
                await asyncio.sleep(0.02)
                if known[0] >= mark:
                    stats = (await procs.call(self.socket, {"op": "stats"}))["result"]
                    shard = stats["shards"]["default"]
                    bits_samples.append(shard["size_in_bits"] / shard["rows"])
                    mark += 1024

        result = self._drive(seconds, next_frame, on_response=on_response, window=window,
                             beside=sample_space,
                             frames=(self.warmup_frames, int(self.frames_per_second * seconds)))
        span = result.window_end - result.window_start
        stats = self.stats()
        pids = self.serving_pids()
        rss = sum(procs.peak_rss_mb(pid) for pid in pids)
        shard = stats["shards"]["default"]

        # Rebuild the final column from the acknowledged writes.
        final = list(self.values)
        for version in sorted(writes):
            if version - self.rows_per_write != len(final):
                raise WrongAnswer(f"write acknowledged at version {version} leaves a gap")
            final.extend(self.batches[writes[version]])
        if shard["rows"] != len(final):
            raise WrongAnswer(f"served {shard['rows']} rows, acknowledged {len(final)}")
        oracle = _ColumnOracle(final)

        failed = 0
        write_lat: List[float] = []
        read_lat: List[float] = []
        reads = written = 0
        for sent, done, tag, line, *_ in result.records:
            response = json.loads(line)
            in_window = sent >= result.window_start and done <= result.window_end
            if not response.get("ok"):
                failed += 1
                continue
            version = response["version"]
            if tag[0] == "extend":
                if in_window:
                    write_lat.append(done - sent)
                if result.window_start <= done <= result.window_end:
                    written += self.rows_per_write
                continue
            op, key, arg = tag
            limit = arg + 1 if op == "access" else arg
            if not n0 <= version <= len(final) or (op != "select" and limit > version):
                raise WrongAnswer(f"{tag} answered at version {version}")
            expected = oracle.answer(op, key, arg)
            if op == "select" and expected >= version:
                raise WrongAnswer(f"{tag} answered at version {version}")
            if response["result"] != expected:
                raise WrongAnswer(f"{tag} -> {line!r}, expected {expected!r}")
            if in_window:
                read_lat.append(done - sent)
            if result.window_start <= done <= result.window_end:
                reads += 1
        measured = _served(
            result,
            failed,
            statistics.median(bits_samples or [shard["size_in_bits"] / shard["rows"]]),
            rss,
        )
        measured.report.update(
            read_rps=reads / span,
            write_rows_per_s=written / span,
            read_p50_ms=_ms(read_lat, 0.50),
            read_p99_ms=_ms(read_lat, 0.99),
            write_p50_ms=_ms(write_lat, 0.50),
            write_p99_ms=_ms(write_lat, 0.99),
            read_samples=len(read_lat),
            write_samples=len(write_lat),
            rows_at_end=len(final),
            bits_per_row_at_end=shard["size_in_bits"] / shard["rows"],
            bits_samples=len(bits_samples),
        )
        self.final = final
        return measured

    def lower_bound_values(self) -> List[str]:
        return getattr(self, "final", self.values)


def _ms(values: List[float], fraction: float) -> Optional[float]:
    return procs.percentile(values, fraction) * 1000.0 if values else None


def _build_cpu(build: Callable[[], None]) -> float:
    """CPU seconds of an in-process build step."""
    started = time.process_time()
    build()
    return time.process_time() - started


# ----------------------------------------------------------------------
# In-library search
# ----------------------------------------------------------------------
class SearchUrls:
    """``DocumentStore`` count and locate over a URL log, in the library."""

    name = "search_urls"
    batch = 32

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.docs_count = 150 if ctx.tiny else 3_000
        self.patterns_count = 128 if ctx.tiny else 1_024
        self.index_path = ctx.path(f"{self.name}.rwt1")
        self.cold_rss: List[float] = []
        self.cold_wall_s: List[float] = []

    def generate(self) -> List[str]:
        from repro.workloads import UrlLogGenerator

        return UrlLogGenerator(domains=40, depth=4, branching=6,
                               seed=self.ctx.seed).generate(self.docs_count)

    def prepare(self) -> None:
        self.docs = self.generate()
        rng = random.Random(self.ctx.seed * 7919 + 4)
        joined = "\x00".join(self.docs)
        self.patterns = []
        for _ in range(self.patterns_count):
            start = rng.randrange(len(joined) - 8)
            self.patterns.append(joined[start : start + 8].replace("\x00", "/"))
        self.counts = [_naive_count(self.docs, p) for p in self.patterns]
        self.locations = {p: _naive_locate(self.docs, p) for p in LOCATE_PATTERNS}
        self.text_chars = sum(len(doc) + 1 for doc in self.docs)

    def setup(self, traced: bool) -> Tuple[float, float]:
        from repro.db.doc_store import DocumentStore
        from repro.storage import save

        def build() -> None:
            docs = self.generate()
            if docs != self.docs:
                raise WrongAnswer("the generator is not deterministic for this seed")
            self.store = DocumentStore(docs, sa_sample=32)
            save(self.store, self.index_path)

        return _build_cpu(build), self._cold_start()

    def _cold_start(self) -> float:
        """Launch ``repro search count`` over the saved index -> correct count;
        returns the CPU seconds the process ran."""
        pattern = LOCATE_PATTERNS[1]
        argv = [sys.executable, "-m", "repro.cli", "search", "count",
                self.index_path, pattern, "--json"]
        log_path = os.path.join(self.ctx.work, "search-count.log")
        with open(log_path, "wb") as log:
            started = _now()
            proc = subprocess.Popen(argv, cwd=self.ctx.root, env=self.ctx.server_env(False),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=log)
            out = proc.stdout.read()
            # wait4 reaps this one child and reports its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = _now() - started
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                raise RuntimeError(f"search count failed: {log.read()[-2000:]}")
        count = json.loads(out)["results"][0]["count"]
        if count != len(self.locations[pattern]):
            raise WrongAnswer(f"cold count {count}, expected {len(self.locations[pattern])}")
        self.cold_rss.append(usage.ru_maxrss / 1024.0)
        self.cold_wall_s.append(elapsed)
        return usage.ru_utime + usage.ru_stime

    def relaunch(self, traced: bool = False) -> float:
        return self._cold_start()

    def teardown(self) -> None:
        self.store = None

    def measure(self, seconds: float, window=None) -> Measured:
        store = self.store
        patterns, batch = self.patterns, self.batch
        count_lat: List[float] = []
        locate_lat: List[float] = []
        answered = located = rounds = 0
        cpu = time.thread_time
        if window is not None:
            window("open", [])
        started = _now()
        deadline = started + seconds
        while not rounds or _now() < deadline:
            for offset in range(0, len(patterns), batch):
                chunk = patterns[offset : offset + batch]
                t0 = cpu()
                counts = store.count_many(chunk)
                count_lat.append(cpu() - t0)
                if counts != self.counts[offset : offset + batch]:
                    raise WrongAnswer(f"count_many mismatch at batch {offset // batch}")
                answered += len(chunk)
            for pattern in LOCATE_PATTERNS:
                t0 = cpu()
                matches = store.locate(pattern)
                locate_lat.append(cpu() - t0)
                if matches != self.locations[pattern]:
                    raise WrongAnswer(f"locate({pattern!r}) disagrees with str.find")
                answered += 1
                located += len(matches)
            rounds += 1
        wall = _now() - started
        if window is not None:
            window("close", [])
        bits = store.fm_index.size_in_bits()
        latencies = count_lat + locate_lat
        measured = Measured(
            ops=answered,
            cpu_s=sum(latencies),
            latencies=latencies,
            attempted=answered,
            failed=0,
            bits_per_entry=bits / store.text_length,
            peak_rss_mb=statistics.median(self.cold_rss),
        )
        measured.report.update(
            rounds=rounds,
            samples=len(latencies),
            wall_ops_per_s=answered / wall,
            search_count_qps=rounds * len(patterns) / sum(count_lat),
            search_locate_occ_per_s=located / sum(locate_lat),
            locate_p50_ms=_ms(locate_lat, 0.5),
            count_batch_p50_ms=_ms(count_lat, 0.5),
            bits_per_char=bits / store.text_length,
            documents=len(self.docs),
            text_chars=self.text_chars,
        )
        return measured

    def lower_bound_values(self) -> Optional[List[str]]:
        return None


def _naive_count(documents: List[str], pattern: str) -> int:
    return len(_naive_locate(documents, pattern))


def _naive_locate(documents: List[str], pattern: str) -> List[Tuple[int, int]]:
    matches: List[Tuple[int, int]] = []
    for doc, document in enumerate(documents):
        start = document.find(pattern)
        while start >= 0:
            matches.append((doc, start))
            start = document.find(pattern, start + 1)
    return matches


WORKLOADS = {
    cls.name: cls for cls in (ServeZipf, IngestMixed, ClusterCold, SearchUrls)
}
