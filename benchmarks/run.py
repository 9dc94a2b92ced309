"""The benchmark runner: every figure README.md, docs/ and ROADMAP.md cite.

One script, one schema.  ``BENCH.json`` holds a host block (python and
numpy versions, cpu count) and a flat list of rows
``{case, name, value, unit, n, backend}``: ``n`` is the input size the row
was measured at and ``backend`` the kernel backend active while it ran.
The docs cite a row as ```case.name```.  The cases:

* ``backends`` -- the python and numpy kernel backends side by side on the
  same 1M-bit payload, each at its native container boundary (python:
  lists; numpy: arrays), plus the numpy backend fed python lists where the
  docs quote that boundary;
* ``storage`` -- ``save_image``/``open_image`` of a 1M-row static RRR
  trie (the one on-disk format), and the bytes of the file;
* ``tiered`` -- ``TieredWaveletTrie`` against ``DynamicWaveletTrie`` at 1M
  rows: bulk load, major compaction, the cost of one 64-wide batch call per
  query type, and the write-latency bound (the slowest single append of a
  burst that crosses seals, which must stay below a stop-the-world freeze
  of one tail; both are rows);
* ``search`` -- FM-index ``count``/``locate`` over 3000 URL documents
  against a ``str.find`` scan, batched against scalar backward search, and
  ``locate`` across the ``sa_sample`` knob;
* ``serving`` -- 64 clients replaying a zipf read mix against one server
  with coalescing on and off, then against a two-worker cluster over RWT2
  shard images (export, spawn and throughput).

Times are CPU seconds of this process (``time.process_time``), best of
five runs, except the builds, which run once: on a shared
virtual machine the hypervisor steals wall time in bursts, and CPU time
does not count it.  The serving case spans processes, so its throughputs
and the cluster's spawn time are wall-clock.  Each case compares the
answers it times across its sides (backends, tiers, modes, the scan
oracle) and raises on a mismatch; the tier-1 suite holds the same checks
as plain tests.

    PYTHONPATH=src python benchmarks/run.py          # full sizes, writes BENCH.json
    PYTHONPATH=src python benchmarks/run.py --quick  # small sizes, prints the rows

The quick run is tier-1's smoke test (``tests/integration/test_bench_runner.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.bits import kernel
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, freeze_trie
from repro.db.column import CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    IndexServer,
    NDJSONClient,
    ServerConfig,
)
from repro.storage import open_image, save_image
from repro.storage.shards import export_shard_images
from repro.wavelet.wavelet_tree import WaveletTree
from repro.workloads import ColumnGenerator, UrlLogGenerator

REPEATS = 5


class Case:
    """One case's rows and timer.

    Each row is stamped with the kernel backend active when it is added.
    Quick runs time everything once: their figures only prove the case runs.
    """

    def __init__(self, name: str, quick: bool) -> None:
        self.name = name
        self.repeats = 1 if quick else REPEATS
        self.rows: List[Dict[str, object]] = []

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        if isinstance(value, float):
            value = float(f"{value:.4g}")
        self.rows.append(
            {
                "case": self.name,
                "name": name,
                "value": value,
                "unit": unit,
                "n": n,
                "backend": kernel.active_backend(),
            }
        )

    def timed(self, fn: Callable, once: bool = False):
        """``(result, seconds)``: the last result and the fastest run."""
        best = float("inf")
        result = None
        for _ in range(1 if once else self.repeats):
            started = time.process_time()
            result = fn()
            best = min(best, time.process_time() - started)
        return result, best


def same(left, right, what: str) -> None:
    """Refuse to report a figure whose two sides disagree."""
    if left != right:
        raise RuntimeError(f"{what}: the compared sides disagree")


@contextlib.contextmanager
def backend(name: str):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


@contextlib.contextmanager
def gc_paused():
    """No collection inside latency timings: a gen-2 pass over the other
    structure's treap nodes would land on whichever op was running."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


# ----------------------------------------------------------------------
# backends: the python-vs-numpy kernel duel
# ----------------------------------------------------------------------
def case_backends(quick: bool) -> List[dict]:
    n_bits = 100_000 if quick else 1_000_000
    n_queries = 2_000 if quick else 20_000
    n_select = 400 if quick else 2_000
    wt_n = 4_000 if quick else 30_000
    rng = random.Random(20260728)
    words = kernel.as_int_list(kernel.pack_value(rng.getrandbits(n_bits), n_bits))
    bits = [rng.randint(0, 1) for _ in range(n_bits)]
    _, word_pop, _ = kernel.build_rank_directory(words)
    abs_cum, zero_cum = map(
        kernel.as_int_list, kernel.cumulative_popcounts(word_pop, n_bits)
    )
    positions = [rng.randrange(n_bits + 1) for _ in range(n_queries)]
    access_positions = [rng.randrange(n_bits) for _ in range(n_queries)]
    select_indexes = [rng.randrange(abs_cum[-1]) for _ in range(n_select)]
    symbols = [rng.randrange(64) for _ in range(wt_n)]
    probe = [rng.randrange(wt_n) for _ in range(200)]

    def directory(word_seq):
        _, pop, _ = kernel.build_rank_directory(word_seq)
        return kernel.cumulative_popcounts(pop, n_bits)

    case = Case("backends", quick)
    answers = {}
    for name in kernel.available_backends():
        with backend(name):
            if name == "numpy":
                import numpy as np

                native = {
                    "bits": np.asarray(bits, dtype=np.uint8),
                    "words": np.asarray(words, dtype=np.uint64),
                    "positions": np.asarray(positions, dtype=np.int64),
                    "access": np.asarray(access_positions, dtype=np.int64),
                    "select": np.asarray(select_indexes, dtype=np.int64),
                }
            else:
                native = {
                    "bits": bits,
                    "words": words,
                    "positions": positions,
                    "access": access_positions,
                    "select": select_indexes,
                }

            handle = kernel.prepare_rank_select(
                native["words"], n_bits, abs_cum, zero_cum
            )
            _, seconds = case.timed(lambda: kernel.pack_bits(native["bits"]))
            case.add("pack_bits", n_bits / seconds, "bits/s", n_bits)
            _, seconds = case.timed(lambda: directory(native["words"]))
            case.add("directory_build", len(words) / seconds, "words/s", len(words))
            ranks, seconds = case.timed(
                lambda: kernel.rank_many_packed(handle, 1, native["positions"])
            )
            case.add("rank_many", n_queries / seconds, "queries/s", n_queries)
            bits_at, seconds = case.timed(
                lambda: kernel.access_many_packed(handle, native["access"])
            )
            case.add("access_many", n_queries / seconds, "queries/s", n_queries)
            selected, seconds = case.timed(
                lambda: kernel.select_many_packed(handle, 1, native["select"])
            )
            case.add("select_many", n_select / seconds, "queries/s", n_select)
            tree, seconds = case.timed(
                lambda: WaveletTree(symbols, alphabet_size=64, bitvector="plain")
            )
            case.add("wavelet_build", wt_n / seconds, "symbols/s", wt_n)
            if name == "numpy":
                # The list boundary: the same calls fed plain python lists.
                _, seconds = case.timed(lambda: directory(words))
                case.add(
                    "directory_build_lists", len(words) / seconds, "words/s", len(words)
                )
                _, seconds = case.timed(
                    lambda: kernel.select_many_packed(handle, 1, select_indexes)
                )
                case.add("select_many_lists", n_select / seconds, "queries/s", n_select)
            answers[name] = [
                kernel.as_int_list(part)
                for part in (ranks, bits_at, selected, tree.access_many(probe))
            ]
    for name, result in answers.items():
        same(result, answers["python"], f"backends: {name} against python")
    return case.rows


# ----------------------------------------------------------------------
# storage: the image format
# ----------------------------------------------------------------------
VOCAB = [f"/d{i // 4}/p{i % 4}" for i in range(16)]


def case_storage(quick: bool) -> List[dict]:
    n = 5_000 if quick else 1_000_000
    rng = random.Random(1234)
    values = [VOCAB[rng.randrange(len(VOCAB))] for _ in range(n)]
    trie = WaveletTrie(values)
    probe = [rng.randrange(n) for _ in range(200)]
    expected = trie.access_many(probe)

    case = Case("storage", quick)
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as workdir:
        path = Path(workdir) / "trie.rwt2"
        _, seconds = case.timed(lambda: save_image(trie, path))
        case.add("rwt2_save", seconds, "s", n)
        opened, seconds = case.timed(lambda: open_image(path))
        case.add("rwt2_open", seconds, "s", n)
        case.add("rwt2_bytes", path.stat().st_size, "bytes", n)
        same(opened.access_many(probe), expected, "storage: image open")
    return case.rows


# ----------------------------------------------------------------------
# tiered: the LSM composition against the dynamic trie
# ----------------------------------------------------------------------
BATCH = 64


def case_tiered(quick: bool) -> List[dict]:
    n = 5_000 if quick else 1_000_000
    capacity = 1_024 if quick else 65_536
    generator = ColumnGenerator(cardinality=64, zipf_exponent=1.1, seed=7)
    values = generator.generate(n)
    population = generator.distinct_values()

    case = Case("tiered", quick)
    tiered, seconds = case.timed(
        lambda: TieredWaveletTrie(values, active_capacity=capacity, compact_budget=32),
        once=True,
    )
    case.add("bulk_load_tiered", seconds, "s", n)
    _, seconds = case.timed(lambda: tiered.compact(merge=True), once=True)
    case.add("major_compaction", seconds, "s", n)
    dynamic, seconds = case.timed(lambda: DynamicWaveletTrie(values), once=True)
    case.add("bulk_load_dynamic", seconds, "s", n)

    # One 64-wide batch call per query type, timed as the mean of 100 calls.
    rng = random.Random(3)
    positions = [rng.randrange(n) for _ in range(BATCH)]
    probe = population[0]
    indexes = [rng.randrange(dynamic.count(probe)) for _ in range(BATCH)]
    calls = {
        "rank_many": lambda index: index.rank_many(probe, positions),
        "rank_prefix_many": lambda index: index.rank_prefix_many("emea/", positions),
        "access_many": lambda index: index.access_many(positions),
        "select_many": lambda index: index.select_many(probe, indexes),
    }
    for name, call in calls.items():
        same(call(tiered), call(dynamic), f"tiered: {name}")
        seconds = {}
        for label, index in (("tiered", tiered), ("dynamic", dynamic)):
            _, total = case.timed(lambda: [call(index) for _ in range(100)])
            seconds[label] = total / 100
            case.add(f"{name}_{label}", seconds[label] * 1e6, "us", n)
        case.add(f"{name}_speedup", seconds["dynamic"] / seconds["tiered"], "x", n)

    # The write-latency bound: a burst crossing two seals never stalls one
    # append for anything near a stop-the-world freeze of a full tail.
    burst = [rng.choice(population) for _ in range(5 * capacity // 2)]
    slowest = 0.0
    with gc_paused():
        for value in burst:
            started = time.process_time()
            tiered.append(value)
            slowest = max(slowest, time.process_time() - started)
    tail = DynamicWaveletTrie(burst[:capacity])
    _, freeze_s = case.timed(lambda: freeze_trie(tail), once=True)
    if not quick and slowest >= freeze_s:
        # At quick sizes the freeze is a few ms, within scheduler noise.
        raise RuntimeError(
            f"tiered: one append took {slowest:.4f}s, a stop-the-world "
            f"freeze {freeze_s:.4f}s"
        )
    case.add("max_append", slowest, "s", len(burst))
    case.add("stop_the_world_freeze", freeze_s, "s", capacity)
    check = list(range(0, len(tiered), max(1, len(tiered) // 512)))
    everything = values + burst
    same(tiered.access_many(check), [everything[i] for i in check], "tiered: burst")
    return case.rows


# ----------------------------------------------------------------------
# search: the FM-index against a str.find scan
# ----------------------------------------------------------------------
COMMON_PATTERNS = ["http://www.", "shop", "api", ".com/", "search", "static", "edit3"]
ABSENT_PATTERNS = ["zebra-crossing", "\x01\x02", "httpz://"]


def scan_count(documents: List[str], pattern: str) -> int:
    total = 0
    for document in documents:
        found = document.find(pattern)
        while found >= 0:
            total += 1
            found = document.find(pattern, found + 1)
    return total


def scan_locate(documents: List[str], pattern: str):
    matches = []
    for doc, document in enumerate(documents):
        found = document.find(pattern)
        while found >= 0:
            matches.append((doc, found))
            found = document.find(pattern, found + 1)
    return matches


def case_search(quick: bool) -> List[dict]:
    documents = UrlLogGenerator(domains=40, depth=4, branching=6, seed=7).generate(
        120 if quick else 3_000
    )
    n = len(documents)
    patterns = COMMON_PATTERNS + ABSENT_PATTERNS + [documents[0]]
    store = DocumentStore(documents, sa_sample=32)

    case = Case("search", quick)
    counts, seconds = case.timed(lambda: store.count_many(patterns))
    case.add("count_fm", seconds * 1e3, "ms", n)
    scanned, seconds = case.timed(
        lambda: [scan_count(documents, pattern) for pattern in patterns]
    )
    case.add("count_scan", seconds * 1e3, "ms", n)
    same(counts, scanned, "search: count")
    located = [pattern for pattern in COMMON_PATTERNS if len(pattern) >= 4]
    found, seconds = case.timed(lambda: [store.locate(pattern) for pattern in located])
    case.add("locate_fm", seconds * 1e3, "ms", n)
    scanned, seconds = case.timed(
        lambda: [scan_locate(documents, pattern) for pattern in located]
    )
    case.add("locate_scan", seconds * 1e3, "ms", n)
    same(found, scanned, "search: locate")

    # Batched against scalar backward search: 8-character substrings of the
    # corpus, the dictionary-lookup batch count_many groups per character.
    rng = random.Random(13)
    joined = "\x00".join(documents)
    sampled = []
    for _ in range(128 if quick else 1_024):
        start = rng.randrange(len(joined) - 8)
        sampled.append(joined[start : start + 8].replace("\x00", "/"))
    fm = store.fm_index
    intervals, scalar_s = case.timed(
        lambda: [fm._interval_scalar(pattern) for pattern in sampled]
    )
    batched, batched_s = case.timed(lambda: fm.count_many(sampled))
    same([high - low for low, high in intervals], batched, "search: backward search")
    case.add("backward_scalar", scalar_s * 1e3, "ms", len(sampled))
    case.add("backward_batched", batched_s * 1e3, "ms", len(sampled))
    case.add("backward_speedup", scalar_s / batched_s, "x", len(sampled))

    # The sa_sample knob: locate time against index size.
    chars = sum(len(document) + 1 for document in documents)
    for sa_sample in (4, 32, 128):
        knob = DocumentStore(documents, sa_sample=sa_sample)
        _, seconds = case.timed(lambda: knob.locate("shop"))
        case.add(f"locate_sa_sample_{sa_sample}", seconds * 1e3, "ms", n)
        case.add(
            f"bits_per_char_sa_sample_{sa_sample}",
            knob.size_in_bits() / chars,
            "bits/char",
            n,
        )
    return case.rows


# ----------------------------------------------------------------------
# serving: coalescing on against off, and the two-worker cluster
# ----------------------------------------------------------------------
MIX = {"rank": 0.35, "select": 0.30, "rank_prefix": 0.20, "access": 0.15}
PREFIXES = ["emea/", "amer/", "apac/", "emea/pisa"]
ZIPF = 2.5  # hot keys dominate, so concurrent reads share (op, key) groups


def request_stream(count: int, n: int, population: List[str]) -> List[bytes]:
    rng = random.Random(99)
    hot = population[:8]
    hot_weights = [1.0 / (rank + 1) ** ZIPF for rank in range(len(hot))]
    prefix_weights = [1.0 / (rank + 1) ** ZIPF for rank in range(len(PREFIXES))]
    frames = []
    for i in range(count):
        kind = rng.choices(list(MIX), list(MIX.values()))[0]
        if kind == "rank":
            payload = {"value": rng.choices(hot, hot_weights)[0]}
            payload["pos"] = rng.randrange(n + 1)
        elif kind == "select":
            payload = {"value": rng.choices(hot, hot_weights)[0]}
            payload["idx"] = rng.randrange(8)
        elif kind == "rank_prefix":
            payload = {
                "prefix": rng.choices(PREFIXES, prefix_weights)[0],
                "pos": rng.randrange(n + 1),
            }
        else:
            payload = {"pos": rng.randrange(n)}
        payload.update(op=kind, id=i)
        frames.append(json.dumps(payload, sort_keys=True).encode() + b"\n")
    return frames


async def replay(server, path: str, stream: List[bytes], clients: int):
    """Start ``server``, replay ``stream`` over ``clients`` closed-loop
    connections, stop it; returns (frames in stream order, start s, replay s)."""
    started = time.perf_counter()
    await server.start()
    start_s = time.perf_counter() - started
    try:
        connections = [await NDJSONClient.connect(path) for _ in range(clients)]

        async def lane(client, frames):
            return [await client.call_raw(frame) for frame in frames]

        started = time.perf_counter()
        lanes = await asyncio.gather(
            *(lane(client, stream[i::clients]) for i, client in enumerate(connections))
        )
        elapsed = time.perf_counter() - started
        for client in connections:
            await client.close()
    finally:
        await server.stop()
    answers = [None] * len(stream)
    for i, frames in enumerate(lanes):
        answers[i::clients] = frames
    return answers, start_s, elapsed


def case_serving(quick: bool) -> List[dict]:
    n = 5_000 if quick else 1_000_000
    clients = 8 if quick else 64
    requests = 200 if quick else 9_600
    generator = ColumnGenerator(cardinality=64, zipf_exponent=1.1, seed=7)
    column = CompressedColumn("urls", generator.generate(n), tiered=True)
    column.index.compact()  # serve one merged frozen tier + an empty tail
    stream = request_stream(requests, n, generator.distinct_values())

    case = Case("serving", quick)
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as workdir:
        throughput = {True: 0.0, False: 0.0}
        mean_batch = {}
        reference = None
        for coalesce in (True, False):
            path = os.path.join(workdir, f"single-{int(coalesce)}.sock")
            for _ in range(case.repeats):
                config = ServerConfig(unix_path=path, coalesce=coalesce)
                server = IndexServer(column, config)
                answers, _, elapsed = asyncio.run(replay(server, path, stream, clients))
                reference = reference or answers
                same(answers, reference, "serving: coalescing on against off")
                if requests / elapsed > throughput[coalesce]:
                    throughput[coalesce] = requests / elapsed
                    metrics = server.metrics
                    mean_batch[coalesce] = sum(metrics.coalesced.values()) / sum(
                        metrics.batches.values()
                    )
        case.add("throughput_coalesced", throughput[True], "requests/s", n)
        case.add("throughput_serial", throughput[False], "requests/s", n)
        case.add("coalescing_speedup", throughput[True] / throughput[False], "x", n)
        case.add("mean_batch", mean_batch[True], "requests", n)

        image_dir = os.path.join(workdir, "images")
        _, seconds = case.timed(
            lambda: export_shard_images(column, image_dir, 2), once=True
        )
        case.add("cluster_export", seconds, "s", n)
        path = os.path.join(workdir, "cluster.sock")
        supervisor = ClusterSupervisor(
            ServerConfig(unix_path=path), ClusterConfig(image_dir=image_dir)
        )
        answers, spawn_s, elapsed = asyncio.run(
            replay(supervisor, path, stream, clients)
        )
        same(answers, reference, "serving: cluster against one process")
        case.add("cluster_spawn", spawn_s, "s", n)
        case.add("cluster_throughput", requests / elapsed, "requests/s", n)
    return case.rows


CASES = {
    "backends": case_backends,
    "storage": case_storage,
    "tiered": case_tiered,
    "search": case_search,
    "serving": case_serving,
}


def host() -> Dict[str, object]:
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": os.cpu_count(),
    }


def run(quick: bool = False) -> Dict[str, object]:
    """Run every case; returns the BENCH.json payload.

    The active kernel backend is restored afterwards, whatever a case set.
    """
    rows: List[dict] = []
    previous = kernel.active_backend()
    try:
        for measure in CASES.values():
            rows.extend(measure(quick))
    finally:
        kernel.use_backend(previous)
    return {"host": host(), "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes; print rows, write nothing"
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    for row in payload["rows"]:
        label = f"{row['case']}.{row['name']}"
        print(
            f"{label:<40} {row['value']:>14} {row['unit']:<11} "
            f"n={row['n']:<8} {row['backend']}"
        )
    if not args.quick:
        # One row per line, so a re-run diffs row by row.
        rows = ",\n".join(f"  {json.dumps(row)}" for row in payload["rows"])
        output = REPO_ROOT / "BENCH.json"
        output.write_text(
            f'{{\n "host": {json.dumps(payload["host"])},\n "rows": [\n{rows}\n ]\n}}\n'
        )
        print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
