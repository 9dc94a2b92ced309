"""Layer tracing for the benchmark: wrappers installed from outside ``src/``.

The traced run replaces selected functions of the ``repro`` package with
timing wrappers.  Nothing under ``src/`` is edited: :func:`install` patches
each function where it is defined *and* in every loaded ``repro`` module that
imported it by name, so callers that did ``from x import f`` are timed too.

Two kinds of wrapper share one call stack per process:

* a **sync** wrapper times one call;
* an **async** wrapper times every resumption of the coroutine (the CPU its
  own frames spend between awaits) and the wall time from first step to
  completion (which includes waiting).

Each frame on the stack accumulates the time of its children, so a call's
*self* time -- its duration minus the part covered by wrapped callees -- is
known the moment it returns.  Aggregates are kept per key (``calls``,
``items``, ``total_s``, ``self_s``, ``max_s``); spans ``(id, name, start,
end, parent, request)`` are kept in memory for every key not marked hot and
written out by :meth:`Tracer.dump`.  Hot keys (scalar bitvector probes,
called millions of times) keep aggregates only.

A *window* brackets the timed phase: :meth:`Tracer.open_window` copies the
aggregates, :meth:`Tracer.dump` reports both the lifetime totals (set-up
work such as saving or exporting images) and the delta since the copy.  Child processes open and close their window on
``SIGUSR1`` / ``SIGUSR2`` sent by the benchmark (see ``boot/sitecustomize.py``).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_OF", "Tracer", "install", "tracer"]

_now = time.perf_counter
_MAX_SPANS = 60_000

#: Layer of every traced key prefix (the first dotted component).
LAYER_OF = {
    "protocol": "protocol",
    "server": "server",
    "shard": "shard",
    "coalescer": "coalescer",
    "column": "column",
    "trie": "trie",
    "tiers": "tiers",
    "bitvector": "bitvector",
    "kernel": "kernel",
    "storage": "storage",
    "partition": "partition",
    "router": "router",
    "cluster": "cluster",
    "fm": "text",
    "docstore": "text",
    "suffix_array": "text",
    "huffman": "huffman",
}


class Tracer:
    """Per-process span and aggregate store with one shared call stack."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []  # [key, child_s, span_id]
        self.agg: Dict[str, List[float]] = {}  # calls, items, total_s, self_s, max_s
        self.samples: Dict[str, List[float]] = {}
        self.maxima: Dict[str, float] = {}
        self.totals: Dict[str, float] = {}  # lifetime sums (set-up work)
        self.spans: List[Tuple] = []
        self.dropped_spans = 0
        self.hot: set = set()
        self._ids = itertools.count(1)
        self._window: Optional[Dict[str, Any]] = None
        self.started = _now()
        self.cpu_started = time.process_time()
        self.submitted: Dict[int, float] = {}  # id(request) -> submit time
        self.installed = False

    # ------------------------------------------------------------------
    def record(self, key: str, items: int, total: float, self_s: float) -> None:
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0, 0.0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += items
        rec[2] += total
        rec[3] += self_s
        if total > rec[4]:
            rec[4] = total

    def span(self, span_id, key, start, end, parent, request=None) -> None:
        if key in self.hot:
            return
        if len(self.spans) >= _MAX_SPANS:
            self.dropped_spans += 1
            return
        self.spans.append((span_id, key, start, end, parent, request))

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # ------------------------------------------------------------------
    def open_window(self) -> None:
        """Start the timed window: later dumps report deltas from here."""
        self._window = {
            "t": _now(),
            "cpu": time.process_time(),
            "agg": {key: list(rec) for key, rec in self.agg.items()},
        }
        for rec in self.agg.values():
            rec[4] = 0.0  # maxima restart with the window
        self.samples = {}
        self.maxima = {}

    def snapshot(self) -> Dict[str, Any]:
        """Lifetime aggregates plus the window's deltas (JSON-ready).

        A process whose window never opened reports an empty window.
        """
        now, cpu = _now(), time.process_time()
        delta: Dict[str, List[float]] = {}
        window = self._window
        if window is not None:
            for key, rec in self.agg.items():
                base = window["agg"].get(key, [0, 0, 0.0, 0.0, 0.0])
                diff = [rec[i] - base[i] for i in range(4)] + [rec[4]]
                if diff[0]:
                    delta[key] = diff
        return {
            "pid": os.getpid(),
            "argv": sys.argv[:3],
            "life": {key: list(rec) for key, rec in self.agg.items()},
            "life_wall_s": now - self.started,
            "life_cpu_s": cpu - self.cpu_started,
            "window": delta,
            "window_wall_s": now - window["t"] if window else 0.0,
            "window_cpu_s": cpu - window["cpu"] if window else 0.0,
            "samples": self.samples if window else {},
            "maxima": self.maxima if window else {},
            "totals": self.totals,
            "spans": len(self.spans),
            "span_names": sorted({span[1] for span in self.spans}),
            "dropped_spans": self.dropped_spans,
        }

    def dump(self, directory: str, tag: str) -> str:
        """Write the snapshot and the spans under ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        stem = os.path.join(directory, f"{tag}-{os.getpid()}")
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")
        path = stem + ".json"
        with open(path + ".tmp", "w", encoding="utf-8") as sink:
            json.dump(self.snapshot(), sink)
        os.replace(path + ".tmp", path)
        return path


tracer = Tracer()


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _sync_wrapper(fn: Callable, key: str, items, after, request) -> Callable:
    t = tracer

    def wrapper(*args, **kwargs):
        stack = t.stack
        if stack and stack[-1][0] == key:  # super() chains, same-key recursion
            return fn(*args, **kwargs)
        span_id = next(t._ids)
        parent = stack[-1][2] if stack else None
        count = items(args, kwargs) if items is not None else 0
        request_id = request(args) if request is not None else None
        frame = [key, 0.0, span_id]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            total = end - start
            if stack:
                stack[-1][1] += total
            t.record(key, count, total, total - frame[1])
            t.span(span_id, key, start, end, parent, request_id)
        if after is not None:
            after(args, result, total)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    return wrapper


class _TimedSteps:
    """Drive a coroutine step by step, timing each resumption on the stack."""

    def __init__(self, coro, key: str, span_id: int) -> None:
        self.coro = coro
        self.key = key
        self.span_id = span_id
        self.self_s = 0.0

    def __await__(self):
        t, coro, key = tracer, self.coro, self.key
        send_value: Any = None
        error: Optional[BaseException] = None
        while True:
            stack = t.stack
            frame = [key, 0.0, self.span_id]
            stack.append(frame)
            start = _now()
            done = False
            try:
                if error is None:
                    yielded = coro.send(send_value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                done, result = True, stop.value
            finally:
                step = _now() - start
                stack.pop()
                if stack:
                    stack[-1][1] += step
                self.self_s += step - frame[1]
            if done:
                return result
            try:
                send_value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded inward
                send_value, error = None, thrown


def _async_wrapper(fn: Callable, key: str, items, request) -> Callable:
    t = tracer

    async def wrapper(*args, **kwargs):
        span_id = next(t._ids)
        count = items(args, kwargs) if items is not None else 0
        request_id = request(args) if request is not None else None
        steps = _TimedSteps(fn(*args, **kwargs), key, span_id)
        start = _now()
        try:
            return await steps
        finally:
            end = _now()
            t.record(key, count, end - start, steps.self_s)
            t.span(span_id, key, start, end, None, request_id)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    return wrapper


def _wrap(fn, key, items=None, after=None, request=None, hot=False):
    if hot:
        tracer.hot.add(key)
    if inspect.iscoroutinefunction(fn):
        return _async_wrapper(fn, key, items, request)
    return _sync_wrapper(fn, key, items, after, request)


# ----------------------------------------------------------------------
# Item counters and hooks
# ----------------------------------------------------------------------
def _len_arg(position: int):
    def count(args, kwargs):
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 1
    return count


def _one(args, kwargs):
    return 1


def _request_id(args):
    request = args[1] if len(args) > 1 else None
    return getattr(request, "id", None)


def _on_submit(args):
    # IndexShard.submit(self, request): remember when the request queued.
    tracer.submitted[id(args[1])] = _now()
    return getattr(args[1], "id", None)


def _tick_items(args, kwargs):
    # run_read_tick(snapshot, requests, metrics), called before the tick
    # runs: each request's queue wait ends here; also count its groups.
    now = _now()
    requests = args[1]
    submitted = tracer.submitted
    groups = set()
    for request in requests:
        queued = submitted.pop(id(request), None)
        if queued is not None:
            tracer.sample("shard.queue_wait_s", now - queued)
        if request.op == "access":
            groups.add(("access", None))
        else:
            groups.add((request.op, request.args.get("value", request.args.get("prefix"))))
    tracer.sample("coalescer.groups", len(groups))
    return len(requests)


def _after_tiered_extend(args, result, seconds):
    tracer.peak("tiers.tier_count", args[0].tier_count)


def _after_compact_step(args, result, seconds):
    rec = tracer.agg.get("tiers.compact_step")
    if rec is not None and isinstance(result, int):
        rec[1] += result


def _after_save_image(args, result, seconds):
    if isinstance(result, int):
        tracer.add("storage.bytes_written", result)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
_MODULES = (
    "repro.bits.kernel",
    "repro.bitvector.plain",
    "repro.bitvector.rrr",
    "repro.bitvector.dynamic",
    "repro.core.base",
    "repro.core.static",
    "repro.core.dynamic",
    "repro.core.append_only",
    "repro.core.tiers",
    "repro.db.column",
    "repro.db.partition",
    "repro.db.doc_store",
    "repro.storage",
    "repro.storage.image",
    "repro.storage.shards",
    "repro.text.fm_index",
    "repro.text.suffix_array",
    "repro.wavelet.huffman",
    "repro.serving.protocol",
    "repro.serving.coalescer",
    "repro.serving.shard",
    "repro.serving.server",
    "repro.serving.router",
    "repro.serving.cluster",
    "repro.serving.worker",
    "repro.cli",
)


def _patch_function(module_name: str, name: str, key: str, **options) -> bool:
    """Wrap ``module.name`` and every by-name import of it in ``repro``."""
    module = sys.modules.get(module_name)
    original = getattr(module, name, None)
    if original is None or hasattr(original, "__wrapped__"):
        return False
    wrapped = _wrap(original, key, **options)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, wrapped)
    return True


def _patch_method(cls, name: str, key: str, **options) -> bool:
    """Wrap ``cls.name`` (resolved through the MRO) on ``cls`` itself."""
    original = getattr(cls, name, None)
    if original is None or cls.__dict__.get(name) is not None and hasattr(
        cls.__dict__[name], "__wrapped__"
    ):
        return False
    setattr(cls, name, _wrap(original, key, **options))
    return True


def install() -> bool:
    """Install every wrapper once per process; returns False if repro is absent."""
    if tracer.installed:
        return True
    try:
        for module_name in _MODULES:
            importlib.import_module(module_name)
    except ImportError:
        return False
    tracer.installed = True
    m = sys.modules

    # bits.kernel: the packed batch primitives, wrapped on the facade.
    for op in ("rank", "select", "access"):
        position = 1 if op == "access" else 2
        _patch_function("repro.bits.kernel", f"{op}_many_packed",
                        f"kernel.{op}_many_packed", items=_len_arg(position))

    # bitvector: batch and scalar entry points per flavour.
    bitvectors = {
        "plain": m["repro.bitvector.plain"].PlainBitVector,
        "rrr": m["repro.bitvector.rrr"].RRRBitVector,
        "dynamic": m["repro.bitvector.dynamic"].DynamicBitVector,
    }
    for flavour, cls in bitvectors.items():
        for op in ("access", "rank", "select"):
            position = 1 if op == "access" else 2
            _patch_method(cls, f"{op}_many", f"bitvector.{flavour}.batch",
                          items=_len_arg(position))
            _patch_method(cls, op, f"bitvector.{flavour}.scalar", hot=True)

    # core: per-trie batch walks (every WaveletTrieBase flavour) and tiers.
    base = m["repro.core.base"].WaveletTrieBase
    trie_classes = [base] + [
        m["repro.core.static"].WaveletTrie,
        m["repro.core.dynamic"].DynamicWaveletTrie,
        m["repro.core.append_only"].AppendOnlyWaveletTrie,
    ]
    for cls in trie_classes:
        for op in ("access", "rank", "select", "rank_prefix", "select_prefix"):
            if f"{op}_many" in cls.__dict__:
                position = 1 if op == "access" else 2
                _patch_method(cls, f"{op}_many", f"trie.{op}_many",
                              items=_len_arg(position))
            if op in ("rank", "rank_prefix") and op in cls.__dict__:
                _patch_method(cls, op, f"trie.{op}", hot=True)
        if "extend" in cls.__dict__:
            _patch_method(cls, "extend", "trie.extend", items=_len_arg(1))
    tiered = m["repro.core.tiers"].TieredWaveletTrie
    for op in ("access", "rank", "select", "rank_prefix", "select_prefix"):
        position = 1 if op == "access" else 2
        _patch_method(tiered, f"{op}_many", f"tiers.{op}_many", items=_len_arg(position))
    for op in ("rank", "rank_prefix"):
        _patch_method(tiered, op, f"tiers.{op}", hot=True)
    _patch_method(tiered, "extend", "tiers.extend", items=_len_arg(1),
                  after=_after_tiered_extend)
    _patch_method(tiered, "compact_step", "tiers.compact_step",
                  after=_after_compact_step)

    # db.column: snapshot reads and writes.
    column = m["repro.db.column"]
    for op in ("access", "rank", "select", "rank_prefix", "select_prefix"):
        position = 1 if op == "access" else 2
        _patch_method(column.ColumnSnapshot, f"{op}_many", "column.snapshot_many",
                      items=_len_arg(position))
        _patch_method(column.ColumnSnapshot, op, "column.snapshot_scalar", hot=True)
    _patch_method(column.CompressedColumn, "extend", "column.extend", items=_len_arg(1))
    _patch_method(column.CompressedColumn, "snapshot", "column.snapshot", hot=True)

    # storage and db.partition.
    _patch_function("repro.storage.image", "open_image", "storage.open_image")
    _patch_function("repro.storage.image", "save_image", "storage.save_image",
                    after=_after_save_image)
    _patch_function("repro.storage", "load", "storage.load")
    _patch_function("repro.storage", "save", "storage.save")
    _patch_function("repro.storage.shards", "export_shard_images",
                    "storage.export_shard_images")
    _patch_function("repro.db.partition", "slice_column", "partition.slice_column")

    # text and wavelet.huffman.
    fm = m["repro.text.fm_index"].FMIndex
    _patch_method(fm, "count_many", "fm.count_many", items=_len_arg(1))
    _patch_method(fm, "locate", "fm.locate", items=_one)
    store = m["repro.db.doc_store"].DocumentStore
    _patch_method(store, "count_many", "docstore.count_many", items=_len_arg(1))
    _patch_method(store, "locate", "docstore.locate", items=_one)
    _patch_function("repro.text.suffix_array", "suffix_array", "suffix_array.build")
    huffman = m["repro.wavelet.huffman"].HuffmanWaveletTree
    for op in ("access", "rank", "select"):
        position = 1 if op == "access" else 2
        _patch_method(huffman, f"{op}_many", f"huffman.{op}_many", items=_len_arg(position))
        _patch_method(huffman, op, f"huffman.{op}", hot=True)

    # serving: protocol, server glue, shard, coalescer, router, cluster.
    for name in ("decode_frame",):
        _patch_function("repro.serving.protocol", name, "protocol.decode")
    for name in ("encode_result", "encode_error", "encode_frame"):
        _patch_function("repro.serving.protocol", name, "protocol.encode")
    _patch_function("repro.serving.coalescer", "run_read_tick", "coalescer.tick",
                    items=_tick_items)
    server = m["repro.serving.server"]
    _patch_method(server.FrameServer, "dispatch_line", "server.dispatch_line")
    _patch_method(server.IndexServer, "dispatch", "server.dispatch",
                  request=_request_id)
    shard = m["repro.serving.shard"].IndexShard
    _patch_method(shard, "submit", "shard.submit", request=_on_submit)
    _patch_method(shard, "_tick", "shard.tick")
    router = m["repro.serving.router"].ClusterRouter
    _patch_method(router, "answer", "router.answer", items=_len_arg(1))
    supervisor = m["repro.serving.cluster"].ClusterSupervisor
    _patch_method(supervisor, "_fetch", "router.fetch", items=_len_arg(2))
    _patch_method(supervisor, "start", "cluster.start")
    _patch_method(supervisor, "dispatch", "cluster.dispatch", request=_request_id)
    _patch_method(supervisor, "_tick", "cluster.tick")
    return True


def layer_self_times(aggregates: Dict[str, List[float]]) -> Dict[str, float]:
    """Sum per-key self time into per-layer self time."""
    layers: Dict[str, float] = {}
    for key, rec in aggregates.items():
        layer = LAYER_OF.get(key.split(".", 1)[0])
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + rec[3]
    return layers
