"""The per-layer metrics of the traced run, and what each should move.

``LAYERS`` is the benchmark's layer map: for every layer of the program, the
module it names, the metrics the traced run derives for it, and the
end-to-end metric and workload each is expected to move.  ``derive`` turns
the merged traces of one traced run into those metrics.

The end-to-end metrics are the same seven on every workload; what they count
there is in ``BENCHMARK.json`` (each workload's ``why``) and in README.md.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Optional

import tracer

__all__ = ["LAYERS", "PER_LAYER", "derive", "merge"]

_ZERO = [0, 0, 0.0, 0.0, 0.0]  # calls, items, total_s, self_s, max_s


class Trace:
    """Traces of every process of one traced run, merged."""

    def __init__(self) -> None:
        self.window: Dict[str, List[float]] = {}
        self.life: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.maxima: Dict[str, float] = {}
        self.totals: Dict[str, float] = {}
        self.serving_wall_s = 0.0
        self.serving_cpu_s = 0.0
        self.serving_self_s = 0.0
        self.spans = 0
        self.span_names: set = set()
        self.extra: Dict[str, float] = {}

    def w(self, key: str) -> List[float]:
        return self.window.get(key, _ZERO)

    def l(self, key: str) -> List[float]:
        return self.life.get(key, _ZERO)


def _add(into: Dict[str, List[float]], source: Dict[str, List[float]]) -> None:
    for key, rec in source.items():
        have = into.setdefault(key, [0, 0, 0.0, 0.0, 0.0])
        for i in range(4):
            have[i] += rec[i]
        have[4] = max(have[4], rec[4])


def merge(snapshots: List[Dict[str, Any]], serving: Callable[[Dict[str, Any]], bool]) -> Trace:
    """Merge per-process snapshots; ``serving`` picks the processes whose
    window wall time the unattributed share is taken over."""
    trace = Trace()
    for snap in snapshots:
        _add(trace.window, snap["window"])
        _add(trace.life, snap["life"])
        for key, values in snap["samples"].items():
            trace.samples.setdefault(key, []).extend(values)
        for key, value in snap["maxima"].items():
            trace.maxima[key] = max(value, trace.maxima.get(key, value))
        for key, value in snap["totals"].items():
            trace.totals[key] = trace.totals.get(key, 0) + value
        trace.spans += snap["spans"]
        trace.span_names |= set(snap["span_names"])
        if serving(snap):
            trace.serving_wall_s += snap["window_wall_s"]
            trace.serving_cpu_s += snap["window_cpu_s"]
            trace.serving_self_s += sum(rec[3] for rec in snap["window"].values())
    return trace


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: Optional[List[float]], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))]


def _self(layer: str, setup: bool) -> Callable[[Trace], float]:
    """Self time of one layer: over the whole life of every process for a
    layer that works during set-up, else over the timed window."""
    def value(t: Trace) -> float:
        return sum(
            rec[3] for key, rec in (t.life if setup else t.window).items()
            if tracer.LAYER_OF.get(key.split(".", 1)[0]) == layer
        )
    return value


def _trio(key: str):
    """``<key>.calls`` / ``.items`` / ``.s`` from one traced key's window."""
    return [
        (f"{key}.calls", "count", "lower", lambda t: t.w(key)[0]),
        (f"{key}.items", "count", "higher", lambda t: t.w(key)[1]),
        (f"{key}.s", "s", "lower", lambda t: t.w(key)[2]),
    ]


def _bitvector(flavour: str):
    batch, scalar = f"bitvector.{flavour}.batch", f"bitvector.{flavour}.scalar"
    return [
        (f"bitvector.{flavour}.batch_calls", "count", "lower", lambda t: t.w(batch)[0]),
        (f"bitvector.{flavour}.batch_items", "count", "higher", lambda t: t.w(batch)[1]),
        (f"bitvector.{flavour}.batch_s", "s", "lower", lambda t: t.w(batch)[2]),
        (f"bitvector.{flavour}.scalar_calls", "count", "lower", lambda t: t.w(scalar)[0]),
        (f"bitvector.{flavour}.scalar_s", "s", "lower", lambda t: t.w(scalar)[2]),
    ]


# Each layer: module, metrics (name, unit, better, value), whether it works
# during set-up (its self time then spans each process's life), the end-to-end
# metric/workload pairs it should move (and, under "holds", those a gain in
# it alone is predicted not to move), and the workloads whose traced run must
# show a span of it.
LAYERS: List[Dict[str, Any]] = [
    {
        "layer": "protocol", "module": "repro.serving.protocol",
        "metrics": [
            ("protocol.decode_s", "s", "lower", lambda t: t.w("protocol.decode")[2]),
            ("protocol.encode_s", "s", "lower", lambda t: t.w("protocol.encode")[2]),
            ("protocol.frames", "count", "higher", lambda t: t.w("protocol.decode")[0]),
        ],
        "moves": [("ops_per_cpu_s", "serve_zipf")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "server", "module": "repro.serving.server",
        "metrics": [],
        "moves": [("cpu_latency_p50_ms", "serve_zipf")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "shard", "module": "repro.serving.shard",
        "metrics": [
            ("shard.ticks", "count", "lower", lambda t: t.w("shard.tick")[0]),
            ("shard.reads_per_tick", "count", "higher",
             lambda t: _ratio(t.w("coalescer.tick")[1], t.w("coalescer.tick")[0])),
            ("shard.queue_wait_p50_ms", "ms", "lower",
             lambda t: 1e3 * _pct(t.samples.get("shard.queue_wait_s"), 0.50)),
            ("shard.queue_wait_p99_ms", "ms", "lower",
             lambda t: 1e3 * _pct(t.samples.get("shard.queue_wait_s"), 0.99)),
        ],
        "moves": [("cpu_latency_p50_ms", "serve_zipf"), ("cpu_latency_p99_ms", "ingest_mixed")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "coalescer", "module": "repro.serving.coalescer",
        "metrics": [
            ("coalescer.tick_self_s", "s", "lower", lambda t: t.w("coalescer.tick")[3]),
            ("coalescer.groups_per_tick", "count", "lower",
             lambda t: statistics.fmean(t.samples["coalescer.groups"])
             if t.samples.get("coalescer.groups") else 0.0),
            ("coalescer.requests_per_batch", "count", "higher",
             lambda t: _ratio(t.w("column.snapshot_many")[1], t.w("column.snapshot_many")[0])),
        ],
        "moves": [("ops_per_cpu_s", "serve_zipf")],
        # Uniform keys keep groups about one wide there: no change predicted.
        "holds": [("ops_per_cpu_s", "ingest_mixed")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "column", "module": "repro.db.column",
        "metrics": [
            ("column.snapshot_read_self_s", "s", "lower",
             lambda t: t.w("column.snapshot_many")[3] + t.w("column.snapshot_scalar")[3]),
            ("column.extend_s", "s", "lower", lambda t: t.w("column.extend")[2]),
            ("column.extend_calls", "count", "lower", lambda t: t.w("column.extend")[0]),
            ("column.rows_per_extend", "count", "higher",
             lambda t: _ratio(t.w("column.extend")[1], t.w("column.extend")[0])),
        ],
        "moves": [("ops_per_cpu_s", "ingest_mixed"), ("cpu_latency_p50_ms", "ingest_mixed")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "trie", "module": "repro.core (WaveletTrie flavours)",
        "metrics": [
            metric
            for op in ("access", "rank", "select", "rank_prefix")
            for metric in _trio(f"trie.{op}_many")
        ] + [
            ("core.bits_over_lb", "ratio", "lower", lambda t: t.extra.get("bits_over_lb", 0.0)),
        ],
        "moves": [("cpu_latency_p50_ms", "serve_zipf"), ("cpu_latency_p50_ms", "ingest_mixed"),
                  ("bits_per_entry", "serve_zipf")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold"],
    },
    {
        "layer": "tiers", "module": "repro.core.tiers",
        "metrics": [
            ("tiers.compact_step.calls", "count", "lower",
             lambda t: t.w("tiers.compact_step")[0]),
            ("tiers.compact_step.units", "count", "higher",
             lambda t: t.w("tiers.compact_step")[1]),
            ("tiers.compact_step.s", "s", "lower", lambda t: t.w("tiers.compact_step")[2]),
            ("tiers.extend_max_ms", "ms", "lower", lambda t: 1e3 * t.w("tiers.extend")[4]),
            ("tiers.tier_count_max", "count", "lower",
             lambda t: t.maxima.get("tiers.tier_count", 0)),
        ],
        "moves": [("cpu_latency_p99_ms", "ingest_mixed")],
        "spans_on": ["ingest_mixed"],
    },
    {
        "layer": "bitvector", "module": "repro.bitvector",
        "metrics": _bitvector("plain") + _bitvector("rrr") + _bitvector("dynamic"),
        "moves": [("ops_per_cpu_s", "serve_zipf"), ("ops_per_cpu_s", "search_urls")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold", "search_urls"],
    },
    {
        "layer": "kernel", "module": "repro.bits.kernel",
        "metrics": [
            metric
            for op in ("rank", "select", "access")
            for metric in _trio(f"kernel.{op}_many_packed")
        ],
        "moves": [("ops_per_cpu_s", "serve_zipf"), ("cpu_latency_p50_ms", "search_urls")],
        "spans_on": ["search_urls"],
    },
    {
        "layer": "storage", "module": "repro.storage",
        "metrics": [
            ("storage.open_image_ms", "ms", "lower",
             lambda t: 1e3 * _ratio(t.l("storage.open_image")[2], t.l("storage.open_image")[0])),
            ("storage.save_image_s", "s", "lower", lambda t: t.l("storage.save_image")[2]),
            ("storage.export_shard_images_s", "s", "lower",
             lambda t: t.l("storage.export_shard_images")[2]),
            ("storage.bytes_written", "bytes", "lower",
             lambda t: t.totals.get("storage.bytes_written", 0)),
        ],
        "setup": True,
        "moves": [("cold_start_cpu_ms", "serve_zipf"), ("setup_s", "cluster_cold")],
        "spans_on": ["serve_zipf", "ingest_mixed", "cluster_cold", "search_urls"],
    },
    {
        "layer": "partition", "module": "repro.db.partition",
        "metrics": [
            ("partition.slice_column_s", "s", "lower",
             lambda t: t.l("partition.slice_column")[2]),
        ],
        "setup": True,
        "moves": [("setup_s", "cluster_cold")],
        "spans_on": ["cluster_cold"],
    },
    {
        "layer": "router", "module": "repro.serving.router",
        "metrics": [
            ("router.subrequests_per_read", "count", "lower",
             lambda t: _ratio(t.w("router.fetch")[1], t.w("router.answer")[1])),
            ("router.fetch_calls", "count", "lower", lambda t: t.w("router.fetch")[0]),
            ("router.fetch_s", "s", "lower", lambda t: t.w("router.fetch")[2]),
        ],
        "moves": [("ops_per_cpu_s", "cluster_cold")],
        "spans_on": ["cluster_cold"],
    },
    {
        "layer": "cluster", "module": "repro.serving.cluster",
        "metrics": [
            ("cluster.spawn_s", "s", "lower", lambda t: t.l("cluster.start")[2]),
            ("cluster.worker_restarts", "count", "lower",
             lambda t: t.extra.get("worker_restarts", 0)),
        ],
        "moves": [("setup_s", "cluster_cold"), ("cold_start_cpu_ms", "cluster_cold")],
        "spans_on": ["cluster_cold"],
    },
    {
        "layer": "text", "module": "repro.text, repro.db.doc_store",
        "metrics": [
            ("fm.count_many_s", "s", "lower", lambda t: t.w("fm.count_many")[2]),
            ("fm.locate_s", "s", "lower", lambda t: t.w("fm.locate")[2]),
            ("suffix_array.build_s", "s", "lower", lambda t: t.l("suffix_array.build")[2]),
        ],
        "moves": [("ops_per_cpu_s", "search_urls"), ("cpu_latency_p99_ms", "search_urls"),
                  ("setup_s", "search_urls")],
        "spans_on": ["search_urls"],
    },
    {
        "layer": "huffman", "module": "repro.wavelet.huffman",
        "metrics": [
            ("huffman.rank_many.calls", "count", "lower", lambda t: t.w("huffman.rank_many")[0]),
            ("huffman.rank_many.items", "count", "higher", lambda t: t.w("huffman.rank_many")[1]),
        ],
        "moves": [("cpu_latency_p50_ms", "search_urls")],
        "spans_on": ["search_urls"],
    },
]

# Self time of every layer, and the run-level figures of the trace itself.
for _layer in LAYERS:
    _layer["metrics"].append(
        (f"{_layer['layer']}.self_s", "s", "lower",
         _self(_layer["layer"], _layer.get("setup", False)))
    )

_TRACE_METRICS = [
    ("trace.unattributed_share", "ratio", "lower",
     lambda t: max(0.0, 1.0 - _ratio(t.serving_self_s, t.serving_wall_s))),
    ("trace.serving_cpu_s", "s", "lower", lambda t: t.serving_cpu_s),
    ("trace.overhead_share", "ratio", "lower", lambda t: t.extra.get("overhead_share", 0.0)),
    ("trace.spans", "count", "higher", lambda t: t.spans),
]

PER_LAYER = [metric for layer in LAYERS for metric in layer["metrics"]] + _TRACE_METRICS


def derive(trace: Trace) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced run, with its unit."""
    return {
        name: {"value": float(value(trace)), "unit": unit}
        for name, unit, _, value in PER_LAYER
    }
