"""Command-line interface for building and querying compressed string indexes.

The CLI covers the end-to-end workflow of the paper's motivating scenario --
compress a log of strings once, then answer access/rank/select, prefix and
range-analytics queries against the compressed file:

.. code-block:: console

   $ wavelet-trie build access.log -o access.wt --variant append-only
   $ wavelet-trie info access.wt
   $ wavelet-trie access access.wt 0 17 42
   $ wavelet-trie rank access.wt "http://example.com/" --prefix
   $ wavelet-trie positions access.wt "http://ads." --prefix --limit 100
   $ wavelet-trie top access.wt -k 5 --prefix "http://ads."
   $ wavelet-trie distinct access.wt --start 1000 --stop 2000
   $ wavelet-trie append access.wt "http://example.com/new" --save
   $ wavelet-trie delete access.wt 17 42 1000 --save
   $ wavelet-trie tiers access.wt
   $ wavelet-trie compact access.wt --save
   $ wavelet-trie open access.wt
   $ wavelet-trie search build access.log -o access.fm --sa-sample 32
   $ wavelet-trie search count access.fm "/checkout" "/cart"
   $ wavelet-trie search locate access.fm "ads.example" --limit 20

Input files are plain text, one string per line (the empty string is a valid
value; trailing newlines are stripped).  Indexes are stored as RWT2 images
(:mod:`repro.storage`).  Every command accepts ``--json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.bounds import compute_bounds
from repro.analysis.space import wavelet_trie_space_report
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.doc_store import DocumentStore
from repro.exceptions import ReproError
from repro.storage import load, save

__all__ = ["main", "build_parser"]

_VARIANTS = {
    "static": WaveletTrie,
    "append-only": AppendOnlyWaveletTrie,
    "dynamic": DynamicWaveletTrie,
    "tiered": TieredWaveletTrie,
}


# ----------------------------------------------------------------------
# Input helpers
# ----------------------------------------------------------------------
def _read_lines(path: str) -> List[str]:
    """Read one value per line (newline stripped, other whitespace kept)."""
    if path == "-":
        return [line.rstrip("\n") for line in sys.stdin]
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]


def _emit(payload: Dict[str, Any], as_json: bool, lines: Optional[List[str]] = None) -> None:
    """Print either the JSON payload or the human-readable lines."""
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines if lines is not None else [f"{k}: {v}" for k, v in payload.items()]:
            print(line)


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_build(args: argparse.Namespace) -> int:
    values = _read_lines(args.input)
    variant_cls = _VARIANTS[args.variant]
    if args.variant == "static":
        index = variant_cls(values, bitvector=args.bitvector)
    else:
        index = variant_cls(values)
    written = save(index, args.output)
    raw_bytes = sum(len(value.encode("utf-8")) + 1 for value in values)
    payload = {
        "input": args.input,
        "output": args.output,
        "variant": args.variant,
        "elements": len(index),
        "distinct": index.distinct_count(),
        "raw_bytes": raw_bytes,
        "stored_bytes": written,
        "compression_ratio": round(written / raw_bytes, 3) if raw_bytes else None,
    }
    _emit(
        payload,
        args.json,
        [
            f"indexed {len(index):,} values ({index.distinct_count():,} distinct) "
            f"from {args.input}",
            f"wrote {written:,} bytes to {args.output} "
            f"({payload['compression_ratio']}x of the raw text)"
            if raw_bytes
            else f"wrote {written:,} bytes to {args.output}",
        ],
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    values = index.to_list() if args.bounds else None
    report = wavelet_trie_space_report(index)
    payload: Dict[str, Any] = {
        "variant": type(index).__name__,
        "elements": len(index),
        "distinct": index.distinct_count(),
        "nodes": index.node_count(),
        "average_height": round(index.average_height(), 2),
        "measured_bits": report.total_bits,
        "bits_per_element": round(report.bits_per_element(len(index)), 2),
        "space_components": report.components,
    }
    lines = [
        f"variant          : {payload['variant']}",
        f"elements         : {payload['elements']:,}",
        f"distinct values  : {payload['distinct']:,}",
        f"trie nodes       : {payload['nodes']:,}",
        f"average height h̃ : {payload['average_height']}",
        f"measured size    : {payload['measured_bits']:,} bits "
        f"({payload['bits_per_element']} bits/element)",
    ]
    if args.bounds and values is not None:
        bounds = compute_bounds(values)
        payload["bounds"] = bounds.as_dict()
        lines += [
            f"nH0(S)           : {bounds.entropy_bits:,.0f} bits",
            f"LT(Sset)         : {bounds.lt_bits:,.0f} bits",
            f"LB = LT + nH0    : {bounds.lb_bits:,.0f} bits",
            f"measured / LB    : {report.total_bits / bounds.lb_bits:.2f}x"
            if bounds.lb_bits
            else "measured / LB    : n/a",
        ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_access(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    results = [{"position": position, "value": index.access(position)} for position in args.positions]
    _emit({"results": results}, args.json, [f"{r['position']}\t{r['value']}" for r in results])
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    position = len(index) if args.pos is None else args.pos
    if args.prefix:
        count = index.rank_prefix(args.value, position)
    else:
        count = index.rank(args.value, position)
    payload = {"value": args.value, "pos": position, "prefix": args.prefix, "count": count}
    _emit(payload, args.json, [str(count)])
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    if args.prefix:
        position = index.select_prefix(args.value, args.occurrence)
    else:
        position = index.select(args.value, args.occurrence)
    payload = {
        "value": args.value,
        "occurrence": args.occurrence,
        "prefix": args.prefix,
        "position": position,
    }
    _emit(payload, args.json, [str(position)])
    return 0


def _cmd_positions(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    if args.prefix:
        total = index.count_prefix(args.value)
    else:
        total = index.count(args.value)
    stop = total if args.limit is None else min(args.limit, total)
    indexes = list(range(stop))
    if args.prefix:
        found = index.select_prefix_many(args.value, indexes)
    else:
        found = index.select_many(args.value, indexes)
    payload = {
        "value": args.value,
        "prefix": args.prefix,
        "total": total,
        "positions": found,
    }
    _emit(payload, args.json, [str(position) for position in found])
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    if not isinstance(index, (DynamicWaveletTrie, TieredWaveletTrie)):
        raise ReproError(
            "this index does not support deletion; rebuild it with "
            "--variant dynamic or --variant tiered"
        )
    removed = index.delete_many(args.positions)
    payload = {
        "deleted": [
            {"position": position, "value": value}
            for position, value in zip(args.positions, removed)
        ],
        "elements": len(index),
        "saved": bool(args.save),
    }
    if args.save:
        save(index, args.index)
    lines = [f"{entry['position']}\t{entry['value']}" for entry in payload["deleted"]]
    lines.append(
        f"deleted {len(removed)} values; the index now holds {len(index):,} elements"
        + ("" if args.save else "  (not saved; pass --save to persist)")
    )
    _emit(payload, args.json, lines)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    start = args.start
    stop = len(index) if args.stop is None else args.stop
    results = index.top_k_in_range(start, stop, args.k, args.prefix)
    payload = {
        "start": start,
        "stop": stop,
        "k": args.k,
        "prefix": args.prefix,
        "results": [{"value": value, "count": count} for value, count in results],
    }
    _emit(payload, args.json, [f"{count:8,}  {value}" for value, count in results])
    return 0


def _cmd_distinct(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    start = args.start
    stop = len(index) if args.stop is None else args.stop
    results = index.distinct_in_range(start, stop, args.prefix)
    payload = {
        "start": start,
        "stop": stop,
        "prefix": args.prefix,
        "distinct": len(results),
        "results": [{"value": value, "count": count} for value, count in results],
    }
    lines = [f"{len(results)} distinct values in [{start}, {stop})"]
    lines += [f"{count:8,}  {value}" for value, count in results]
    _emit(payload, args.json, lines)
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    if isinstance(index, WaveletTrie):
        raise ReproError(
            "this index is static; rebuild it with --variant append-only or dynamic"
        )
    for value in args.values:
        index.append(value)
    payload = {"appended": len(args.values), "elements": len(index), "saved": bool(args.save)}
    if args.save:
        save(index, args.index)
    _emit(
        payload,
        args.json,
        [
            f"appended {len(args.values)} values; the index now holds {len(index):,} elements"
            + ("" if args.save else "  (not saved; pass --save to persist)")
        ],
    )
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    tiered = _require_tiered(index)
    rows = tiered.tier_info()
    payload = {
        "elements": len(tiered),
        "tier_count": tiered.tier_count,
        "mutable_start": tiered.mutable_start,
        "total_bits": tiered.size_in_bits(),
        "tiers": rows,
    }
    lines = [
        f"{len(tiered):,} elements in {tiered.tier_count} tiers "
        f"(mutable window starts at position {tiered.mutable_start:,})"
    ]
    for position, row in enumerate(rows):
        extra = (
            f"  ({row['pending_freeze_bits']:,} bits left to freeze)"
            if "pending_freeze_bits" in row
            else ""
        )
        lines.append(
            f"tier {position}: {row['state']:<8} {row['kind']:<22} "
            f"{row['elements']:>10,} elements  {row['bits']:>12,} bits{extra}"
        )
    _emit(payload, args.json, lines)
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    index = load(args.index)
    _require_trie(index)
    tiered = _require_tiered(index)
    tiers_before = tiered.tier_count
    if args.steps is not None:
        done = tiered.compact_step(args.steps)
        action = f"advanced compaction by {done} block units"
    else:
        tiered.compact(merge=not args.no_merge)
        action = "drained all freezes" + (
            "" if args.no_merge else " and merged the frozen tiers"
        )
    payload = {
        "elements": len(tiered),
        "tiers_before": tiers_before,
        "tiers_after": tiered.tier_count,
        "action": action,
        "saved": bool(args.save),
    }
    if args.save:
        save(tiered, args.index)
    _emit(
        payload,
        args.json,
        [
            f"{action}: {tiers_before} -> {tiered.tier_count} tiers "
            f"({len(tiered):,} elements)"
            + ("" if args.save else "  (not saved; pass --save to persist)")
        ],
    )
    return 0


def _cmd_open(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    index = load(args.index)
    open_ms = (time.perf_counter() - started) * 1000.0
    payload = {
        "index": args.index,
        "type": type(index).__name__,
        "elements": len(index),
        "open_ms": round(open_ms, 3),
    }
    _emit(
        payload,
        args.json,
        [
            f"opened {args.index} in {open_ms:.3f} ms: "
            f"{type(index).__name__} with {len(index):,} elements"
        ],
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.db.column import CompressedColumn
    from repro.serving import IndexServer, ServerConfig

    index = load(args.index)
    _require_trie(index)
    column = CompressedColumn.from_index(args.shard, index)
    if args.socket is None and args.http_port is None:
        raise ReproError("pass --socket PATH and/or --http-port PORT")
    config = ServerConfig(
        unix_path=args.socket,
        http_port=args.http_port,
        coalesce=not args.no_coalesce,
        coalesce_window=args.coalesce_window,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
        compact_budget=args.compact_budget,
    )
    if args.workers is not None:
        return _serve_cluster(args, column, config)

    async def run() -> None:
        server = IndexServer({args.shard: column}, config)
        await server.start()
        lines = [
            f"serving shard {args.shard!r} ({len(column):,} rows, "
            f"coalescing {'on' if config.coalesce else 'off'})"
        ]
        if args.socket is not None:
            lines.append(f"unix socket : {args.socket}")
        if server.http_address is not None:
            host, port = server.http_address
            lines.append(f"http        : http://{host}:{port}  (/stats, /query)")
        _emit({"shard": args.shard, "rows": len(column)}, False, lines)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-unix event loops
            pass
        try:
            await stop.wait()
        except KeyboardInterrupt:
            pass
        await server.stop()

    asyncio.run(run())
    return 0


def _serve_cluster(args: argparse.Namespace, column, config) -> int:
    """The ``serve --workers N`` path: shard, fork, supervise."""
    import asyncio
    import signal
    import tempfile

    from repro.serving import ClusterConfig, ClusterSupervisor
    from repro.storage.shards import MANIFEST_NAME, export_shard_images

    if args.workers < 1:
        raise ReproError(f"--workers must be at least 1, got {args.workers}")
    if args.image_dir is not None:
        image_dir = args.image_dir
        manifest_path = os.path.join(image_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            _check_reused_images(image_dir, args, len(column))
        else:
            export_shard_images({args.shard: column}, image_dir, args.workers)
    else:
        image_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        export_shard_images({args.shard: column}, image_dir, args.workers)

    async def run() -> None:
        supervisor = ClusterSupervisor(
            config, ClusterConfig(image_dir=image_dir)
        )
        await supervisor.start()
        lines = [
            f"serving shard {args.shard!r} ({len(column):,} rows) across "
            f"{supervisor.num_workers} worker processes (tail owns writes)",
            f"shard images: {image_dir}",
        ]
        if args.socket is not None:
            lines.append(f"unix socket : {args.socket}")
        if supervisor.http_address is not None:
            host, port = supervisor.http_address
            lines.append(f"http        : http://{host}:{port}  (/stats, /query)")
        _emit(
            {
                "shard": args.shard,
                "rows": len(column),
                "workers": supervisor.num_workers,
                "image_dir": image_dir,
            },
            False,
            lines,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-unix event loops
            pass
        try:
            await stop.wait()
        except KeyboardInterrupt:
            pass
        await supervisor.stop()

    asyncio.run(run())
    return 0


def _check_reused_images(image_dir: str, args: argparse.Namespace, rows: int) -> None:
    """Refuse an ``--image-dir`` whose manifest does not match this serve.

    Compares the worker count, the column names and the total row count;
    a source of the same shape but different content is not detected.
    """
    from repro.storage.shards import load_manifest

    manifest = load_manifest(image_dir)
    workers = manifest["workers"]
    columns = manifest["columns"]
    total = manifest["partition"]["bounds"][-1]
    if (workers, columns, total) != (args.workers, [args.shard], rows):
        raise ReproError(
            f"--image-dir {image_dir} holds shard images of {total:,} rows in "
            f"column(s) {columns} across {workers} workers, but this serve has "
            f"{rows:,} rows in column {args.shard!r} across {args.workers} "
            f"workers; remove {image_dir} or pass another --image-dir"
        )


# ----------------------------------------------------------------------
# Full-text search sub-commands (FM-index document store)
# ----------------------------------------------------------------------
def _cmd_search_build(args: argparse.Namespace) -> int:
    documents = _read_lines(args.input)
    try:
        store = DocumentStore(
            documents, sa_sample=args.sa_sample, bitvector=args.bitvector
        )
    except ValueError as error:
        raise ReproError(str(error))
    written = save(store, args.output)
    raw_bytes = sum(len(doc.encode("utf-8")) + 1 for doc in documents)
    payload = {
        "input": args.input,
        "output": args.output,
        "documents": len(store),
        "text_length": store.text_length,
        "sa_sample": args.sa_sample,
        "index_bits": store.size_in_bits(),
        "raw_bytes": raw_bytes,
        "stored_bytes": written,
    }
    _emit(
        payload,
        args.json,
        [
            f"indexed {len(store):,} documents ({store.text_length:,} characters) "
            f"from {args.input}",
            f"wrote {written:,} bytes to {args.output} "
            f"(sa_sample={args.sa_sample}; raw text was {raw_bytes:,} bytes)",
        ],
    )
    return 0


def _cmd_search_count(args: argparse.Namespace) -> int:
    store = _require_doc_store(load(args.index))
    try:
        counts = store.count_many(args.patterns)
    except ValueError as error:
        raise ReproError(str(error))
    payload = {
        "results": [
            {"pattern": pattern, "count": count}
            for pattern, count in zip(args.patterns, counts)
        ]
    }
    _emit(
        payload,
        args.json,
        [f"{count}\t{pattern}" for pattern, count in zip(args.patterns, counts)],
    )
    return 0


def _cmd_search_locate(args: argparse.Namespace) -> int:
    store = _require_doc_store(load(args.index))
    try:
        matches = store.locate(args.pattern)
    except ValueError as error:
        raise ReproError(str(error))
    total = len(matches)
    if args.limit is not None:
        matches = matches[: args.limit]
    payload = {
        "pattern": args.pattern,
        "total": total,
        "matches": [
            {"document": doc, "offset": offset} for doc, offset in matches
        ],
    }
    lines = [f"{doc}\t{offset}" for doc, offset in matches]
    lines.append(
        f"{total} occurrences"
        + ("" if len(matches) == total else f" (showing the first {len(matches)})")
    )
    _emit(payload, args.json, lines)
    return 0


def _require_doc_store(index: Any) -> DocumentStore:
    if not isinstance(index, DocumentStore):
        raise ReproError(
            f"the file holds a {type(index).__name__}, not a search index; "
            "create one with `search build`"
        )
    return index


def _require_trie(index: Any) -> None:
    if not isinstance(
        index,
        (WaveletTrie, AppendOnlyWaveletTrie, DynamicWaveletTrie, TieredWaveletTrie),
    ):
        raise ReproError(
            f"the file holds a {type(index).__name__}, not a Wavelet Trie index"
        )


def _require_tiered(index: Any) -> TieredWaveletTrie:
    if not isinstance(index, TieredWaveletTrie):
        raise ReproError(
            f"the index is a {type(index).__name__}, not a tiered index; "
            "rebuild it with --variant tiered"
        )
    return index


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The :mod:`argparse` parser for the ``wavelet-trie`` command."""
    parser = argparse.ArgumentParser(
        prog="wavelet-trie",
        description="Build and query compressed indexed sequences of strings (Wavelet Trie).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")

    build = subparsers.add_parser("build", help="index a text file (one value per line)")
    build.add_argument("input", help="input text file, or - for stdin")
    build.add_argument("-o", "--output", required=True, help="output index file")
    build.add_argument(
        "--variant",
        choices=sorted(_VARIANTS),
        default="append-only",
        help="which Wavelet Trie variant to build (default: append-only)",
    )
    build.add_argument(
        "--bitvector",
        choices=["rrr", "plain"],
        default="rrr",
        help="node bitvector for the static variant (default: rrr)",
    )
    add_common(build)
    build.set_defaults(handler=_cmd_build)

    info = subparsers.add_parser("info", help="show size, entropy and space breakdown")
    info.add_argument("index", help="index file produced by `build`")
    info.add_argument(
        "--bounds",
        action="store_true",
        help="also compute the Table 1 information-theoretic bounds (decodes the sequence)",
    )
    add_common(info)
    info.set_defaults(handler=_cmd_info)

    access = subparsers.add_parser("access", help="retrieve the values at given positions")
    access.add_argument("index")
    access.add_argument("positions", nargs="+", type=int)
    add_common(access)
    access.set_defaults(handler=_cmd_access)

    rank = subparsers.add_parser("rank", help="count occurrences of a value (or prefix)")
    rank.add_argument("index")
    rank.add_argument("value")
    rank.add_argument("--pos", type=int, default=None, help="count within the first POS elements")
    rank.add_argument("--prefix", action="store_true", help="treat VALUE as a prefix")
    add_common(rank)
    rank.set_defaults(handler=_cmd_rank)

    select = subparsers.add_parser("select", help="position of the i-th occurrence")
    select.add_argument("index")
    select.add_argument("value")
    select.add_argument("occurrence", type=int)
    select.add_argument("--prefix", action="store_true", help="treat VALUE as a prefix")
    add_common(select)
    select.set_defaults(handler=_cmd_select)

    positions = subparsers.add_parser(
        "positions", help="all positions of a value (or prefix), batch-answered"
    )
    positions.add_argument("index")
    positions.add_argument("value")
    positions.add_argument("--prefix", action="store_true", help="treat VALUE as a prefix")
    positions.add_argument(
        "--limit", type=int, default=None, help="return at most LIMIT positions"
    )
    add_common(positions)
    positions.set_defaults(handler=_cmd_positions)

    delete = subparsers.add_parser(
        "delete", help="delete the values at the given positions (dynamic index)"
    )
    delete.add_argument("index")
    delete.add_argument("positions", nargs="+", type=int)
    delete.add_argument("--save", action="store_true", help="write the shrunk index back to disk")
    add_common(delete)
    delete.set_defaults(handler=_cmd_delete)

    top = subparsers.add_parser("top", help="most frequent values in a position range")
    top.add_argument("index")
    top.add_argument("-k", type=int, default=10)
    top.add_argument("--start", type=int, default=0)
    top.add_argument("--stop", type=int, default=None)
    top.add_argument("--prefix", default=None)
    add_common(top)
    top.set_defaults(handler=_cmd_top)

    distinct = subparsers.add_parser("distinct", help="distinct values in a position range")
    distinct.add_argument("index")
    distinct.add_argument("--start", type=int, default=0)
    distinct.add_argument("--stop", type=int, default=None)
    distinct.add_argument("--prefix", default=None)
    add_common(distinct)
    distinct.set_defaults(handler=_cmd_distinct)

    append = subparsers.add_parser("append", help="append values to a dynamic index")
    append.add_argument("index")
    append.add_argument("values", nargs="+")
    append.add_argument("--save", action="store_true", help="write the grown index back to disk")
    add_common(append)
    append.set_defaults(handler=_cmd_append)

    tiers_cmd = subparsers.add_parser(
        "tiers", help="show the tier layout of a tiered (LSM) index"
    )
    tiers_cmd.add_argument("index", help="index built with --variant tiered")
    add_common(tiers_cmd)
    tiers_cmd.set_defaults(handler=_cmd_tiers)

    compact = subparsers.add_parser(
        "compact", help="drain/merge the tiers of a tiered (LSM) index"
    )
    compact.add_argument("index", help="index built with --variant tiered")
    compact.add_argument(
        "--steps",
        type=int,
        default=None,
        help="advance the in-flight freeze by STEPS block units instead of a full compaction",
    )
    compact.add_argument(
        "--no-merge",
        action="store_true",
        help="freeze all tiers but keep them separate (skip the merge rebuild)",
    )
    compact.add_argument("--save", action="store_true", help="write the index back to disk")
    add_common(compact)
    compact.set_defaults(handler=_cmd_compact)

    open_cmd = subparsers.add_parser(
        "open", help="open an index and report the cold-open latency"
    )
    open_cmd.add_argument("index", help="index file produced by `build`")
    add_common(open_cmd)
    open_cmd.set_defaults(handler=_cmd_open)

    serve = subparsers.add_parser(
        "serve",
        help="serve an index over a unix socket / localhost HTTP (NDJSON protocol)",
    )
    serve.add_argument("index", help="index file produced by `build`")
    serve.add_argument("--socket", default=None, help="unix socket path (raw NDJSON)")
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="localhost HTTP port (0 for ephemeral); GET /stats, POST /query",
    )
    serve.add_argument(
        "--shard", default="default", help="shard name clients address (default: default)"
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="serve each request as its own batch (for A/B measurements)",
    )
    serve.add_argument(
        "--coalesce-window",
        type=int,
        default=4,
        help="loop turns the pump waits so concurrent requests join one batch",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="bounded queue depth before `overloaded` backpressure (default: 1024)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request queue timeout in seconds (default: none)",
    )
    serve.add_argument(
        "--compact-budget",
        type=int,
        default=None,
        help="block units of tiered compaction funded per write tick",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="serve through N sharded worker processes (multi-process cluster)",
    )
    serve.add_argument(
        "--image-dir",
        default=None,
        help="directory for the cluster's shard images / manifest "
        "(reused if its manifest matches --workers, --shard and the row "
        "count, else an error; default: a temp dir)",
    )
    add_common(serve)
    serve.set_defaults(handler=_cmd_serve)

    search = subparsers.add_parser(
        "search", help="full-text substring search over an FM-index document store"
    )
    search_sub = search.add_subparsers(dest="search_command", required=True)

    search_build = search_sub.add_parser(
        "build", help="index a text file as searchable documents (one per line)"
    )
    search_build.add_argument("input", help="input text file, or - for stdin")
    search_build.add_argument("-o", "--output", required=True, help="output index file")
    search_build.add_argument(
        "--sa-sample",
        type=int,
        default=32,
        help="suffix-array sampling rate: smaller is faster locate, larger index "
        "(default: 32)",
    )
    search_build.add_argument(
        "--bitvector",
        choices=["plain", "rrr"],
        default="plain",
        help="BWT node bitvectors: plain (fast batched ranks) or rrr "
        "(compressed nodes; default: plain)",
    )
    add_common(search_build)
    search_build.set_defaults(handler=_cmd_search_build)

    search_count = search_sub.add_parser(
        "count", help="count substring occurrences across all documents"
    )
    search_count.add_argument("index", help="index file produced by `search build`")
    search_count.add_argument("patterns", nargs="+", help="substring pattern(s)")
    add_common(search_count)
    search_count.set_defaults(handler=_cmd_search_count)

    search_locate = search_sub.add_parser(
        "locate", help="list every (document, offset) where a substring occurs"
    )
    search_locate.add_argument("index", help="index file produced by `search build`")
    search_locate.add_argument("pattern", help="substring pattern")
    search_locate.add_argument(
        "--limit", type=int, default=None, help="show at most LIMIT matches"
    )
    add_common(search_locate)
    search_locate.set_defaults(handler=_cmd_search_locate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:  # OSError: a path it cannot use
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
