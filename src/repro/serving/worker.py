"""The cluster worker process: serve one shard slice over a unix socket.

Run as ``python -m repro.serving.worker`` by the
:class:`~repro.serving.cluster.ClusterSupervisor`, one process per shard.
The worker is deliberately thin: it mmaps its slice images
(:func:`~repro.storage.shards.open_worker_columns` -- zero-copy, shared
page cache), wraps them in the *existing* single-process
:class:`~repro.serving.server.IndexServer` (same pump loop, same
coalescer, same protocol), and reports to the supervisor over two
channels:

* **stdout is the control pipe** -- one JSON line per event: a ``ready``
  handshake once the socket is listening (the supervisor waits for it
  before routing), and a ``stopped`` line on the way out;
* **the unix socket is the data plane** -- the supervisor holds one
  pipelined NDJSON connection per worker and writes each scatter round in
  one write; the server dispatches every frame of one socket read in the
  same loop turn, so the round's scalar subrequests share one tick and
  reach the trie as ``*_many`` batches.

Ownership rule: only the tail worker opens its columns appendable; a
``--fault-script`` (JSON, see :meth:`~repro.serving.faults.FaultInjector.
from_specs`) lets the recovery suite script deterministic mid-batch
crashes -- including hard ``os._exit`` kills -- inside this process.
SIGTERM triggers a graceful drain (queued requests answered, then exit 0).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Optional

from repro.serving.cluster import WORKER_COALESCE_WINDOW, WORKER_PIPELINE_DEPTH
from repro.serving.faults import FaultInjector
from repro.serving.server import IndexServer, ServerConfig
from repro.storage.shards import load_manifest, open_worker_columns

__all__ = ["main", "run_worker"]


def _emit(event: str, **fields) -> None:
    """One control-pipe line: compact JSON, flushed immediately."""
    payload = {"event": event, **fields}
    print(json.dumps(payload, sort_keys=True), flush=True)


async def run_worker(
    directory: str,
    worker: int,
    socket_path: str,
    *,
    compact_budget: Optional[int] = None,
    fault_script: Optional[str] = None,
) -> int:
    """Serve one worker's shard slice until SIGTERM/SIGINT (returns exit code)."""
    manifest = load_manifest(directory)
    columns = open_worker_columns(directory, manifest, worker)
    faults = None
    if fault_script:
        faults = FaultInjector.from_specs(json.loads(fault_script))

    config = ServerConfig(
        unix_path=socket_path,
        coalesce_window=WORKER_COALESCE_WINDOW,
        pipeline_depth=WORKER_PIPELINE_DEPTH,
        compact_budget=compact_budget,
    )
    server = IndexServer(columns, config, faults=faults)
    await server.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    _emit(
        "ready",
        worker=worker,
        pid=os.getpid(),
        socket=socket_path,
        columns={name: len(column) for name, column in sorted(columns.items())},
        appendable=sorted(
            name for name, column in columns.items() if column.appendable
        ),
    )
    try:
        await stop.wait()
    finally:
        await server.stop()
        _emit("stopped", worker=worker)
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry: ``python -m repro.serving.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-serving-worker",
        description="Serve one cluster shard slice over a unix socket.",
    )
    parser.add_argument("--dir", required=True, help="shard image directory")
    parser.add_argument("--worker", type=int, required=True, help="worker index")
    parser.add_argument("--socket", required=True, help="unix socket path")
    parser.add_argument("--compact-budget", type=int, default=None)
    parser.add_argument(
        "--fault-script", default=None,
        help="JSON fault spec list (FaultInjector.from_specs)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(
        run_worker(
            args.dir,
            args.worker,
            args.socket,
            compact_budget=args.compact_budget,
            fault_script=args.fault_script,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
