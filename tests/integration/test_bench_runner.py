"""Smoke run of the benchmark runner, and the committed figures it backs.

``benchmarks/run.py`` at quick sizes must run every case, emit rows of one
schema and leave the active kernel backend as it found it.  The committed
``BENCH.json`` (one full ``make bench``) must hold the same rows, and its
rows back the claims the docs make from them.  No timing threshold is
asserted on the quick run: at its sizes the figures only prove that the
case runs.
"""

import importlib.util
import json
import math
from pathlib import Path

from repro.bits import kernel

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ROW_KEYS = {"case", "name", "value", "unit", "n", "backend"}


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "bench_run", REPO_ROOT / "benchmarks" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed():
    return json.loads((REPO_ROOT / "BENCH.json").read_text())


def value(payload, case, name):
    (match,) = [
        row["value"]
        for row in payload["rows"]
        if (row["case"], row["name"]) == (case, name)
    ]
    return match


def check_schema(payload):
    assert set(payload) == {"host", "rows"}
    assert set(payload["host"]) == {"python", "numpy", "cpus"}
    keys = set()
    for entry in payload["rows"]:
        assert set(entry) == ROW_KEYS, entry
        assert math.isfinite(entry["value"]) and entry["value"] > 0, entry
        assert entry["n"] > 0, entry
        keys.add((entry["case"], entry["name"], entry["backend"]))
    assert len(keys) == len(payload["rows"]), "duplicate rows"
    return keys


def test_quick_run_covers_every_case_in_one_schema():
    runner = load_runner()
    before = kernel.active_backend()
    payload = runner.run(quick=True)
    assert kernel.active_backend() == before
    quick_rows = check_schema(payload)
    assert {case for case, _, _ in quick_rows} == set(runner.CASES)
    for case, _, backend in quick_rows:
        if case != "backends":
            assert backend == before  # only the duel switches backends
    # The committed file holds the same figures (the duel's numpy rows exist
    # only where numpy imports; the others carry whichever backend ran).
    quick_names = {(case, name) for case, name, _ in quick_rows}
    full_names = {(case, name) for case, name, _ in check_schema(committed())}
    if "numpy" in kernel.available_backends():
        assert quick_names == full_names
    else:
        assert quick_names < full_names


def test_full_size_payload_backs_the_batched_claim():
    """The committed BENCH.json must show batched backward search >= 2x
    over the scalar rank-pair loop, and record both locate timings."""
    payload = committed()
    assert value(payload, "search", "backward_speedup") >= 2.0
    assert value(payload, "search", "locate_fm") > 0
    assert value(payload, "search", "locate_scan") > 0
