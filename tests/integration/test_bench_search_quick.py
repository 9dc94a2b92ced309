"""Quick-mode run of the full-text search benchmark harness.

Runs ``benchmarks/bench_search.py`` at small sizes inside the test suite so
the harness (and its embedded differential gates -- every count and locate
answer compared against the ``str.find`` oracle, batched and scalar
backward-search intervals compared pattern by pattern, round-robin
``document`` extraction) cannot silently break.  No speedup thresholds are
asserted here: at ~4k corpus characters the batch amortisation has barely
kicked in and CI noise would make timing asserts flaky; the committed
``BENCH_search.json`` records the full-size numbers where the >= 2x
batched-over-scalar backward-search claim is checked.
"""

import importlib.util
from pathlib import Path

BENCH_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_search.py"
)


def load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_search", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_search_quick_mode():
    bench = load_bench_module()
    # run() embeds the differential gates (FM counts/locations vs the
    # str.find oracle, scalar vs batched intervals, document extraction),
    # so completing without error is itself a correctness check.
    payload = bench.run(quick=True, repeats=1)
    assert payload["quick"] is True
    assert payload["documents"] == 120
    assert payload["text_chars"] > 0
    count = payload["count"]
    assert count["fm_ms"] > 0 and count["naive_scan_ms"] > 0
    assert count["scan_chars_per_query"] == payload["text_chars"]
    backward = payload["backward_search"]
    assert backward["patterns"] == 128
    assert backward["batched_ms"] > 0 and backward["scalar_ms"] > 0
    # The sa_sample knob trades locate time for space monotonically in size.
    knob = payload["sa_sample_knob"]
    assert [row["sa_sample"] for row in knob] == [4, 32, 128]
    sizes = [row["index_bits"] for row in knob]
    assert sizes[0] > sizes[1] > sizes[2]


def test_full_size_payload_backs_the_batched_claim():
    """The committed BENCH_search.json must show batched backward search
    >= 2x over the scalar rank-pair loop (the PR's acceptance claim), and
    record the locate ratio with enough precision to be nonzero."""
    import json

    bench_json = BENCH_PATH.parent.parent / "BENCH_search.json"
    payload = json.loads(bench_json.read_text())
    assert payload["quick"] is False
    assert payload["backward_search"]["speedup"] >= 2.0
    assert payload["locate"]["speedup"] > 0
