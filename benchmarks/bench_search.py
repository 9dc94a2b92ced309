"""Full-text search benchmark: FM-index vs naive scan -> BENCH_search.json.

Two claims are under test on the URL access-log workload:

* **Index vs scan.**  ``DocumentStore.count``/``locate`` answer substring
  queries with work driven by the pattern length and the occurrence count
  (``|p|`` backward steps per count), while the naive baseline re-scans
  all ~100k corpus characters per query with ``str.find``.  The payload
  reports honest wall-clock for both: ``str.find`` runs at C ``memmem``
  speed, so it can still win against this pure-python index at these
  corpus sizes -- the structural gap is in the recorded per-query work
  (``scan_chars_per_query`` vs ``backward_steps_per_query``), which is
  what scales when the corpus grows.

* **Batched vs scalar backward search.**  The scalar FM-index loop issues
  two scalar wavelet-tree ranks per pattern character
  (``FMIndex._interval_scalar``); the batched path advances all patterns in
  lock-step and issues one ``rank_many`` per distinct next character per
  step (``FMIndex.count_many``).  The measured speedup of batched over
  scalar on the same pattern set is the payload's
  ``backward_search.speedup`` and must be >= 2x at full size.

Every timed query is differential: FM-index counts and locations are
compared against the ``str.find`` oracle before any timing is reported, so
the benchmark doubles as a correctness harness at sizes the unit tests do
not reach.  A final section rebuilds the index across ``sa_sample`` values
to expose the locate-time/space trade-off of the sampled suffix array.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_search.py            # full, writes BENCH_search.json
    PYTHONPATH=src python benchmarks/bench_search.py --quick    # small, no file

The quick mode also runs inside tier-1 via
``tests/integration/test_bench_search_quick.py`` and ``make
bench-search-quick``, so the harness cannot silently break.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.bits import kernel
from repro.db.doc_store import DocumentStore
from repro.workloads import UrlLogGenerator

# Pattern mix: frequent path words, a shared URL prefix, one full document,
# and absent needles (worst case for the scan, best case for the index).
_COMMON_PATTERNS = [
    "http://www.",
    "shop",
    "api",
    ".com/",
    "search",
    "static",
    "edit3",
]
_ABSENT_PATTERNS = ["zebra-crossing", "\x01\x02", "httpz://"]


def _naive_count(documents: List[str], pattern: str) -> int:
    total = 0
    for document in documents:
        start = 0
        while True:
            found = document.find(pattern, start)
            if found < 0:
                break
            total += 1
            start = found + 1
    return total


def _naive_locate(documents: List[str], pattern: str) -> List[Tuple[int, int]]:
    matches: List[Tuple[int, int]] = []
    for doc, document in enumerate(documents):
        start = 0
        while True:
            found = document.find(pattern, start)
            if found < 0:
                break
            matches.append((doc, found))
            start = found + 1
    return matches


def _best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def run(quick: bool = False, repeats: int = 3) -> Dict[str, object]:
    doc_count = 120 if quick else 3_000
    generator = UrlLogGenerator(domains=40, depth=4, branching=6, seed=7)
    documents = generator.generate(doc_count)
    text_chars = sum(len(document) + 1 for document in documents)

    patterns = list(_COMMON_PATTERNS) + _ABSENT_PATTERNS
    patterns.append(documents[0])  # pattern == an entire document

    build_started = time.perf_counter()
    store = DocumentStore(documents, sa_sample=32)
    build_s = time.perf_counter() - build_started
    fm = store.fm_index

    # ------------------------------------------------------------------
    # Differential gates: every pattern's count and locations must match
    # the str.find oracle before anything is timed.
    # ------------------------------------------------------------------
    expected_counts = [_naive_count(documents, pattern) for pattern in patterns]
    actual_counts = store.count_many(patterns)
    assert actual_counts == expected_counts, (actual_counts, expected_counts)
    for pattern in patterns:
        assert store.locate(pattern) == _naive_locate(documents, pattern), pattern
    assert sum(count > 0 for count in expected_counts) >= len(_COMMON_PATTERNS)

    # Round-robin document extraction doubles as an extract() gate.
    probe = range(0, len(documents), max(1, len(documents) // 64))
    for doc in probe:
        assert store.document(doc) == documents[doc], doc

    # ------------------------------------------------------------------
    # Index vs naive scan
    # ------------------------------------------------------------------
    count_fm_s = _best_of(repeats, lambda: store.count_many(patterns))
    count_naive_s = _best_of(
        repeats, lambda: [_naive_count(documents, pattern) for pattern in patterns]
    )
    locate_patterns = [pattern for pattern in _COMMON_PATTERNS if len(pattern) >= 4]
    locate_fm_s = _best_of(
        repeats, lambda: [store.locate(pattern) for pattern in locate_patterns]
    )
    locate_naive_s = _best_of(
        repeats,
        lambda: [_naive_locate(documents, pattern) for pattern in locate_patterns],
    )

    # ------------------------------------------------------------------
    # Batched vs scalar backward search (identical work, same answers).
    # The batch is substrings sampled from the corpus itself -- the
    # dictionary-lookup workload ("count each of these query strings") the
    # lock-step grouping was built for: at each step the live patterns
    # cluster on few distinct next characters, so one rank_many per
    # character replaces two scalar ranks per pattern.
    # ------------------------------------------------------------------
    rng = random.Random(13)
    joined = "\x00".join(documents)
    sampled = []
    for _ in range(128 if quick else 1024):
        start = rng.randrange(len(joined) - 8)
        sampled.append(joined[start : start + 8].replace("\x00", "/"))
    scalar_intervals = [fm._interval_scalar(pattern) for pattern in sampled]
    batched_counts = fm.count_many(sampled)
    assert [high - low for low, high in scalar_intervals] == batched_counts
    scalar_s = _best_of(
        repeats, lambda: [fm._interval_scalar(pattern) for pattern in sampled]
    )
    batched_s = _best_of(repeats, lambda: fm.count_many(sampled))

    # ------------------------------------------------------------------
    # The sa_sample knob: locate time vs index size
    # ------------------------------------------------------------------
    knob_rows = []
    knob_pattern = "shop"
    for sa_sample in (4, 32, 128):
        knob_store = DocumentStore(documents, sa_sample=sa_sample)
        knob_time = _best_of(repeats, lambda: knob_store.locate(knob_pattern))
        knob_rows.append(
            {
                "sa_sample": sa_sample,
                "index_bits": knob_store.size_in_bits(),
                "bits_per_char": round(knob_store.size_in_bits() / text_chars, 2),
                "locate_ms": round(knob_time * 1000.0, 3),
            }
        )

    return {
        "benchmark": "search",
        "quick": quick,
        "backend": kernel.active_backend(),
        "documents": len(documents),
        "text_chars": text_chars,
        "patterns": len(patterns),
        "build_s": round(build_s, 4),
        "index_bits": store.size_in_bits(),
        "count": {
            "fm_ms": round(count_fm_s * 1000.0, 3),
            "naive_scan_ms": round(count_naive_s * 1000.0, 3),
            "speedup": round(count_naive_s / count_fm_s, 2),
            # The structural gap: work per query, independent of wall-clock.
            "scan_chars_per_query": text_chars,
            "backward_steps_per_query": round(
                sum(len(pattern) for pattern in patterns) / len(patterns), 1
            ),
        },
        "locate": {
            "patterns": locate_patterns,
            "fm_ms": round(locate_fm_s * 1000.0, 3),
            "naive_scan_ms": round(locate_naive_s * 1000.0, 3),
            # Three significant digits: the ratio sits far below 1 (str.find
            # runs at C speed), where two decimals would record 0.0.
            "speedup": float(f"{locate_naive_s / locate_fm_s:.3g}"),
        },
        "backward_search": {
            # Same pattern set, same answers: one rank_many per distinct
            # next character per step (batched) vs two scalar ranks per
            # character per pattern (scalar).
            "patterns": len(sampled),
            "pattern_chars": 8,
            "batched_ms": round(batched_s * 1000.0, 3),
            "scalar_ms": round(scalar_s * 1000.0, 3),
            "speedup": round(scalar_s / batched_s, 2),
        },
        "sa_sample_knob": knob_rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, do not write JSON"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_search.json",
        help="where to write the JSON payload (full mode only)",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if not args.quick:
        args.output.write_text(rendered + "\n")
        print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
