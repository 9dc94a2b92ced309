#!/usr/bin/env python3
"""Access-log analytics: "what was the most accessed domain during the window?"

This is the paper's flagship motivating scenario (Section 1): URLs are
appended chronologically to an append-only Wavelet Trie; a time window is a
position range; and the analytics -- per-domain counts, top URLs, distinct
hosts, majority element -- run directly on the compressed index through
RankPrefix / SelectPrefix and the Section 5 range algorithms.

Run with:  python examples/url_access_log.py
"""

from repro.analysis import compute_bounds
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.workloads import UrlLogGenerator


def main() -> None:
    generator = UrlLogGenerator(domains=40, depth=4, branching=5, seed=2024)
    entries = generator.generate(5000)

    log = AppendOnlyWaveletTrie()
    for url in entries:
        log.append(url)

    print(f"log size            : {len(log)} accesses")
    print(f"compressed index    : {log.size_in_bits() / 8 / 1024:.1f} KiB")
    raw_bytes = sum(len(url) for url in entries)
    print(f"raw log             : {raw_bytes / 1024:.1f} KiB")
    bounds = compute_bounds(entries)
    print(f"lower bound LB      : {bounds.lb_bits / 8 / 1024:.1f} KiB")
    print()

    # "Winter vacation" = the middle 40% of the log.  One access per tick,
    # so the time window is the position range [start, stop).
    start, stop = 1500, 3500
    print(f"=== window [{start}, {stop}) ===")

    per_domain = {}
    for domain in generator.domains()[:10]:
        prefix = f"http://{domain}/"
        per_domain[domain] = log.rank_prefix(prefix, stop) - log.rank_prefix(
            prefix, start
        )
    ranked = sorted(per_domain.items(), key=lambda item: -item[1])[:5]
    print("accesses per domain (top 5 by RankPrefix):")
    for domain, count in ranked:
        print(f"  {domain:<28} {count:5d}")
    print()

    print("top 5 individual URLs in the window (best-first top-k):")
    for url, count in log.top_k_in_range(start, stop, 5):
        print(f"  {count:5d}  {url}")
    print()

    busiest_domain = ranked[0][0]
    prefix = f"http://{busiest_domain}/"
    distinct = log.distinct_in_range(start, stop, prefix=prefix)
    print(f"distinct URLs under {busiest_domain}: {len(distinct)}")
    majority = log.range_majority(start, stop, prefix=prefix)
    print(f"majority URL under that domain      : {majority}")
    print()

    # SelectPrefix jumps straight to the k-th access under the domain.
    before = log.rank_prefix(prefix, start)
    print("first three accesses under that domain in the window:")
    for k in range(min(3, ranked[0][1])):
        position = log.select_prefix(prefix, before + k)
        print(f"  t={position:5d}  {log.access(position)}")


if __name__ == "__main__":
    main()
