#!/usr/bin/env python3
"""Persisting a compressed index: build once, save, reload, keep appending.

The paper's motivating workloads (query logs, access logs, columns) outlive a
single process.  This example builds an append-only Wavelet Trie over a URL
access log, saves it with :mod:`repro.storage` as an RWT2 image (the one
on-disk format: the trie's frozen snapshot, one RRR vector for every node's
bits, plus its block size), reloads it and keeps appending -- showing that
the on-disk form is itself compressed and that the reloaded index is the
same append-only flavour, fully functional (queries *and* updates).

The same workflow is available from the shell:

    wavelet-trie build access.log -o access.wt
    wavelet-trie info access.wt --bounds
    wavelet-trie top access.wt -k 5

Run with:  python examples/persistence.py
"""

import os
import tempfile

from repro.core.append_only import AppendOnlyWaveletTrie
from repro.storage import load, save
from repro.workloads import UrlLogGenerator


def main() -> None:
    urls = UrlLogGenerator(domains=12, depth=3, branching=3, seed=2024).generate(5000)
    raw_bytes = sum(len(url.encode()) + 1 for url in urls)

    index = AppendOnlyWaveletTrie(urls)
    print(f"indexed {len(index):,} URLs, {index.distinct_count():,} distinct")
    print(f"in-memory payload  : {index.size_in_bits() / 8 / 1024:.1f} KiB")

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "access.wt")
        written = save(index, path)
        print(f"raw text           : {raw_bytes / 1024:.1f} KiB")
        print(f"on-disk index      : {written / 1024:.1f} KiB "
              f"({written / raw_bytes:.2f}x of the raw text)")
        print()

        restored = load(path)
        print("reloaded index answers the same queries:")
        top_url, top_count = restored.top_k_in_range(0, len(restored), 1)[0]
        print(f"  most frequent URL: {top_url}  ({top_count} accesses)")
        domain = top_url.split("/")[2]
        print(f"  accesses under http://{domain}: "
              f"{restored.count_prefix(f'http://{domain}')}")
        print()

        # The reloaded structure is still append-only dynamic: keep ingesting.
        for url in UrlLogGenerator(domains=12, depth=3, branching=3, seed=9).generate(500):
            restored.append(url)
        print(f"appended 500 more URLs after reload; length is now {len(restored):,}")
        save(restored, path)
        print(f"re-saved index     : {os.path.getsize(path) / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
