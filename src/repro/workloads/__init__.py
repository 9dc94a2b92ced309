"""Seeded synthetic workload generators.

The paper motivates the Wavelet Trie with URL access logs, query logs and
column-oriented databases, but ships no data.  These generators produce
deterministic synthetic stand-ins with the two properties the data
structure's behaviour actually depends on: a skewed (Zipfian) frequency
distribution over the distinct strings and a hierarchical prefix structure
(domains, paths, namespaces).  :class:`IntegerSequenceGenerator` adds the
bounded-universe integers of Section 6.

All generators accept an explicit ``seed`` and are fully reproducible.
"""

from repro.workloads.columns import ColumnGenerator
from repro.workloads.integers import IntegerSequenceGenerator
from repro.workloads.queries import QueryLogGenerator
from repro.workloads.urls import UrlLogGenerator
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "ColumnGenerator",
    "IntegerSequenceGenerator",
    "QueryLogGenerator",
    "UrlLogGenerator",
    "ZipfSampler",
]
