"""Column-store and document-search layer built on the Wavelet Trie.

The paper motivates the compressed indexed sequence of strings with
column-oriented databases and log processing.  This package provides the thin
application layer for the column-store case, and for full-text search over
the same logs.  A log needs no layer of its own: an
:class:`~repro.core.append_only.AppendOnlyWaveletTrie` is one, with a time
window as a position range.

* :class:`~repro.db.column.CompressedColumn` -- one column, static or
  append-only, with equality/prefix filters and per-range statistics;
* :class:`~repro.db.table.ColumnStore` -- a table of named columns with
  row-level append and multi-column filters;
* :mod:`repro.db.partition` -- position-range partitioning of columns for
  the multi-process serving cluster (balanced ranges, shard slicing);
* :class:`~repro.db.doc_store.DocumentStore` -- FM-index-backed full-text
  substring search (count/locate/extract) over a collection of documents.
"""

from repro.db.column import ColumnSnapshot, CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.db.partition import as_column_dict, partition_ranges, slice_column
from repro.db.table import ColumnStore

__all__ = [
    "ColumnSnapshot",
    "ColumnStore",
    "CompressedColumn",
    "DocumentStore",
    "as_column_dict",
    "partition_ranges",
    "slice_column",
]
