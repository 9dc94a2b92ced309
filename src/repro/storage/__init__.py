"""On-disk persistence for the Wavelet Trie and the database layer.

The paper's motivating applications (column stores, access-log analytics) need
indexes that survive a process restart.  Every index is stored in one
format, the RWT2 image (:mod:`repro.storage.image`):

>>> from repro import WaveletTrie
>>> from repro.storage import dumps, loads
>>> trie = WaveletTrie(["/a/x", "/a/y", "/a/x"])
>>> restored = loads(dumps(trie))
>>> restored.rank("/a/x", 3)
2

* :func:`~repro.storage.image.dumps` / :func:`~repro.storage.image.loads`
  -- bytes in, bytes out;
* :func:`~repro.storage.image.save` / :func:`~repro.storage.image.load`
  -- atomic, durable write to / read from a file path.

An image holds the physical word arrays and rank/select directories in
8-byte-aligned sections, memory-mapped back with zero-copy views, so a
static index opens in O(header + nodes) whatever its size and worker
processes share one page cache.  A growable trie reopens as its own flavour
(thawed from its frozen snapshot).  ``load``/``loads`` verify every
section's CRC; :func:`~repro.storage.image.open_image` and
:func:`~repro.storage.image.loads_image` skip that for the serving paths.
See docs/ARCHITECTURE.md, "Storage".

:mod:`repro.storage.shards` builds on it as the serving cluster's
exchange format: :func:`~repro.storage.shards.export_shard_images` splits
a store into per-worker slice images plus a ``manifest.json``, and
:func:`~repro.storage.shards.open_worker_columns` mmaps one worker's
slices back as servable columns (only the tail worker's are appendable).
"""

from repro.storage.image import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps,
    dumps_image,
    load,
    loads,
    loads_image,
    open_image,
    save,
    save_image,
)
from repro.storage.shards import (
    MANIFEST_NAME,
    export_shard_images,
    load_manifest,
    open_worker_columns,
)

__all__ = [
    "IMAGE_MAGIC",
    "IMAGE_VERSION",
    "MANIFEST_NAME",
    "dumps",
    "dumps_image",
    "export_shard_images",
    "load",
    "load_manifest",
    "loads",
    "loads_image",
    "open_image",
    "open_worker_columns",
    "save",
    "save_image",
]
