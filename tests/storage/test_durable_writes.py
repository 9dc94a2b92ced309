"""Saves are durable: fsync the file, rename it into place, fsync the directory.

``os.replace`` alone is atomic but not durable: after a power loss the
renamed file can be empty, because neither its data nor the directory
entry reached the disk.  Every writer of an index file -- ``save`` (also
named ``save_image``) and the cluster manifest of ``export_shard_images``
-- must fsync the temporary file before the rename and the directory after
it.  The test logs the real calls in order, with no timing involved.  Each
save writes a temporary sibling of its own, so overlapping saves of one
path and failed writes leave no stray or mixed file behind.
"""

import os
import stat

import pytest

from repro.db.column import CompressedColumn
from repro.core.static import WaveletTrie
from repro.storage import save, save_image
from repro.storage.image import write_durably
from repro.storage.shards import MANIFEST_NAME, export_shard_images

VALUES = [f"/a/{i % 7}" for i in range(300)]


@pytest.fixture
def calls(monkeypatch):
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        log.append(("fsync", kind))
        real_fsync(fd)

    def replace(source, target):
        log.append(("replace", os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def durable(name):
    return [("fsync", "file"), ("replace", name), ("fsync", "dir")]


def test_save_is_durable(tmp_path, calls):
    save(CompressedColumn("c", VALUES), tmp_path / "index.wt")
    assert calls == durable("index.wt")


def test_rwt2_save_image_is_durable(tmp_path, calls):
    save_image(WaveletTrie(VALUES), tmp_path / "index.rwt2")
    assert calls == durable("index.rwt2")


def test_shard_export_writes_images_then_manifest_durably(tmp_path, calls):
    column = CompressedColumn("default", VALUES, appendable=False)
    export_shard_images({"default": column}, tmp_path / "shards", 2)
    assert calls == durable("c0-w0.rwt2") + durable("c0-w1.rwt2") + durable(
        MANIFEST_NAME
    )
    leftovers = [name for name in os.listdir(tmp_path / "shards") if ".tmp" in name]
    assert not leftovers


def test_a_nested_save_of_the_same_path_publishes_the_outer_bytes(tmp_path):
    """Each save writes its own temporary sibling, so a save that starts
    inside another save of the same path cannot write into the other's
    file; the outer rename lands last and wins whole."""
    path = tmp_path / "index.bin"

    def outer(handle):
        handle.write(b"AAAAA")
        write_durably(path, lambda inner: inner.write(b"BBBBB"))
        handle.write(b"AAAAA")

    write_durably(path, outer)
    assert path.read_bytes() == b"AAAAAAAAAA"
    assert os.listdir(tmp_path) == ["index.bin"]


def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "index.bin"
    write_durably(path, lambda handle: handle.write(b"old"))

    def failing(handle):
        handle.write(b"new")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        write_durably(path, failing)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["index.bin"]


def test_a_saved_file_gets_the_permissions_of_a_plain_open(tmp_path):
    reference = tmp_path / "reference.bin"
    with open(reference, "wb") as handle:
        handle.write(b"x")
    path = tmp_path / "index.bin"
    write_durably(path, lambda handle: handle.write(b"x"))
    assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(
        os.stat(reference).st_mode
    )
