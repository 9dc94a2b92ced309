"""The cluster manifest: ``load_manifest`` checks every field its readers use.

``serve --workers N --image-dir DIR`` and ``open_worker_columns`` index the
manifest's ``workers``, ``columns``, ``partition.bounds`` and ``images``; a
manifest missing or mistyping any of them must raise
:class:`SerializationError` naming the file, not a ``KeyError`` later.
"""

import copy
import json

import pytest

from repro.db.column import CompressedColumn
from repro.exceptions import SerializationError
from repro.storage.shards import MANIFEST_NAME, export_shard_images, load_manifest

VALUES = [f"/a/{i % 5}" for i in range(40)]


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    source = {"default": CompressedColumn("default", VALUES, appendable=False)}
    return export_shard_images(source, directory, 2)


def _without(manifest, *path):
    broken = copy.deepcopy(manifest)
    node = broken
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return broken


def _with(manifest, value, *path):
    broken = copy.deepcopy(manifest)
    node = broken
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return broken


CASES = {
    "no-workers": lambda m: _without(m, "workers"),
    "workers-zero": lambda m: _with(m, 0, "workers"),
    "workers-text": lambda m: _with(m, "2", "workers"),
    "workers-bool": lambda m: _with(m, True, "workers"),
    "no-columns": lambda m: _without(m, "columns"),
    "columns-text": lambda m: _with(m, "default", "columns"),
    "columns-int": lambda m: _with(m, [7], "columns"),
    "no-partition": lambda m: _without(m, "partition"),
    "no-bounds": lambda m: _without(m, "partition", "bounds"),
    "bounds-short": lambda m: _with(m, [0, 40], "partition", "bounds"),
    "bounds-text": lambda m: _with(m, [0, "20", 40], "partition", "bounds"),
    "no-images": lambda m: _without(m, "images"),
    "images-list": lambda m: _with(m, [], "images"),
    "no-column-images": lambda m: _without(m, "images", "default"),
    "one-image-short": lambda m: _with(m, ["c0-w0.rwt2"], "images", "default"),
    "image-not-named": lambda m: _with(m, ["c0-w0.rwt2", 1], "images", "default"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_missing_or_mistyped_field_is_refused(manifest, tmp_path, case):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(CASES[case](manifest)))
    with pytest.raises(SerializationError, match=MANIFEST_NAME) as caught:
        load_manifest(tmp_path)
    assert "malformed manifest" in str(caught.value)


def test_a_whole_manifest_loads(manifest, tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    assert load_manifest(tmp_path) == manifest
