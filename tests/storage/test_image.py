"""RWT2 image tests: round trips, corruption, cross-backend parity.

Every supported type is written with :func:`dumps_image`/:func:`save_image`
and reopened under *each available kernel backend*; query results must be
identical to the in-memory original (the loaded static structures answer
queries straight off the mapped words, so equality here certifies the whole
zero-copy path; growable tries are thawed and keep taking writes).  Corruption tests flip and truncate real section bytes and
expect the per-section CRC / bounds checks to name the damage.  The
numpy-absent fallback is covered by opening a numpy-written file under the
pure-python backend -- the bytes on disk are backend-independent.
"""

import mmap
import random

import pytest

from repro.bits import kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, freeze_trie
from repro.db.column import CompressedColumn
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.storage import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps_image,
    load,
    loads,
    loads_image,
    open_image,
    save_image,
)
from repro.storage.image import SECTION_ALIGN, FrozenImage
from repro.tries.binarize import FixedWidthIntCodec


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Run the test under one kernel backend, restoring the previous one."""
    if request.param not in kernel.available_backends():
        pytest.skip("numpy not installed")
    previous = kernel.use_backend(request.param)
    yield request.param
    kernel.use_backend(previous)


def assert_trie_equal(loaded, values):
    """Differential check of the full query surface against the original."""
    assert len(loaded) == len(values)
    assert [loaded.access(i) for i in range(len(values))] == list(values)
    probes = sorted(set(values))[:8]
    for value in probes:
        assert loaded.count(value) == values.count(value)
        assert loaded.rank(value, len(values) // 2) == values[: len(values) // 2].count(value)
        if value in values:
            assert loaded.select(value, 0) == values.index(value)
    prefix = values[0][:3]
    expected = sum(1 for v in values if v.startswith(prefix))
    assert loaded.count_prefix(prefix) == expected


class TestTrieRoundTrip:
    @pytest.mark.parametrize("kind", ["rrr", "plain"])
    def test_static_trie(self, backend, url_log, kind):
        values = url_log[:150]
        loaded = loads_image(dumps_image(WaveletTrie(values, bitvector=kind)), verify=True)
        assert isinstance(loaded, WaveletTrie)
        assert loaded.bitvector_kind == kind
        assert_trie_equal(loaded, values)

    def test_static_trie_reimages_to_the_same_bytes(self, backend, url_log):
        """An opened static trie holds its image's components as they are:
        after queries have made its node handles it writes the same bytes,
        and so does the static form of a frozen tier."""
        values = url_log[:150]
        data = dumps_image(WaveletTrie(values))
        loaded = loads_image(data, verify=True)
        assert isinstance(loaded, WaveletTrie)
        assert_trie_equal(loaded, values)
        assert dumps_image(loaded) == data
        assert dumps_image(freeze_trie(AppendOnlyWaveletTrie(values))) == data

    @pytest.mark.parametrize("cls", [AppendOnlyWaveletTrie, DynamicWaveletTrie])
    def test_growable_tries_reopen_as_their_flavour(self, backend, url_log, cls):
        values = url_log[:120]
        loaded = loads_image(dumps_image(cls(values)), verify=True)
        assert type(loaded) is cls
        assert_trie_equal(loaded, values)
        loaded.append(values[3])
        assert loaded.count(values[3]) == values.count(values[3]) + 1

    def test_tiered_trie_persists_per_tier(self, backend, url_log):
        """A tiered trie images as one section group per frozen tier plus
        its live tail; the reopened instance has the same tier layout and a
        mutable tail that keeps absorbing writes."""
        values = url_log[:150]
        tiered = TieredWaveletTrie(values, active_capacity=48, compact_budget=2)
        loaded = loads_image(dumps_image(tiered), verify=True)
        assert isinstance(loaded, TieredWaveletTrie)
        assert loaded.active_capacity == tiered.active_capacity
        assert loaded.compact_budget == tiered.compact_budget
        assert_trie_equal(loaded, values)
        assert loaded.mutable_start == tiered.mutable_start
        assert all(row["state"] != "sealing" for row in loaded.tier_info())
        loaded.append("http://post-image.example/write")
        assert len(loaded) == len(values) + 1

    def test_tiered_trie_mid_seal_is_snapshotted(self, backend, url_log):
        """Imaging while a freeze is in flight captures a fully frozen
        snapshot without touching the live instance's compaction state."""
        values = url_log[:64]
        tiered = TieredWaveletTrie(active_capacity=64, compact_budget=1)
        tiered.extend(values)
        tiered.append(values[0])  # seal now in flight at 1-block pace
        assert any(r["state"] == "sealing" for r in tiered.tier_info())
        loaded = loads_image(dumps_image(tiered), verify=True)
        assert any(r["state"] == "sealing" for r in tiered.tier_info())
        assert loaded.to_list() == values + [values[0]]

    def test_empty_trie(self, backend):
        loaded = loads_image(dumps_image(WaveletTrie([])), verify=True)
        assert len(loaded) == 0
        assert loaded.count("/anything") == 0

    def test_single_value_trie(self, backend):
        loaded = loads_image(dumps_image(WaveletTrie(["/only"] * 5)), verify=True)
        assert loaded.to_list() == ["/only"] * 5

    def test_int_codec_round_trips(self, backend):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        trie = WaveletTrie(values, codec=FixedWidthIntCodec(8))
        loaded = loads_image(dumps_image(trie), verify=True)
        assert loaded.to_list() == values
        assert loaded.rank(5, len(values)) == 3

    def test_file_round_trip_and_load_dispatch(self, backend, url_log, tmp_path):
        values = url_log[:100]
        path = tmp_path / "trie.rwt2"
        written = save_image(WaveletTrie(values), path)
        assert written == path.stat().st_size
        assert path.read_bytes()[:4] == IMAGE_MAGIC
        for loaded in (open_image(path, verify=True), load(path), loads(path.read_bytes())):
            assert_trie_equal(loaded, values)

    def test_loaded_static_trie_is_immutable(self, backend, url_log):
        loaded = loads_image(dumps_image(WaveletTrie(url_log[:40])))
        from repro.exceptions import ImmutableStructureError

        with pytest.raises(ImmutableStructureError):
            loaded.append("/new")


class TestDbRoundTrip:
    def test_column(self, backend, column_values):
        column = CompressedColumn("region", column_values)
        loaded = loads_image(dumps_image(column), verify=True)
        assert loaded.name == "region"
        assert loaded.appendable and type(loaded.index) is type(column.index)
        assert len(loaded) == len(column_values)
        assert [loaded.value_at(i) for i in range(0, len(column_values), 13)] == [
            column_values[i] for i in range(0, len(column_values), 13)
        ]
        probe = column_values[0]
        assert loaded.count_eq(probe) == column_values.count(probe)
        assert list(loaded.rows_eq(probe, limit=5)) == list(column.rows_eq(probe, limit=5))

    def test_static_column_stays_static(self, backend, column_values):
        column = CompressedColumn("region", column_values, appendable=False)
        loaded = loads_image(dumps_image(column), verify=True)
        assert not loaded.appendable and type(loaded.index) is WaveletTrie
        header = FrozenImage(dumps_image(column))
        assert header.meta["appendable"] is False

    def test_column_store(self, backend, url_log):
        store = ColumnStore(["url", "verb"])
        for position, url in enumerate(url_log[:120]):
            store.append_row({"url": url, "verb": "GET" if position % 4 else "POST"})
        loaded = loads_image(dumps_image(store), verify=True)
        assert loaded.column_names == store.column_names
        assert len(loaded) == len(store)
        assert loaded.row(17) == store.row(17)
        assert loaded.filter_eq("verb", "POST") == store.filter_eq("verb", "POST")
        assert loaded.count_where({"verb": "GET"}) == store.count_where({"verb": "GET"})
        assert loaded.group_by_count("verb") == store.group_by_count("verb")

    def test_unsupported_object_raises(self, backend):
        with pytest.raises(SerializationError, match="frozen image"):
            dumps_image({"not": "supported"})


class TestCrossBackend:
    """Bytes written under one backend open identically under the other."""

    def test_numpy_written_file_opens_under_python(self, url_log, tmp_path):
        if "numpy" not in kernel.available_backends():
            pytest.skip("numpy not installed")
        values = url_log[:150]
        path = tmp_path / "cross.rwt2"
        previous = kernel.use_backend("numpy")
        try:
            save_image(WaveletTrie(values), path)
            numpy_bytes = path.read_bytes()
            kernel.use_backend("python")
            assert_trie_equal(open_image(path, verify=True), values)
            # The image bytes themselves are backend-independent.
            save_image(WaveletTrie(values), path)
            assert path.read_bytes() == numpy_bytes
        finally:
            kernel.use_backend(previous)

    def test_python_written_file_opens_under_numpy(self, url_log, tmp_path):
        if "numpy" not in kernel.available_backends():
            pytest.skip("numpy not installed")
        values = url_log[:150]
        path = tmp_path / "cross.rwt2"
        previous = kernel.use_backend("python")
        try:
            save_image(WaveletTrie(values), path)
            kernel.use_backend("numpy")
            assert_trie_equal(open_image(path, verify=True), values)
        finally:
            kernel.use_backend(previous)


@pytest.fixture(scope="module")
def image_bytes(url_log):
    return dumps_image(WaveletTrie(url_log[:100]))


class TestImageValidation:
    def test_too_short(self):
        with pytest.raises(SerializationError, match="too short"):
            loads_image(IMAGE_MAGIC + b"\x01")

    def test_bad_magic(self, image_bytes):
        with pytest.raises(SerializationError, match="magic"):
            loads_image(b"XXXX" + image_bytes[4:])

    def test_version_mismatch_names_both_versions(self, image_bytes):
        corrupted = bytearray(image_bytes)
        corrupted[4:8] = (IMAGE_VERSION + 7).to_bytes(4, "little")
        with pytest.raises(
            SerializationError,
            match=f"found {IMAGE_VERSION + 7}, expected {IMAGE_VERSION}",
        ):
            loads_image(bytes(corrupted))

    def test_header_bit_flip(self, image_bytes):
        corrupted = bytearray(image_bytes)
        corrupted[24] ^= 0x01  # inside the header JSON
        with pytest.raises(SerializationError, match="header"):
            loads_image(bytes(corrupted))

    def test_truncated_section_always_detected(self, image_bytes):
        # Cutting the last aligned word off violates the section-table
        # bounds check, which runs even with verify=False.
        with pytest.raises(SerializationError, match="truncated"):
            loads_image(image_bytes[:-SECTION_ALIGN])

    def test_flipped_section_bit_fails_named_crc(self, image_bytes):
        image = FrozenImage(image_bytes)
        # An offset-word section: the open checks only its word count.
        name = next(
            name
            for name in image.section_names()
            if name.endswith(".off") and image._sections[name][1]
        )
        offset, length, _ = image._sections[name]
        corrupted = bytearray(image_bytes)
        corrupted[offset + length // 2] ^= 0x10
        with pytest.raises(SerializationError) as excinfo:
            loads_image(bytes(corrupted), verify=True)
        assert name in str(excinfo.value)
        assert "checksum mismatch" in str(excinfo.value)
        # Without verification the content is trusted: the open either takes
        # the flip or trips over it in the node-window checks, which read
        # the shared vector's ranks at the window starts.
        try:
            loads_image(bytes(corrupted), verify=False)
        except SerializationError as error:
            assert "window" in str(error)

    def test_unknown_image_type(self, image_bytes):
        from repro.storage.image import ImageWriter

        writer = ImageWriter()
        writer.add_u64("w", [1, 2, 3])
        with pytest.raises(SerializationError, match="unknown frozen-image type"):
            loads_image(writer.tobytes("martian_index", {}))

    def test_open_image_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.rwt2"
        path.write_bytes(b"")
        with pytest.raises(SerializationError):
            open_image(path)

    def test_sections_are_word_aligned_and_read_only(self, image_bytes):
        image = FrozenImage(image_bytes)
        assert SECTION_ALIGN == 8
        for name in image.section_names():
            offset, _, _ = image._sections[name]
            assert offset % SECTION_ALIGN == 0
            assert image.section(name).readonly

    def test_mmap_pagesize_divides_page(self):
        # The format's alignment promise only holds if the mapping's start
        # (a page boundary) is itself section-aligned.
        assert SECTION_ALIGN % mmap.PAGESIZE == 0 or mmap.PAGESIZE % SECTION_ALIGN == 0


class TestLiveTiers:
    def test_a_live_tiered_trie_is_written_with_its_tail(self, url_log):
        """The writer takes a tiered trie as it is: frozen tiers, then the
        live tail, thawed on open as the same mutable window."""
        tiered = TieredWaveletTrie(url_log[:30], active_capacity=100)
        assert len(tiered._active)  # live tail content
        loaded = loads_image(dumps_image(tiered), verify=True)
        assert loaded.to_list() == tiered.to_list()
        assert loaded.mutable_start == tiered.mutable_start == 0
        loaded.insert("http://inserted.example/", 5)
        assert loaded.access(5) == "http://inserted.example/"


class TestConcurrentReaders:
    """Threads sharing one mapped image: reads are safe and exact.

    The serving layer hands one ``open_image`` result to every reader, so
    the loaded structures must tolerate concurrent queries on a *shared*
    object -- including the lazy per-backend re-preparation that runs on
    the first query after a backend switch.  The stress test computes the
    oracle serially first, then fires interleaved mixed workloads from
    many threads against the same ``FrozenImage``-backed trie and requires
    every thread to see byte-identical answers."""

    def test_threads_share_one_open_image(self, backend, url_log, tmp_path):
        import threading

        values = url_log
        path = tmp_path / "shared.rwt2"
        save_image(WaveletTrie(values), path)
        loaded = open_image(path, verify=True)

        prefix = values[0][:4]
        hot = max(set(values), key=values.count)

        def workload(seed):
            rng = random.Random(seed)
            out = []
            for _ in range(120):
                kind = rng.randrange(4)
                if kind == 0:
                    out.append(loaded.access(rng.randrange(len(values))))
                elif kind == 1:
                    out.append(loaded.rank(hot, rng.randrange(len(values) + 1)))
                elif kind == 2:
                    out.append(loaded.select(hot, rng.randrange(values.count(hot))))
                else:
                    out.append(
                        loaded.rank_prefix(prefix, rng.randrange(len(values) + 1))
                    )
            return out

        seeds = list(range(8))
        expected = {seed: workload(seed) for seed in seeds}  # serial oracle

        results = {}
        errors = []
        barrier = threading.Barrier(len(seeds))

        def run(seed):
            try:
                barrier.wait()  # maximise interleaving: all start together
                results[seed] = workload(seed)
            except Exception as error:  # pragma: no cover - failure path
                errors.append((seed, error))

        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert results == expected

    def test_threads_share_one_image_across_columns(self, backend, url_log, tmp_path):
        """Many threads, one mapped ColumnStore image: each hammers its own
        column of the shared store and the batch paths stay exact."""
        import threading

        store = ColumnStore(["urls", "mirror"])
        for url, mirror in zip(url_log[:200], url_log[200:400]):
            store.append_row({"urls": url, "mirror": mirror})
        path = tmp_path / "store.rwt2"
        save_image(store, path)
        loaded = open_image(path, verify=True)

        def batch_workload(name, rows):
            snapshot = loaded.column(name).snapshot()
            positions = list(range(0, len(rows), 7))
            got = snapshot.access_many(positions)
            assert got == [rows[p] for p in positions]
            value = rows[3]
            assert snapshot.rank_many(value, [len(rows)]) == [rows.count(value)]
            return True

        lanes = [("urls", url_log[:200]), ("mirror", url_log[200:400])] * 3
        errors = []
        barrier = threading.Barrier(len(lanes))

        def run(name, rows):
            try:
                barrier.wait()
                for _ in range(20):
                    batch_workload(name, rows)
            except Exception as error:  # pragma: no cover - failure path
                errors.append((name, error))

        threads = [threading.Thread(target=run, args=lane) for lane in lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
