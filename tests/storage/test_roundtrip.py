"""Round-trip tests: every supported structure survives dumps/loads and save/load."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db import ColumnStore, CompressedColumn
from repro.storage import dumps, load, loads, save
from repro.tries.binarize import BytesCodec, FixedWidthIntCodec
from repro.bits.bitstring import Bits

TRIE_CLASSES = [WaveletTrie, AppendOnlyWaveletTrie, DynamicWaveletTrie]


def assert_equivalent(original, restored, values):
    """The restored index answers every query like the original."""
    assert type(restored) is type(original)
    assert len(restored) == len(original)
    assert restored.to_list() == values
    for value in set(values):
        assert restored.rank(value, len(values)) == original.rank(value, len(values))
        assert restored.select(value, 0) == original.select(value, 0)
    if values:
        assert restored.distinct_count() == original.distinct_count()
        assert restored.average_height() == pytest.approx(original.average_height())


class TestTrieRoundtrip:
    @pytest.mark.parametrize("cls", TRIE_CLASSES)
    def test_url_log(self, cls, url_log):
        values = url_log[:150]
        original = cls(values)
        restored = loads(dumps(original))
        assert_equivalent(original, restored, values)

    @pytest.mark.parametrize("cls", TRIE_CLASSES)
    def test_empty(self, cls):
        restored = loads(dumps(cls([])))
        assert len(restored) == 0
        assert restored.rank("anything", 0) == 0

    @pytest.mark.parametrize("cls", TRIE_CLASSES)
    def test_single_value(self, cls):
        restored = loads(dumps(cls(["only"])))
        assert restored.to_list() == ["only"]
        assert restored.node_count() == 1

    @pytest.mark.parametrize("cls", TRIE_CLASSES)
    def test_constant_sequence(self, cls):
        values = ["same"] * 64
        restored = loads(dumps(cls(values)))
        assert restored.count("same") == 64
        assert restored.select("same", 63) == 63

    @pytest.mark.parametrize("cls", TRIE_CLASSES)
    def test_unicode_values(self, cls):
        values = ["héllo", "wörld", "héllo", "ünïcode/路径", "héllo"]
        restored = loads(dumps(cls(values)))
        assert restored.to_list() == values
        assert restored.rank("héllo", 5) == 3

    @pytest.mark.parametrize("kind", ["rrr", "plain"])
    def test_static_bitvector_kinds(self, kind, url_log):
        values = url_log[:120]
        original = WaveletTrie(values, bitvector=kind)
        restored = loads(dumps(original))
        assert restored.bitvector_kind == kind
        assert restored.to_list() == values

    def test_bytes_codec(self):
        values = [b"\x00\x01", b"\xff", b"\x00\x01", b"\x10\x20\x30"]
        original = WaveletTrie(values, codec=BytesCodec())
        restored = loads(dumps(original))
        assert restored.to_list() == values
        assert isinstance(restored.codec, BytesCodec)

    def test_int_codec(self):
        codec = FixedWidthIntCodec(16, lsb_first=True)
        values = [5, 1000, 5, 65535, 0, 5]
        original = DynamicWaveletTrie(values, codec=codec)
        restored = loads(dumps(original))
        assert restored.to_list() == values
        assert restored.codec.width == 16
        assert restored.codec.lsb_first is True
        assert restored.rank(5, 6) == 3

    def test_prefix_queries_after_restore(self, url_log):
        values = url_log[:200]
        original = WaveletTrie(values)
        restored = loads(dumps(original))
        prefixes = sorted({value.split("/")[2] for value in values if value.count("/") > 2})[:5]
        for host in prefixes:
            prefix = f"http://{host}"
            assert restored.rank_prefix(prefix, len(values)) == original.rank_prefix(
                prefix, len(values)
            )

    def test_range_analytics_after_restore(self, url_log):
        values = url_log[:200]
        restored = loads(dumps(WaveletTrie(values)))
        original = WaveletTrie(values)
        assert restored.distinct_in_range(20, 180) == original.distinct_in_range(20, 180)
        assert restored.top_k_in_range(0, 200, 5) == original.top_k_in_range(0, 200, 5)
        assert restored.range_majority(0, 10) == original.range_majority(0, 10)


class TestMutationAfterRestore:
    def test_append_only_keeps_growing(self, url_log):
        original = AppendOnlyWaveletTrie(url_log[:50])
        restored = loads(dumps(original))
        restored.append("http://brand.new/path")
        restored.append(url_log[0])
        assert len(restored) == 52
        assert restored.access(50) == "http://brand.new/path"
        assert restored.rank(url_log[0], 52) == original.rank(url_log[0], 50) + 1

    def test_dynamic_insert_delete_after_restore(self, url_log):
        original = DynamicWaveletTrie(url_log[:40])
        restored = loads(dumps(original))
        restored.insert("http://new.example/x", 7)
        assert restored.access(7) == "http://new.example/x"
        deleted = restored.delete(0)
        assert deleted == url_log[0]
        assert len(restored) == 40

    def test_dynamic_delete_last_occurrence_after_restore(self):
        values = ["aa", "ab", "aa", "cc"]
        restored = loads(dumps(DynamicWaveletTrie(values)))
        assert restored.delete(3) == "cc"
        assert restored.distinct_count() == 2
        assert restored.to_list() == ["aa", "ab", "aa"]


class TestTieredRoundtrip:
    def test_tiers_and_parameters_survive(self, url_log):
        values = url_log[:200]
        original = TieredWaveletTrie(values, active_capacity=48, compact_budget=2)
        restored = loads(dumps(original))
        assert type(restored) is TieredWaveletTrie
        assert restored.active_capacity == 48
        assert restored.compact_budget == 2
        assert restored.to_list() == values
        assert restored.mutable_start == original.mutable_start
        for value in set(values[:5]):
            assert restored.rank(value, len(values)) == original.rank(
                value, len(values)
            )

    def test_mid_seal_state_is_frozen_eagerly(self, url_log):
        """Saving with a freeze in flight persists the sealed tier's *content*
        (frozen eagerly at save time); the reopened index has no seal pending
        and the live original keeps its own in-flight freezer."""
        values = url_log[:64]
        original = TieredWaveletTrie(active_capacity=64, compact_budget=1)
        original.extend(values)
        original.append(values[0])
        assert any(r["state"] == "sealing" for r in original.tier_info())
        restored = loads(dumps(original))
        assert any(r["state"] == "sealing" for r in original.tier_info())
        assert all(r["state"] != "sealing" for r in restored.tier_info())
        assert restored.to_list() == values + [values[0]]

    def test_restored_tiered_keeps_absorbing_writes(self, url_log):
        original = TieredWaveletTrie(url_log[:30], active_capacity=8)
        restored = loads(dumps(original))
        restored.append("http://brand.new/path")
        assert restored.access(30) == "http://brand.new/path"
        assert restored.delete(30) == "http://brand.new/path"
        assert len(restored) == 30

    def test_empty_tiered(self):
        restored = loads(dumps(TieredWaveletTrie()))
        assert type(restored) is TieredWaveletTrie
        assert len(restored) == 0
        restored.append("first")
        assert restored.to_list() == ["first"]


class TestDatabaseLayerRoundtrip:
    def test_compressed_column(self, url_log):
        column = CompressedColumn("url", url_log[:80])
        restored = loads(dumps(column))
        assert restored.name == "url"
        assert restored.appendable is True
        assert list(restored.values()) == url_log[:80]
        restored.append("http://x.example/")
        assert len(restored) == 81

    def test_static_column(self, url_log):
        column = CompressedColumn("url", url_log[:80], appendable=False)
        restored = loads(dumps(column))
        assert restored.appendable is False
        with pytest.raises(Exception):
            restored.append("http://x.example/")

    def test_column_store(self, url_log):
        store = ColumnStore(["url", "status"])
        for index, url in enumerate(url_log[:60]):
            store.append_row({"url": url, "status": "200" if index % 3 else "404"})
        restored = loads(dumps(store))
        assert restored.column_names == ["url", "status"]
        assert len(restored) == 60
        assert restored.row(17) == store.row(17)
        assert restored.filter_eq("status", "404") == store.filter_eq("status", "404")
        restored.append_row({"url": "http://new/", "status": "500"})
        assert len(restored) == 61


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path, url_log):
        path = tmp_path / "index.wt"
        original = WaveletTrie(url_log[:100])
        written = save(original, path)
        assert written == path.stat().st_size
        restored = load(path)
        assert restored.to_list() == url_log[:100]

    def test_save_is_atomic(self, tmp_path, url_log):
        path = tmp_path / "index.wt"
        save(WaveletTrie(url_log[:10]), path)
        save(WaveletTrie(url_log[:20]), path)  # overwrite in place
        assert len(load(path)) == 20
        assert os.listdir(tmp_path) == ["index.wt"]  # no temporary sibling

    def test_on_disk_size_is_compressed(self, url_log):
        values = url_log[:400]
        raw_bytes = sum(len(value.encode()) + 1 for value in values)
        stored = len(dumps(WaveletTrie(values)))
        # The skewed URL log compresses to well under half its raw size.
        assert stored < raw_bytes / 2


class TestPropertyRoundtrip:
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=122),
                min_size=0,
                max_size=12,
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_static_any_string_list(self, values):
        restored = loads(dumps(WaveletTrie(values)))
        assert restored.to_list() == values

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=40),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_dynamic_int_sequences(self, values, lsb_first):
        codec = FixedWidthIntCodec(8, lsb_first=lsb_first)
        restored = loads(dumps(DynamicWaveletTrie(values, codec=codec)))
        assert restored.to_list() == values

    @given(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aa"]), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_append_only_small_alphabet(self, values):
        restored = loads(dumps(AppendOnlyWaveletTrie(values)))
        assert restored.to_list() == values
        for value in set(values):
            assert restored.count(value) == values.count(value)
