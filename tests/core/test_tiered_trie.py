"""The LSM composition: ``TieredWaveletTrie`` differential and lifecycle tests.

The tiered trie is the concatenation ``frozen tiers ++ sealing ++ mutable
tail``; every query must be exact *at any point of the compaction lifecycle*,
so the differential checks here run mid-seal (with a freeze in flight),
post-seal and post-merge, against both :class:`NaiveIndexedSequence` and an
equivalently-fed :class:`DynamicWaveletTrie`.  The LSM retention rule -- only
the tail window mutates -- is pinned down with its canonical error message.
"""

import random

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import (
    InvalidOperationError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.workloads import ColumnGenerator

PREFIXES = ["http://", "http://dom", "", "zzz"]


def _assert_matches_oracle(tiered, values, rng):
    naive = NaiveIndexedSequence(values)
    size = len(values)
    assert len(tiered) == size
    assert tiered.to_list() == values
    positions = [rng.randrange(size) for _ in range(12)]
    assert tiered.access_many(positions) == [values[p] for p in positions]
    for pos in positions[:4]:
        assert tiered.access(pos) == values[pos]
    rank_positions = [rng.randint(0, size) for _ in range(8)]
    probes = [values[rng.randrange(size)] for _ in range(4)]
    for value in probes:
        assert tiered.rank_many(value, rank_positions) == [
            naive.rank(value, p) for p in rank_positions
        ]
        total = naive.rank(value, size)
        indexes = [rng.randrange(total) for _ in range(4)]
        assert tiered.select_many(value, indexes) == [
            naive.select(value, i) for i in indexes
        ]
        assert tiered.select(value, total - 1) == naive.select(value, total - 1)
        assert tiered.count(value) == total
    for prefix in PREFIXES:
        assert tiered.rank_prefix_many(prefix, rank_positions) == [
            naive.rank_prefix(prefix, p) for p in rank_positions
        ]
        matches = naive.rank_prefix(prefix, size)
        if matches:
            indexes = [rng.randrange(matches) for _ in range(4)]
            assert tiered.select_prefix_many(prefix, indexes) == [
                naive.select_prefix(prefix, i) for i in indexes
            ]
    start = rng.randrange(size)
    stop = rng.randint(start, size)
    assert list(tiered.iter_range(start, stop)) == values[start:stop]


class TestTieredDifferential:
    def test_queries_exact_across_the_lifecycle(self, url_log):
        """Small capacity so the log spans several tiers; checks run with a
        freeze in flight, after sealing completes, and after a full merge."""
        rng = random.Random(42)
        values = list(url_log)
        tiered = TieredWaveletTrie(values, active_capacity=64, compact_budget=4)
        assert tiered.tier_count > 1
        _assert_matches_oracle(tiered, values, rng)

        # Force a mid-seal state: fill exactly to capacity, advance a little.
        extra = [f"http://domain-extra.example/p/{i}" for i in range(70)]
        for value in extra:
            tiered.append(value)
        values.extend(extra)
        _assert_matches_oracle(tiered, values, rng)

        tiered.compact(merge=False)
        assert all(row["state"] != "sealing" for row in tiered.tier_info())
        _assert_matches_oracle(tiered, values, rng)

        tiered.compact(merge=True)
        assert tiered.tier_count == 2  # one merged frozen tier + empty tail
        _assert_matches_oracle(tiered, values, rng)

    def test_matches_dynamic_trie_exactly(self, column_values):
        """The tiered composition and a plain dynamic trie fed the same
        operations answer every query identically."""
        rng = random.Random(7)
        tiered = TieredWaveletTrie(active_capacity=48, compact_budget=2)
        dynamic = DynamicWaveletTrie()
        for value in column_values:
            tiered.append(value)
            dynamic.append(value)
        size = len(column_values)
        positions = [rng.randrange(size) for _ in range(20)]
        assert tiered.access_many(positions) == dynamic.access_many(positions)
        rank_positions = [rng.randint(0, size) for _ in range(10)]
        for value in set(column_values[:5]):
            assert tiered.rank_many(value, rank_positions) == dynamic.rank_many(
                value, rank_positions
            )
        assert tiered.distinct_count() == dynamic.distinct_count()
        assert sorted(tiered.distinct_values()) == sorted(dynamic.distinct_values())

    def test_matches_dynamic_trie_on_a_stream_across_seals(self):
        """After a major compaction, writes and 64-wide batch queries in one
        stream that crosses several seals answer as on a dynamic trie."""
        generator = ColumnGenerator(cardinality=64, zipf_exponent=1.1, seed=7)
        values = generator.generate(2_000)
        population = generator.distinct_values()
        tiered = TieredWaveletTrie(values, active_capacity=48, compact_budget=4)
        tiered.compact(merge=True)
        dynamic = DynamicWaveletTrie(values)
        rng = random.Random(99)
        for _ in range(300):
            kind = rng.choice(["write", "write", "rank", "prefix", "access", "select"])
            positions = [rng.randrange(len(dynamic)) for _ in range(64)]
            if kind == "write":
                value = rng.choice(population)
                tiered.append(value)
                dynamic.append(value)
            elif kind == "rank":
                value = population[rng.randrange(8)]
                assert tiered.rank_many(value, positions) == dynamic.rank_many(
                    value, positions
                )
            elif kind == "prefix":
                prefix = rng.choice(["emea/", "amer/", "apac/", "emea/pisa"])
                assert tiered.rank_prefix_many(
                    prefix, positions
                ) == dynamic.rank_prefix_many(prefix, positions)
            elif kind == "access":
                assert tiered.access_many(positions) == dynamic.access_many(positions)
            else:
                value = population[0]
                indexes = [rng.randrange(dynamic.count(value)) for _ in range(64)]
                assert tiered.select_many(value, indexes) == dynamic.select_many(
                    value, indexes
                )
        assert tiered.tier_count > 2  # the writes crossed seals
        assert tiered.to_list() == dynamic.to_list()

    def test_mid_compaction_queries_use_the_sealed_tier(self, url_log):
        """With a freeze in flight the sealed dynamic trie keeps serving:
        results stay exact while pending_freeze_bits drains step by step."""
        values = url_log[:64]
        tiered = TieredWaveletTrie(values, active_capacity=64, compact_budget=1)
        tiered.append(values[0])  # triggers the seal
        sealing = [r for r in tiered.tier_info() if r["state"] == "sealing"]
        assert len(sealing) == 1 and sealing[0]["pending_freeze_bits"] > 0
        expected = values + [values[0]]
        rng = random.Random(3)
        while any(r["state"] == "sealing" for r in tiered.tier_info()):
            _assert_matches_oracle(tiered, expected, rng)
            tiered.compact_step(8)
        _assert_matches_oracle(tiered, expected, rng)
        assert any(r["state"] == "frozen" for r in tiered.tier_info())


class TestTieredLifecycle:
    def test_seal_happens_at_capacity(self):
        tiered = TieredWaveletTrie(active_capacity=8, compact_budget=1)
        for i in range(8):
            tiered.append(f"k{i % 3}")
            assert tiered.tier_count == 1 or i == 7
        # The 8th append hit capacity: sealed, fresh tail opened.
        states = [row["state"] for row in tiered.tier_info()]
        assert "sealing" in states or "frozen" in states
        assert tiered.mutable_start == 8

    def test_writes_fund_compaction(self):
        """Each write advances the in-flight freeze by compact_budget units,
        so a steady write stream finishes the seal without explicit calls."""
        tiered = TieredWaveletTrie(active_capacity=16, compact_budget=64)
        for i in range(16):
            tiered.append(f"value/{i % 5}")
        assert any(r["state"] != "mutable" for r in tiered.tier_info())
        for i in range(12):
            tiered.append(f"value/{i % 5}")
        assert any(r["state"] == "frozen" for r in tiered.tier_info())
        assert tiered.to_list() == [f"value/{i % 5}" for i in range(16)] + [
            f"value/{i % 5}" for i in range(12)
        ]

    def test_compact_step_returns_zero_when_idle(self):
        tiered = TieredWaveletTrie(["a", "b"], active_capacity=100)
        assert tiered.compact_step() == 0
        assert [row["state"] for row in tiered.tier_info()] == ["mutable"]

    def test_extend_seals_on_capacity_boundaries(self, url_log):
        values = url_log[:300]
        tiered = TieredWaveletTrie(active_capacity=64, compact_budget=2)
        tiered.extend(values)
        assert tiered.to_list() == values
        assert tiered.tier_count > 1
        # The tail tier never holds more than a bounded overshoot.
        tail = tiered.tier_info()[-1]
        assert tail["elements"] <= 2 * tiered.active_capacity

    def test_compact_merge_collapses_to_one_frozen_tier(self, url_log):
        values = url_log[:200]
        tiered = TieredWaveletTrie(values, active_capacity=32)
        tiered.compact(merge=True)
        rows = tiered.tier_info()
        assert [row["state"] for row in rows] == ["frozen", "mutable"]
        assert rows[0]["elements"] == len(values) and rows[1]["elements"] == 0
        assert tiered.mutable_start == len(values)
        assert tiered.to_list() == values

    def test_constructor_validates_parameters(self):
        with pytest.raises(ValueError, match="active_capacity"):
            TieredWaveletTrie(active_capacity=0)
        with pytest.raises(ValueError, match="compact_budget"):
            TieredWaveletTrie(compact_budget=0)


class TestTieredMutableWindow:
    def _two_tier(self):
        tiered = TieredWaveletTrie(active_capacity=8, compact_budget=256)
        tiered.extend([f"old/{i}" for i in range(8)])
        tiered.compact_step(10_000)  # drain the seal: 8 frozen elements
        tiered.extend(["new/a", "new/b", "new/c"])
        assert tiered.mutable_start == 8
        return tiered

    def test_tail_window_mutations_work(self):
        tiered = self._two_tier()
        tiered.insert("new/x", 9)
        assert tiered.access(9) == "new/x"
        tiered.insert_many(["new/y", "new/z"], tiered.mutable_start)
        assert tiered.delete(8) == "new/y"
        assert tiered.delete_many([8, 9]) == ["new/z", "new/a"]
        assert tiered.to_list()[:8] == [f"old/{i}" for i in range(8)]

    def test_frozen_window_mutations_are_rejected(self):
        tiered = self._two_tier()
        message = r"positions below 8 live in frozen tiers"
        with pytest.raises(InvalidOperationError, match=message):
            tiered.insert("nope", 3)
        with pytest.raises(InvalidOperationError, match=message):
            tiered.delete(0)
        with pytest.raises(InvalidOperationError, match=message):
            tiered.insert_many(["nope"], 7)
        with pytest.raises(InvalidOperationError, match=message):
            tiered.delete_many([9, 2])
        # All-or-nothing: the failed batch deleted nothing.
        assert len(tiered) == 11

    def test_delete_many_validates_before_window_check(self):
        tiered = self._two_tier()
        with pytest.raises(OutOfBoundsError):
            tiered.delete_many([9, 99])
        assert len(tiered) == 11

    def test_compact_reopens_the_whole_tail(self):
        tiered = self._two_tier()
        tiered.compact()
        assert tiered.mutable_start == len(tiered)
        tiered.append("fresh")
        assert tiered.delete(len(tiered) - 1) == "fresh"

    def test_insert_out_of_range_is_bounds_not_window(self):
        tiered = self._two_tier()
        with pytest.raises(OutOfBoundsError, match="insert position"):
            tiered.insert("x", 99)


class TestTieredErrors:
    def test_canonical_error_messages(self, url_log):
        """Error types and messages are byte-identical to the family's
        canonical ones: bounds messages match the static trie, value/prefix
        lookups match the naive oracle (which reports the raw value, where
        the pointer tries report its binarised key)."""
        values = url_log[:50]
        tiered = TieredWaveletTrie(values, active_capacity=16)
        static = WaveletTrie(values)
        dynamic = DynamicWaveletTrie(values)
        naive = NaiveIndexedSequence(values)
        cases = [
            (lambda t: t.access(len(values)), OutOfBoundsError, static),
            (lambda t: t.rank(values[0], len(values) + 1), OutOfBoundsError, static),
            (lambda t: t.select(values[0], -1), OutOfBoundsError, static),
            (lambda t: t.select_prefix("zzz", 0), ValueNotFoundError, dynamic),
            (lambda t: t.select_prefix("http://", 10**6), OutOfBoundsError, naive),
            (lambda t: t.iter_range(5, 2), OutOfBoundsError, static),
        ]
        for probe, exc_type, oracle_obj in cases:
            with pytest.raises(exc_type) as ours:
                list(probe(tiered)) if exc_type is OutOfBoundsError else probe(tiered)
            with pytest.raises(exc_type) as oracle:
                result = probe(oracle_obj)
                if exc_type is OutOfBoundsError:
                    list(result)
            assert str(ours.value) == str(oracle.value)
        # Absent-value select reports the raw value (scalar and batch alike).
        expected = "value 'absent' does not occur in the sequence"
        with pytest.raises(ValueNotFoundError, match=expected):
            tiered.select("absent", 0)
        with pytest.raises(ValueNotFoundError, match=expected):
            tiered.select_many("absent", [0])

    def test_select_count_spans_tiers(self, url_log):
        """select's occurrence count and out-of-range message aggregate
        across every tier, not just the one being probed."""
        values = url_log[:60]
        tiered = TieredWaveletTrie(values, active_capacity=16)
        probe = values[0]
        total = sum(1 for value in values if value == probe)
        with pytest.raises(
            OutOfBoundsError, match=f"only {total} occurrences"
        ):
            tiered.select(probe, total)

    def test_empty_batches_never_raise(self):
        tiered = TieredWaveletTrie(["a", "b"], active_capacity=4)
        assert tiered.select_many("zzz", []) == []
        assert tiered.select_prefix_many("zzz", []) == []
        assert tiered.rank_many("zzz", []) == []
        assert tiered.rank_prefix_many("zzz", []) == []
        assert tiered.access_many([]) == []
        assert tiered.delete_many([]) == []


class TestTieredAnalytics:
    def test_range_analytics_merge_across_tiers(self, column_values):
        values = column_values[:250]
        tiered = TieredWaveletTrie(values, active_capacity=64)
        static = WaveletTrie(values)
        naive = NaiveIndexedSequence(values)
        for start, stop in [(0, len(values)), (10, 200), (63, 130), (64, 64)]:
            assert tiered.distinct_in_range(start, stop) == static.distinct_in_range(
                start, stop
            )
            assert tiered.count_distinct_in_range(start, stop) == len(
                static.distinct_in_range(start, stop)
            )
            # top_k counts match the static traversal; the tiered tie-break
            # is the documented deterministic one (binarised lex), whereas
            # the static best-first heap breaks ties by discovery order.
            expected_top = sorted(
                static.distinct_in_range(start, stop),
                key=lambda item: (-item[1], tiered._binarised_key(item[0])),
            )[:5]
            assert tiered.top_k_in_range(start, stop, 5) == expected_top
            assert [count for _, count in static.top_k_in_range(start, stop, 5)] == [
                count for _, count in expected_top
            ]
            for value in set(values[:3]):
                assert tiered.range_count(value, start, stop) == naive.range_count(
                    value, start, stop
                )
        assert tiered.top_k_in_range(0, len(values), 0) == []

    def test_introspection_spans_tiers(self, url_log):
        values = url_log[:150]
        tiered = TieredWaveletTrie(values, active_capacity=48)
        static = WaveletTrie(values)
        assert tiered.distinct_count() == static.distinct_count()
        assert tiered.distinct_values() == sorted(set(values))
        assert tiered.node_count() == sum(1 for _ in tiered.nodes())
        assert tiered.size_in_bits() > 0
        assert tiered.average_height() > 0

    def test_space_report_accepts_tiered(self, url_log):
        from repro.analysis.space import wavelet_trie_space_report

        tiered = TieredWaveletTrie(url_log[:100], active_capacity=32)
        report = wavelet_trie_space_report(tiered)
        assert report.components["node_count"] == tiered.node_count()
        assert report.total_bits > 0


class TestEmptyTierSkip:
    """Fully-empty tiers must be skipped *before* the per-tier batch walk.

    Every live tier costs a near-size-independent python walk in the batch
    paths (the fan-out constant the ROADMAP calls out), so a tier holding no
    elements -- an empty frozen tier handed over by a loader, or the drained
    mutable tail -- must never be walked, and results must be identical to
    the same sequence with no empties in the tier list."""

    def _spliced(self, values):
        """A tiered trie whose frozen list has empties at front/middle/back."""
        tiered = TieredWaveletTrie(values, active_capacity=16, compact_budget=4)
        tiered.compact(merge=False)
        assert len(tiered._frozen) > 1  # several real frozen tiers to mix with
        empty = WaveletTrie([], codec=tiered.codec)
        spliced = [empty]
        for tier in tiered._frozen:
            spliced.extend([tier, WaveletTrie([], codec=tiered.codec)])
        tiered._frozen = spliced
        return tiered

    def test_results_identical_with_mixed_empty_tiers(self, url_log):
        values = url_log[:120]
        clean = TieredWaveletTrie(values, active_capacity=16, compact_budget=4)
        spliced = self._spliced(values)
        rng = random.Random(11)
        _assert_matches_oracle(spliced, values, rng)
        positions = [rng.randrange(len(values)) for _ in range(16)]
        rank_positions = [rng.randint(0, len(values)) for _ in range(16)]
        probe = values[0]
        assert spliced.access_many(positions) == clean.access_many(positions)
        assert spliced.rank_many(probe, rank_positions) == clean.rank_many(
            probe, rank_positions
        )
        total = clean.count(probe)
        indexes = list(range(total))
        assert spliced.select_many(probe, indexes) == clean.select_many(
            probe, indexes
        )
        for prefix in PREFIXES:
            assert spliced.rank_prefix_many(
                prefix, rank_positions
            ) == clean.rank_prefix_many(prefix, rank_positions)
            matches = clean.count_prefix(prefix)
            if matches:
                assert spliced.select_prefix_many(
                    prefix, list(range(matches))
                ) == clean.select_prefix_many(prefix, list(range(matches)))

    def test_tier_views_exclude_empty_tiers(self, url_log):
        spliced = self._spliced(url_log[:80])
        tiers, offsets = spliced._tier_views()
        assert all(len(tier) for tier in tiers)
        # Strictly increasing offsets: bisect owner searches stay unambiguous.
        assert all(a < b for a, b in zip(offsets, offsets[1:]))
        assert offsets[-1] == len(spliced)
        # The raw tier list still reports the empties (introspection), the
        # query view does not (the walk).
        assert len(spliced._tiers()) > len(tiers)

    def test_rank_batch_stops_at_the_last_touched_tier(self, url_log):
        """Positions confined to the first tier must not fan out to later
        tiers: offset-ordered tiers contribute nothing past max(positions)."""
        values = url_log[:96]
        tiered = TieredWaveletTrie(values, active_capacity=16, compact_budget=4)
        tiered.compact(merge=False)
        tiers, offsets = tiered._tier_views()
        assert len(tiers) >= 3
        walked = []
        for index, tier in enumerate(tiers):
            def spy(key, positions, _index=index, _tier=tier):
                walked.append(_index)
                return type(_tier).rank_many_bits(_tier, key, positions)

            tier.rank_many_bits = spy
        first_len = len(tiers[0])
        tiered.rank_many(values[0], [1, first_len // 2, first_len])
        assert walked == [0], f"later tiers were walked: {walked}"
        walked.clear()
        tiered.rank_many(values[0], [0, 0])  # rank at 0 touches no tier
        assert walked == []
