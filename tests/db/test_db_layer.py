"""Tests for the column-store application layer."""

import random
from collections import Counter

import pytest

from repro.db import ColumnStore, CompressedColumn
from repro.exceptions import InvalidOperationError, OutOfBoundsError


class TestCompressedColumn:
    def test_append_and_reads(self, column_values):
        column = CompressedColumn("location")
        column.extend(column_values[:200])
        assert len(column) == 200
        assert column.value_at(17) == column_values[17]
        value = column_values[0]
        assert column.count_eq(value) == column_values[:200].count(value)
        assert list(column.rows_eq(value, limit=3)) == [
            i for i, v in enumerate(column_values[:200]) if v == value
        ][:3]
        assert column.count_prefix("emea/") == sum(
            1 for v in column_values[:200] if v.startswith("emea/")
        )
        assert dict(column.distinct()) == dict(Counter(column_values[:200]))

    def test_static_column_rejects_append(self, column_values):
        column = CompressedColumn("loc", column_values[:50], appendable=False)
        with pytest.raises(InvalidOperationError):
            column.append("x")
        assert column.value_at(0) == column_values[0]

    def test_group_by_and_top_values(self, column_values):
        column = CompressedColumn("loc", column_values[:300])
        groups = dict(column.group_by_count(50, 250))
        assert groups == dict(Counter(column_values[50:250]))
        top = column.top_values(3)
        counts = Counter(column_values[:300])
        assert top[0][1] == counts.most_common(1)[0][1]

    def test_values_scan(self, column_values):
        column = CompressedColumn("loc", column_values[:80])
        assert list(column.values(10, 60)) == column_values[10:60]

    def test_tiered_column_matches_appendable_reads(self, column_values):
        """A tiered column supports the full read surface with the same
        answers as the append-only one, while absorbing sustained writes
        through its compacting index."""
        from repro.core.tiers import TieredWaveletTrie

        values = column_values[:300]
        tiered = CompressedColumn("loc", tiered=True)
        tiered._index.active_capacity = 64  # several tiers for this test
        reference = CompressedColumn("loc")
        tiered.extend(values)
        reference.extend(values)
        assert type(tiered.index) is TieredWaveletTrie
        assert tiered.appendable
        assert tiered.index.tier_count > 1
        assert len(tiered) == len(reference)
        assert [tiered.value_at(i) for i in range(0, 300, 17)] == [
            reference.value_at(i) for i in range(0, 300, 17)
        ]
        probe = values[0]
        assert tiered.count_eq(probe) == reference.count_eq(probe)
        assert list(tiered.rows_eq(probe)) == list(reference.rows_eq(probe))
        assert tiered.count_prefix("emea/") == reference.count_prefix("emea/")
        assert list(tiered.rows_prefix("emea/", limit=5)) == list(
            reference.rows_prefix("emea/", limit=5)
        )
        assert dict(tiered.distinct()) == dict(reference.distinct())
        assert dict(tiered.group_by_count(50, 250)) == dict(
            reference.group_by_count(50, 250)
        )
        assert tiered.top_values(3)[0][1] == reference.top_values(3)[0][1]
        assert list(tiered.values(10, 200)) == values[10:200]
        tiered.append("amer/new-city/site-99")
        assert tiered.value_at(300) == "amer/new-city/site-99"


class TestColumnStore:
    def build(self, rows=150):
        rng = random.Random(1)
        table = ColumnStore(["city", "status", "service"])
        data = []
        for index in range(rows):
            row = {
                "city": rng.choice(["emea/rome", "emea/pisa", "amer/austin"]),
                "status": rng.choice(["ok", "ok", "err"]),
                "service": rng.choice(["web", "api"]),
            }
            data.append(row)
            assert table.append_row(row) == index
        return table, data

    def test_row_roundtrip(self):
        table, data = self.build()
        assert len(table) == len(data)
        for index in (0, 17, len(data) - 1):
            assert table.row(index) == data[index]
        with pytest.raises(OutOfBoundsError):
            table.row(len(data))

    def test_filters(self):
        table, data = self.build()
        expected = [i for i, row in enumerate(data) if row["status"] == "err"]
        assert table.filter_eq("status", "err") == expected
        expected_prefix = [i for i, row in enumerate(data) if row["city"].startswith("emea/")]
        assert table.filter_prefix("city", "emea/") == expected_prefix
        combined = table.filter({"status": "err", "service": "web"}, {"city": "emea/"})
        expected_combined = [
            i for i, row in enumerate(data)
            if row["status"] == "err" and row["service"] == "web"
            and row["city"].startswith("emea/")
        ]
        assert combined == expected_combined
        assert table.count_where({"status": "err"}) == len(expected)
        assert table.count_where({}, {"city": "emea/"}) == len(expected_prefix)
        assert table.count_where({}) == len(data)

    def test_projection_and_groupby(self):
        table, data = self.build()
        rows = table.project([0, 5], ["city"])
        assert rows == [{"city": data[0]["city"]}, {"city": data[5]["city"]}]
        groups = dict(table.group_by_count("service"))
        assert groups == dict(Counter(row["service"] for row in data))

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            ColumnStore([])
        with pytest.raises(ValueError):
            ColumnStore(["a", "a"])
        table = ColumnStore(["a", "b"])
        with pytest.raises(InvalidOperationError):
            table.append_row({"a": "x"})
        with pytest.raises(InvalidOperationError):
            table.column("missing")

    def test_size_reporting(self):
        table, _ = self.build(60)
        assert table.size_in_bits() > 0
