"""Tests for the synthetic workload generators (determinism, shape, skew)."""

from collections import Counter

import pytest

from repro.workloads import (
    ColumnGenerator,
    IntegerSequenceGenerator,
    QueryLogGenerator,
    UrlLogGenerator,
    ZipfSampler,
)


class TestZipfSampler:
    def test_determinism(self):
        a = ZipfSampler(list(range(20)), exponent=1.2, seed=1).sample_many(200)
        b = ZipfSampler(list(range(20)), exponent=1.2, seed=1).sample_many(200)
        assert a == b

    def test_skew(self):
        samples = ZipfSampler(list(range(50)), exponent=1.3, seed=2).sample_many(3000)
        counts = Counter(samples)
        # The most popular item must dominate the tail.
        assert counts[0] > counts.get(25, 0) * 3
        assert counts[0] > len(samples) * 0.1

    def test_exponent_zero_is_uniformish(self):
        samples = ZipfSampler(list(range(10)), exponent=0.0, seed=3).sample_many(5000)
        counts = Counter(samples)
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler([])
        with pytest.raises(ValueError):
            ZipfSampler([1], exponent=-1)


class TestUrlLogGenerator:
    def test_determinism_and_shape(self):
        a = UrlLogGenerator(domains=5, seed=7).generate(100)
        b = UrlLogGenerator(domains=5, seed=7).generate(100)
        assert a == b
        assert all(url.startswith("http://www.") for url in a)
        assert all("/" in url[7:] for url in a)

    def test_distinct_domains_bounded(self):
        generator = UrlLogGenerator(domains=5, seed=8)
        urls = generator.generate(500)
        hosts = {url.split("/")[2] for url in urls}
        assert hosts <= set(generator.domains())
        assert len(hosts) <= 5

    def test_prefix_sharing(self):
        """URLs must share long prefixes (the property the trie exploits)."""
        urls = UrlLogGenerator(domains=3, depth=4, branching=2, seed=9).generate(300)
        counts = Counter(url.split("/")[2] for url in urls)
        top_domain, top_count = counts.most_common(1)[0]
        assert top_count > 100  # the Zipf head dominates

    def test_validation(self):
        with pytest.raises(ValueError):
            UrlLogGenerator(domains=0)


class TestOtherGenerators:
    def test_query_log(self):
        queries = QueryLogGenerator(seed=3).generate(200)
        assert len(queries) == 200
        assert all(1 <= len(q.split(" ")) <= 4 for q in queries)
        assert QueryLogGenerator(seed=3).generate(200) == queries

    def test_column_generator(self):
        generator = ColumnGenerator(cardinality=16, seed=4)
        values = generator.generate(300)
        assert set(values) <= set(generator.distinct_values())
        assert all(value.count("/") == 2 for value in values)
        flat = ColumnGenerator(cardinality=16, hierarchical=False, seed=4).generate(50)
        assert all(value.startswith("value-") for value in flat)

    def test_integer_generator(self):
        generator = IntegerSequenceGenerator(universe=2 ** 32, alphabet_size=32, seed=5)
        values = generator.generate(400)
        assert set(values) <= set(generator.alphabet)
        assert len(set(values)) <= 32
        assert all(0 <= value < 2 ** 32 for value in values)
        clustered = IntegerSequenceGenerator(
            universe=10 ** 6, alphabet_size=64, clustered=True, seed=6
        )
        alphabet = clustered.alphabet
        assert max(alphabet) - min(alphabet) == 63

    def test_integer_generator_validation(self):
        with pytest.raises(ValueError):
            IntegerSequenceGenerator(universe=10, alphabet_size=11)
