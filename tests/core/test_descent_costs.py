"""The static trie's per-depth batch descent, as exact call counts.

A static Wavelet Trie keeps every internal node's bits in one shared
vector, so a batch descent moves every item down one depth per call on
that vector, whichever node each item is at.  A counting wrapper sits in
front of the shared vector and pins, in the style of
``tests/text/test_search_costs.py`` (which pins the FM-index's descents):

* one ``access_many`` batch makes at most ``height`` shared-vector calls,
  and so does one mixed-key ``rank_each`` batch (one value per item);
* their answers equal the scalar loop's and the naive oracle's.

The trie is opened from its image, the served form, and is also pinned to
hold no batch handle after the open, and to report at most 51 bits a row
on 100k URLs (ROADMAP item 2's 2x lower-bound target, 25.6 bits a row).
"""

import contextlib
import random
from collections import Counter

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.bits import kernel
from repro.core.static import WaveletTrie
from repro.storage import dumps, loads
from repro.workloads import ColumnGenerator, UrlLogGenerator

BACKENDS = kernel.available_backends()


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


class CountingVector:
    """Forwards to a bitvector and counts each call and its batch width."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)

        def counted(*args):
            self.calls[name] += 1
            return attribute(*args)

        return counted


@pytest.fixture(scope="module", params=["rrr", "plain"])
def served(request, url_log):
    """An opened static trie with a counted shared vector, its values and
    its height (internal nodes on the longest path)."""
    trie = loads(dumps(WaveletTrie(url_log, bitvector=request.param)))
    height = max(trie.height_of(value) for value in set(url_log))
    shared = CountingVector(trie.node_bitvector)
    trie._shared = shared
    return trie, shared, url_log, height


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [1, 7, 40, 400])
def test_one_access_many_batch_is_at_most_height_calls(served, backend, size):
    trie, shared, values, height = served
    naive = NaiveIndexedSequence(values)
    positions = [random.Random(size).randrange(len(values)) for _ in range(size)]
    with active_backend(backend):
        shared.calls.clear()
        answers = trie.access_many(positions)
        assert set(shared.calls) == {"access_rank_many"}
        assert 1 <= shared.calls["access_rank_many"] <= height
        assert answers == [trie.access(pos) for pos in positions]
        assert answers == [naive.access(pos) for pos in positions]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [2, 30, 300])
def test_one_mixed_key_rank_each_batch_is_at_most_height_calls(served, backend, size):
    trie, shared, values, height = served
    naive = NaiveIndexedSequence(values)
    rng = random.Random(size)
    distinct = sorted(set(values))
    keys = [rng.choice(distinct + ["http://absent.example/"]) for _ in range(size)]
    positions = [rng.randint(0, len(values)) for _ in range(size)]
    with active_backend(backend):
        shared.calls.clear()
        answers = trie.rank_each(keys, positions)
        assert set(shared.calls) == {"rank_many"}
        assert 1 <= shared.calls["rank_many"] <= height
        assert answers == [trie.rank(key, pos) for key, pos in zip(keys, positions)]
        assert answers == [naive.rank(key, pos) for key, pos in zip(keys, positions)]


def test_a_lone_leaf_and_an_empty_trie_descend_without_calls():
    lone = loads(dumps(WaveletTrie(["only"] * 5)))
    assert lone.access_many([4, 0]) == ["only", "only"]
    assert lone.inverse_select_many([3]) == (["only"], [3])
    assert lone.rank_each(["only", "other"], [5, 5]) == [5, 0]
    empty = WaveletTrie([])
    assert empty.access_many([]) == [] and empty.rank_each([], []) == []


@pytest.mark.parametrize("kind", ["rrr", "plain"])
def test_an_open_keeps_no_batch_handle(kind):
    """The check pass ranks the window boundaries with one batch call and
    drops the handle that call prepared; a query batch prepares it again."""
    values = ColumnGenerator(cardinality=64, zipf_exponent=1.1, seed=1).generate(5_000)
    trie = loads(dumps(WaveletTrie(values, bitvector=kind)))
    vector = trie.node_bitvector
    assert vector._batch_handle is None and vector._batch_backend is None
    trie.node_bitvector.rank_many(1, list(range(0, len(vector), 7)))
    assert vector._batch_handle is not None


def test_the_url_trie_is_within_twice_the_lower_bound():
    """100k URLs: the components take 36.6 bits a row and the two packed
    check-pass tables fit in the rest of the 2x LB (25.6) target."""
    trie = WaveletTrie(UrlLogGenerator(seed=3).generate(100_000))
    assert trie.size_in_bits() / len(trie) <= 51
    assert trie.table_bits() < trie.succinct_space_breakdown()["total"] / 2
