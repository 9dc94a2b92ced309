"""Hypothesis-driven differential fuzz of deletion churn and prefix batches.

The one mutation path the earlier suites barely touched: interleaved
``insert_many`` / ``delete_many`` / ``append`` / ``extend`` churn, with the
batched prefix queries (``rank_prefix_many`` / ``select_prefix_many``) and the
canonical ``select_prefix`` out-of-range error cross-checked against
:class:`~repro.baselines.naive.NaiveIndexedSequence` (whose own ``delete_many``
is the interface's unamortised scalar loop) after every phase.  Every test
runs under each available kernel backend -- parametrized like the
kernel-crosscheck suites -- so the numpy and pure-python run extraction
certify each other; with numpy absent the python run still covers
everything.

Deterministic regressions cover the structural corners by name:
empty-node pruning (a batch delete that empties whole subtrees, including
internal ones) and delete-to-empty-then-regrow.
"""

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bitvector.dynamic import DynamicBitVector
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import OutOfBoundsError

BACKENDS = kernel.available_backends()

# Keys sharing long prefixes, so deletions keep merging the same Patricia
# nodes that insertions re-split (cf. test_topology_churn.py).
UNIVERSE = [
    "app/li", "app/lo", "app/le", "app/lemon",
    "app/x", "apricot", "banana", "band", "b",
]
PREFIX_PROBES = ["app/", "app/l", "app/le", "ap", "b", "ban", "zzz", ""]


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def _canonical_error_message(fn):
    with pytest.raises(OutOfBoundsError) as caught:
        fn()
    return str(caught.value)


def _cross_check(trie, naive, rng):
    size = len(naive)
    assert len(trie) == size
    if size == 0:
        return
    positions = [rng.randrange(size) for _ in range(8)]
    assert trie.access_many(positions) == [naive.access(p) for p in positions]
    rank_positions = [rng.randint(0, size) for _ in range(6)]
    for prefix in PREFIX_PROBES:
        assert trie.rank_prefix_many(prefix, rank_positions) == [
            naive.rank_prefix(prefix, p) for p in rank_positions
        ]
        total = naive.rank_prefix(prefix, size)
        if total:
            indexes = [rng.randrange(total) for _ in range(5)]
            assert trie.select_prefix_many(prefix, indexes) == [
                naive.select_prefix(prefix, idx) for idx in indexes
            ]
            # The canonical out-of-range contract: one exception type, one
            # message format, byte-identical to the oracle's.
            expected = _canonical_error_message(
                lambda: naive.select_prefix(prefix, total)
            )
            assert _canonical_error_message(
                lambda: trie.select_prefix(prefix, total)
            ) == expected
            assert _canonical_error_message(
                lambda: trie.select_prefix_many(prefix, [0, total])
            ) == expected


def _apply_op(trie, naive, op, rng):
    kind, a, b = op
    size = len(naive)
    if kind == "append":
        value = UNIVERSE[a % len(UNIVERSE)]
        trie.append(value)
        naive.append(value)
    elif kind == "insert":
        value = UNIVERSE[a % len(UNIVERSE)]
        position = b % (size + 1)
        trie.insert(value, position)
        naive.insert(value, position)
    elif kind == "extend":
        batch = [UNIVERSE[(a + i) % len(UNIVERSE)] for i in range(b)]
        trie.extend(batch)
        for value in batch:
            naive.append(value)
    elif kind == "insert_many":
        batch = [UNIVERSE[(a + i * i) % len(UNIVERSE)] for i in range(b)]
        position = a % (size + 1)
        trie.insert_many(batch, position)
        for offset, value in enumerate(batch):
            naive.insert(value, position + offset)
    elif kind == "delete" and size:
        position = a % size
        assert trie.delete(position) == naive.delete(position)
    elif kind == "delete_many" and size:
        count = min(size, 1 + b % 9)
        positions = rng.sample(range(size), count)
        expected = [naive.access(position) for position in positions]
        assert trie.delete_many(positions) == expected
        assert naive.delete_many(positions) == expected


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "insert", "extend", "insert_many", "delete", "delete_many"]
        ),
        st.integers(0, 2**20),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDynamicTrieDeleteChurn:
    @given(ops=OPS, seed=st.integers(0, 2**16))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_interleaved_churn_matches_oracle(self, backend, ops, seed):
        rng = random.Random(seed)
        with active_backend(backend):
            trie = DynamicWaveletTrie()
            naive = NaiveIndexedSequence()
            for op in ops:
                _apply_op(trie, naive, op, rng)
            _cross_check(trie, naive, rng)
            # No stale topology: the trie's shape equals a fresh static
            # build of the surviving content.
            if len(naive):
                static = WaveletTrie(naive.to_list())
                assert trie.node_count() == static.node_count()
                assert trie.distinct_count() == static.distinct_count()
            else:
                assert trie.root is None

    @given(seed=st.integers(0, 2**16))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_delete_to_empty_then_regrow(self, backend, seed):
        """Wipe the whole sequence with one batch, then rebuild on the empty
        topology -- the root must reset to None and regrow cleanly."""
        rng = random.Random(seed)
        with active_backend(backend):
            values = [rng.choice(UNIVERSE) for _ in range(rng.randrange(1, 40))]
            trie = DynamicWaveletTrie(values)
            positions = list(range(len(values)))
            rng.shuffle(positions)
            assert trie.delete_many(positions) == [values[p] for p in positions]
            assert len(trie) == 0
            assert trie.root is None
            regrow = [rng.choice(UNIVERSE) for _ in range(20)]
            trie.extend(regrow)
            naive = NaiveIndexedSequence(regrow)
            _cross_check(trie, naive, rng)

    def test_batch_delete_prunes_internal_subtrees(self, backend):
        """Deleting every occurrence under a shared prefix in one batch must
        prune the emptied *internal* node (not just a leaf) and merge its
        parent with the sibling subtree."""
        with active_backend(backend):
            values = (
                ["app/li"] * 5 + ["app/lo"] * 4 + ["app/le"] * 3 + ["banana"] * 6
            )
            rng = random.Random(7)
            rng.shuffle(values)
            trie = DynamicWaveletTrie(values)
            naive = NaiveIndexedSequence(values)
            before = trie.node_count()
            # Every "app/l*" element: their shared subtree (several internal
            # nodes) empties in one delete_many.
            doomed = [i for i, value in enumerate(values) if value.startswith("app/l")]
            assert trie.delete_many(doomed) == [values[i] for i in doomed]
            naive.delete_many(doomed)
            assert trie.to_list() == naive.to_list()
            static = WaveletTrie(naive.to_list())
            assert trie.node_count() == static.node_count() < before
            _cross_check(trie, naive, rng)
            # The pruned keys can return: the topology re-splits correctly.
            trie.insert_many(["app/li", "app/le"], 2)
            naive.insert("app/le", 2)
            naive.insert("app/li", 2)
            assert trie.to_list() == naive.to_list()
            _cross_check(trie, naive, rng)

    def test_delete_many_validates_all_or_nothing(self, backend):
        from repro.exceptions import DuplicatePositionError, ReproError

        with active_backend(backend):
            values = ["app/li", "app/lo", "banana"]
            trie = DynamicWaveletTrie(values)
            with pytest.raises(OutOfBoundsError):
                trie.delete_many([0, 3])
            with pytest.raises(DuplicatePositionError):
                trie.delete_many([1, 1])
            # The duplicate error stays inside both hierarchies: library
            # callers catch ReproError, generic callers catch ValueError.
            assert issubclass(DuplicatePositionError, ReproError)
            assert issubclass(DuplicatePositionError, ValueError)
            # Nothing was deleted by the failed batches.
            assert trie.to_list() == values

    def test_empty_batches_never_raise(self, backend):
        """An empty index batch returns [] even for absent values/prefixes,
        matching the interface's default scalar loops (regression: the
        shared-walk overrides used to locate the node first and raise)."""
        with active_backend(backend):
            values = ["app/li", "app/lo", "banana"]
            for trie in (
                DynamicWaveletTrie(values),
                WaveletTrie(values),
            ):
                assert trie.select_prefix_many("zzz", []) == []
                assert trie.select_many("zzz", []) == []
                assert trie.rank_prefix_many("zzz", []) == []
                assert trie.delete_many([]) == []
            naive = NaiveIndexedSequence(values)
            assert naive.select_prefix_many("zzz", []) == []
            assert naive.select_many("zzz", []) == []


def _apply_tiered_op(tiered, naive, op, rng):
    """Like ``_apply_op`` but window-aware: inserts and deletes land inside
    the mutable tail (the LSM retention rule), and compaction-lifecycle ops
    (``compact_step`` / ``compact``) are part of the churn mix."""
    kind, a, b = op
    start = tiered.mutable_start
    window = len(naive) - start
    if kind == "append":
        value = UNIVERSE[a % len(UNIVERSE)]
        tiered.append(value)
        naive.append(value)
    elif kind == "insert":
        value = UNIVERSE[a % len(UNIVERSE)]
        position = start + b % (window + 1)
        tiered.insert(value, position)
        naive.insert(value, position)
    elif kind == "extend":
        batch = [UNIVERSE[(a + i) % len(UNIVERSE)] for i in range(b)]
        tiered.extend(batch)
        for value in batch:
            naive.append(value)
    elif kind == "insert_many":
        batch = [UNIVERSE[(a + i * i) % len(UNIVERSE)] for i in range(b)]
        position = start + a % (window + 1)
        tiered.insert_many(batch, position)
        for offset, value in enumerate(batch):
            naive.insert(value, position + offset)
    elif kind == "delete" and window:
        position = start + a % window
        assert tiered.delete(position) == naive.delete(position)
    elif kind == "delete_many" and window:
        count = min(window, 1 + b % 9)
        positions = [start + p for p in rng.sample(range(window), count)]
        expected = [naive.access(position) for position in positions]
        assert tiered.delete_many(positions) == expected
        assert naive.delete_many(positions) == expected
    elif kind == "compact_step":
        tiered.compact_step(1 + a % 16)
    elif kind == "compact":
        tiered.compact(merge=bool(b % 2))
        assert tiered.mutable_start == len(naive)


TIERED_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "append", "insert", "extend", "insert_many", "delete",
                "delete_many", "compact_step", "compact",
            ]
        ),
        st.integers(0, 2**20),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTieredTrieChurn:
    """The LSM composition under the same churn + batched-prefix-query
    differential as the dynamic trie, with freeze/compaction interleaved:
    a tiny ``active_capacity`` keeps seals constantly in flight, and a
    1-block ``compact_budget`` guarantees most queries run mid-freeze."""

    @given(ops=TIERED_OPS, seed=st.integers(0, 2**16))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_interleaved_churn_matches_oracle(self, backend, ops, seed):
        rng = random.Random(seed)
        with active_backend(backend):
            tiered = TieredWaveletTrie(active_capacity=8, compact_budget=1)
            naive = NaiveIndexedSequence()
            for op in ops:
                _apply_tiered_op(tiered, naive, op, rng)
                assert len(tiered) == len(naive)
            _cross_check(tiered, naive, rng)
            assert tiered.to_list() == naive.to_list()

    @given(seed=st.integers(0, 2**16))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_queries_exact_at_every_compaction_step(self, backend, seed):
        """Drive one seal to completion a single block unit at a time,
        cross-checking the batched prefix queries after every unit: results
        must be exact with the freeze at any intermediate point."""
        rng = random.Random(seed)
        with active_backend(backend):
            values = [rng.choice(UNIVERSE) for _ in range(16)]
            tiered = TieredWaveletTrie(active_capacity=16, compact_budget=1)
            naive = NaiveIndexedSequence()
            tiered.extend(values)
            for value in values:
                naive.append(value)
            steps = 0
            # compact_step seals the full tail, then returns 0 once the
            # freeze has finished.
            while tiered.compact_step(1):
                _cross_check(tiered, naive, rng)
                steps += 1
                assert steps < 10_000, "compaction never finished"
            _cross_check(tiered, naive, rng)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDynamicBitVectorDeleteChurn:
    @given(
        payload=st.lists(st.integers(0, 1), min_size=1, max_size=300),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_descending_deletes_match_list_oracle(self, backend, payload, seed):
        """A node bitvector under the trie's delete batches: one scalar
        ``delete`` per position, highest first, between bulk ``insert_many``
        calls whose ``Bits`` payloads the active backend splits into runs.
        Runs must stay maximal after every batch."""
        rng = random.Random(seed)
        with active_backend(backend):
            vector = DynamicBitVector.from_bits(Bits.from_iterable(payload))
            reference = list(payload)
            while reference:
                count = min(len(reference), 1 + rng.randrange(40))
                positions = rng.sample(range(len(reference)), count)
                for position in sorted(positions, reverse=True):
                    assert vector.delete(position) == reference.pop(position)
                assert vector.to_list() == reference
                runs = list(vector.runs())
                assert all(length > 0 for _, length in runs)
                assert all(
                    runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1)
                ), "a delete batch left uncoalesced adjacent runs"
                if reference and rng.random() < 0.5:
                    at = rng.randrange(len(reference) + 1)
                    bits = [rng.randint(0, 1) for _ in range(rng.randrange(1, 20))]
                    vector.insert_many(at, Bits.from_iterable(bits))
                    reference[at:at] = bits
