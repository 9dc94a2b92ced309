"""Property-based tests: every Wavelet Trie variant against the naive oracle.

Hypothesis drives random sequences (and for the dynamic variant random edit
scripts); every primitive of the paper is compared with the list-based oracle.
"""

from hypothesis import example, given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.bits import kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.workloads import ColumnGenerator, UrlLogGenerator

# Short hierarchical strings: plenty of shared prefixes and repetitions.
values_strategy = st.lists(
    st.builds(
        lambda a, b: f"{a}/{b}" if b else a,
        st.sampled_from(["a", "b", "ab", "net", "com"]),
        st.sampled_from(["", "x", "y", "xyz", "deep/path"]),
    ),
    max_size=60,
)

prefix_strategy = st.sampled_from(["", "a", "ab", "a/", "net/", "com/x", "zzz"])


def preorder(trie):
    """Every node's label and bits (None at a leaf), in preorder."""
    return [
        (node.label, None if node.is_leaf else node.bitvector.to_list())
        for node in trie.nodes()
    ]


def check_against_oracle(trie, values):
    oracle = NaiveIndexedSequence(values)
    assert len(trie) == len(values)
    assert trie.to_list() == values
    distinct = set(values)
    for value in distinct:
        assert trie.count(value) == oracle.count(value)
        pos = len(values) // 2
        assert trie.rank(value, pos) == oracle.rank(value, pos)
        occurrences = oracle.count(value)
        if occurrences:
            assert trie.select(value, occurrences - 1) == oracle.select(value, occurrences - 1)
    return oracle


class TestStaticProperties:
    @given(values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, values):
        trie = WaveletTrie(values)
        check_against_oracle(trie, values)

    @given(values_strategy, prefix_strategy, st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_prefix_operations(self, values, prefix, raw_pos):
        trie = WaveletTrie(values)
        oracle = NaiveIndexedSequence(values)
        pos = min(raw_pos, len(values))
        assert trie.rank_prefix(prefix, pos) == oracle.rank_prefix(prefix, pos)
        total = oracle.rank_prefix(prefix, len(values))
        if total:
            assert trie.select_prefix(prefix, total - 1) == oracle.select_prefix(prefix, total - 1)

    @given(values_strategy, st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_range_analytics(self, values, raw_start, raw_stop):
        trie = WaveletTrie(values)
        oracle = NaiveIndexedSequence(values)
        start = min(raw_start, len(values))
        stop = min(max(raw_stop, start), len(values))
        assert list(trie.iter_range(start, stop)) == values[start:stop]
        assert dict(trie.distinct_in_range(start, stop)) == dict(oracle.distinct_in_range(start, stop))
        assert trie.range_majority(start, stop) == oracle.range_majority(start, stop)

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_rank_select_inverse(self, values):
        trie = WaveletTrie(values)
        for value in set(values):
            for idx in range(trie.count(value)):
                position = trie.select(value, idx)
                assert values[position] == value
                assert trie.rank(value, position) == idx


class TestAppendOnlyProperties:
    @given(values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_append_matches_oracle(self, values):
        trie = AppendOnlyWaveletTrie(block_size=64)
        for value in values:
            trie.append(value)
        check_against_oracle(trie, values)

    @given(values_strategy)
    @example(UrlLogGenerator(seed=3).generate(3000))
    @example(ColumnGenerator(cardinality=64, zipf_exponent=1.1, seed=1).generate(3000))
    @example(["", "a", "", "ab", "a", "abc", "", "ab/x", "abc"])
    @settings(max_examples=30, deadline=None)
    def test_equivalent_to_static_bulk_load(self, values):
        # The static bulk build must equal both incremental builds node for
        # node -- labels and node bits, in preorder -- on either backend.
        for backend in kernel.available_backends():
            previous = kernel.use_backend(backend)
            try:
                static = WaveletTrie(values)
                expected = preorder(static)
                assert preorder(AppendOnlyWaveletTrie(values, block_size=64)) == expected
                assert preorder(DynamicWaveletTrie(values)) == expected
                assert static.to_list() == values
            finally:
                kernel.use_backend(previous)


# Edit scripts for the dynamic variant: (operation, value_index, position_seed)
edit_script = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.sampled_from(["a", "b", "a/x", "a/y", "b/x/long", "c"]),
        st.integers(min_value=0, max_value=10 ** 6),
    ),
    max_size=80,
)


class TestDynamicProperties:
    @given(edit_script)
    @settings(max_examples=60, deadline=None)
    def test_edit_script_matches_oracle(self, script):
        trie = DynamicWaveletTrie(seed=5)
        oracle = NaiveIndexedSequence()
        for operation, value, position_seed in script:
            if operation <= 5 or len(oracle) == 0:
                position = position_seed % (len(oracle) + 1)
                trie.insert(value, position)
                oracle.insert(value, position)
            elif operation <= 8:
                position = position_seed % len(oracle)
                assert trie.delete(position) == oracle.delete(position)
            else:
                position = position_seed % (len(oracle) + 1)
                assert trie.rank(value, position) == oracle.rank(value, position)
                assert trie.rank_prefix(value[:1], position) == oracle.rank_prefix(value[:1], position)
        assert trie.to_list() == oracle.to_list()
        assert trie.distinct_count() == len(set(oracle.to_list()))

    @given(edit_script)
    @settings(max_examples=30, deadline=None)
    def test_structure_matches_static_rebuild(self, script):
        """After any edit script the trie equals a fresh static build of the content."""
        trie = DynamicWaveletTrie(seed=11)
        oracle = []
        for operation, value, position_seed in script:
            if operation <= 6 or not oracle:
                position = position_seed % (len(oracle) + 1)
                trie.insert(value, position)
                oracle.insert(position, value)
            else:
                position = position_seed % len(oracle)
                trie.delete(position)
                oracle.pop(position)
        if oracle:
            static = WaveletTrie(oracle)
            assert trie.node_count() == static.node_count()
            assert trie.to_list() == oracle
            static_nodes = sorted(
                (node.label.to01(), "".join(str(b) for b in node.bitvector))
                for node in static.nodes() if not node.is_leaf
            )
            dynamic_nodes = sorted(
                (node.label.to01(), "".join(str(b) for b in node.bitvector))
                for node in trie.nodes() if not node.is_leaf
            )
            assert static_nodes == dynamic_nodes
        else:
            assert len(trie) == 0
