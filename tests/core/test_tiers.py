"""The tier lifecycle: ``TrieFreezer``, ``freeze_trie`` and ``thaw``.

The budgeted freeze must be *exactly* equivalent to the one-shot static RRR
build: same content, same topology, same measured bits (classes and offsets
are deterministic functions of the payload).  The de-amortisation contract
(Lemma 4.7 applied to a whole trie) is checked by driving the freeze with a
unit budget and asserting bounded per-step progress.  Every flavour reaches
the one static trie the same way: its static form.
"""

import pytest

from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie, TrieFreezer, freeze_trie, thaw
from repro.exceptions import ImmutableStructureError, InvalidOperationError
from repro.storage import dumps, loads


def OpenedWaveletTrie(values=()):
    """A static trie opened from its image, as a server holds it."""
    return loads(dumps(WaveletTrie(values)))


GROWABLE = [AppendOnlyWaveletTrie, DynamicWaveletTrie]
ALL_FLAVOURS = [WaveletTrie, OpenedWaveletTrie, *GROWABLE, TieredWaveletTrie]


def static_form(trie):
    """The static trie of any flavour: one static trie over its content."""
    if isinstance(trie, TieredWaveletTrie):
        trie.compact()  # merges every tier into one frozen tier
        (trie,) = trie._frozen
    return freeze_trie(trie)


class TestConversions:
    @pytest.mark.parametrize("flavour", ALL_FLAVOURS)
    def test_static_form_preserves_content(self, flavour, url_log):
        values = url_log[:60]
        static = static_form(flavour(values))
        assert isinstance(static, WaveletTrie)
        assert static.to_list() == values

    @pytest.mark.parametrize("flavour", ALL_FLAVOURS)
    def test_static_form_is_the_direct_build(self, flavour, url_log):
        """Whatever flavour it starts from, the static form has the
        topology and measured bits of building the trie directly."""
        values = url_log[:80]
        static = static_form(flavour(values))
        direct = WaveletTrie(values)
        assert static.node_count() == direct.node_count()
        assert static.size_in_bits() == direct.size_in_bits()
        breakdown = direct.succinct_space_breakdown()
        assert static.succinct_space_breakdown() == breakdown

    @pytest.mark.parametrize(
        "flavour,state",
        [
            (WaveletTrie, "frozen"),
            (OpenedWaveletTrie, "frozen"),
            (AppendOnlyWaveletTrie, "mutable"),
            (DynamicWaveletTrie, "mutable"),
            (TieredWaveletTrie, "mutable"),
        ],
    )
    def test_writes_follow_the_tier_state(self, flavour, state, url_log):
        """Frozen flavours reject a write and stay as they were; mutable
        ones take it, and their next freeze carries it."""
        values = url_log[:30]
        trie = flavour(values)
        if state == "frozen":
            with pytest.raises(ImmutableStructureError):
                trie.append("http://late.example/write")
            assert trie.to_list() == values
        else:
            trie.append("http://late.example/write")
            expected = values + ["http://late.example/write"]
            assert static_form(trie).to_list() == expected

    @pytest.mark.parametrize("kind", ["plain"])
    def test_other_node_bitvectors_share_the_rrr_components(self, kind, url_log):
        """Only the node vector's encoding depends on the kind: the
        topology, labels and window delimiters are the RRR build's."""
        values = url_log[:60]
        static = static_form(WaveletTrie(values, bitvector=kind))
        assert static.bitvector_kind == kind
        assert static.to_list() == values
        direct = WaveletTrie(values)
        assert static.node_bitvector.to_list() == direct.node_bitvector.to_list()
        ours = static.succinct_space_breakdown()
        expected = direct.succinct_space_breakdown()
        for part in ("topology", "labels", "label_delimiters", "bitvector_delimiters"):
            assert ours[part] == expected[part]

    @pytest.mark.parametrize("flavour", GROWABLE)
    def test_a_write_after_a_finished_freeze_reaches_the_next_one(self, flavour):
        trie = flavour(["a", "b", "a"])
        freezer = TrieFreezer(trie)
        while not freezer.done:
            freezer.step(1)
        trie.append("c")
        assert static_form(trie).to_list() == ["a", "b", "a", "c"]


class TestTrieFreezer:
    @pytest.mark.parametrize("flavour", GROWABLE)
    def test_budgeted_freeze_equals_one_shot_build(self, flavour, url_log):
        """Step-by-step freezing under a tiny budget produces a static RRR
        trie structurally identical to the direct bulk build, leaves its
        source as it was, and a later freeze starts from scratch."""
        values = url_log[:150]
        trie = flavour(values)
        freezer = TrieFreezer(trie)
        steps = 0
        while not freezer.done:
            freezer.step(3)
            steps += 1
        assert steps > 1, "a small budget should take several steps"
        frozen = freezer.finish()
        reference = WaveletTrie(values, bitvector="rrr")
        assert isinstance(frozen, WaveletTrie)
        assert frozen.to_list() == values
        assert frozen.node_count() == reference.node_count()
        assert frozen.size_in_bits() == reference.size_in_bits()
        assert trie.to_list() == values
        assert freeze_trie(trie).to_list() == values

    def test_step_does_bounded_work(self, url_log):
        """A unit-budget step is bounded by one extraction chunk's worth of
        block units (extraction is chunk-atomic), never a whole-trie pass."""
        from repro.bitvector.rrr import _DEFAULT_BLOCK
        from repro.core.tiers import _EXTRACT_CHUNK_BITS

        freezer = TrieFreezer(DynamicWaveletTrie(url_log[:200]))
        ceiling = _EXTRACT_CHUNK_BITS // _DEFAULT_BLOCK + 1
        while not freezer.done:
            assert freezer.step(1) <= ceiling
        assert freezer.step(5) == 0  # done: no more work units

    def test_pending_bits_decreases_to_zero(self, url_log):
        trie = DynamicWaveletTrie(url_log[:80])
        freezer = TrieFreezer(trie)
        gauge = freezer.pending_bits
        assert gauge > 0
        while not freezer.done:
            freezer.step(8)
            assert freezer.pending_bits <= gauge
            gauge = freezer.pending_bits
        assert freezer.pending_bits == 0

    def test_mutation_mid_freeze_is_detected(self, url_log):
        trie = DynamicWaveletTrie(url_log[:50])
        freezer = TrieFreezer(trie)
        freezer.step(1)
        trie.append("http://late.example/write")
        with pytest.raises(InvalidOperationError, match="mutated while a freeze"):
            freezer.step(1)

    def test_budget_must_be_positive(self, url_log):
        freezer = TrieFreezer(DynamicWaveletTrie(url_log[:10]))
        with pytest.raises(ValueError, match="positive block count"):
            freezer.step(0)

    def test_empty_trie_freezes_instantly(self):
        freezer = TrieFreezer(DynamicWaveletTrie())
        assert freezer.done
        assert freezer.pending_bits == 0
        frozen = freezer.finish()
        assert len(frozen) == 0 and frozen.to_list() == []


class TestFreezeTrie:
    def test_static_passes_through(self, url_log):
        static = WaveletTrie(url_log[:20])
        assert freeze_trie(static) is static
        opened = OpenedWaveletTrie(url_log[:20])
        assert freeze_trie(opened) is opened

    @pytest.mark.parametrize(
        "flavour", [DynamicWaveletTrie, AppendOnlyWaveletTrie]
    )
    def test_growable_freezes_to_static(self, flavour, url_log):
        values = url_log[:70]
        frozen = freeze_trie(flavour(values))
        assert isinstance(frozen, WaveletTrie)
        assert frozen.to_list() == values

    def test_non_tier_is_rejected(self):
        with pytest.raises(InvalidOperationError, match="not a Wavelet Trie tier"):
            freeze_trie(["not", "a", "trie"])


def _shape(trie):
    """Every node in preorder: label, and the bits of internal nodes."""
    return [
        (node.label, None if node.is_leaf else list(node.bitvector.iter_range(0, len(node.bitvector))))
        for node in trie.nodes()
    ]


class TestThaw:
    @pytest.mark.parametrize(
        "flavour,params",
        [(AppendOnlyWaveletTrie, {"block_size": 128}), (DynamicWaveletTrie, {"seed": 99})],
    )
    def test_thaw_inverts_the_freeze_node_for_node(self, flavour, params, url_log):
        values = url_log[:180]
        original = flavour(values, **params)
        thawed = thaw(freeze_trie(original), flavour, **params)
        assert type(thawed) is flavour
        assert _shape(thawed) == _shape(original)
        assert thawed.to_list() == values
        # It is a working trie of its flavour: it takes writes.
        thawed.append("http://after.thaw/")
        assert thawed.access(len(values)) == "http://after.thaw/"
        assert thawed.count("http://after.thaw/") == 1

    def test_thaw_keeps_the_parameters(self, url_log):
        frozen = freeze_trie(AppendOnlyWaveletTrie(url_log[:30]))
        assert thaw(frozen, AppendOnlyWaveletTrie, block_size=256)._block_size == 256
        dynamic = thaw(frozen, DynamicWaveletTrie, seed=7)
        assert dynamic._seed == 7
        dynamic.insert("http://inserted/", 3)
        assert dynamic.access(3) == "http://inserted/"

    @pytest.mark.parametrize("values", [[], ["only"] * 5])
    def test_thaw_of_a_trie_without_internal_nodes(self, values):
        thawed = thaw(freeze_trie(DynamicWaveletTrie(values)), DynamicWaveletTrie)
        assert thawed.to_list() == values
        thawed.append("other")
        assert thawed.to_list() == values + ["other"]
