"""Full-text search costs as exact call counts.

The FM-index's BWT tree keeps its node bits in one shared vector, so a
batch descent moves every item down one depth per call on that vector,
whichever node each item is at.  A counting wrapper sits in front of the
shared vector (and of the marked-rows vector) and pins two bounds, in the
style of ``tests/core/test_paper_costs.py``:

* one ``inverse_select_many`` batch (an LF step) and one ``count_many``
  backward step make at most ``height`` shared-vector calls, whatever the
  alphabet (sigma = 4, 40 and 200 here);
* every LF step of ``locate`` adds exactly one marked-row call, over the
  ``q`` live rows (not ``rows ++ rows + 1``).
"""

import contextlib
import random
from collections import Counter

import pytest

from repro.bits import kernel
from repro.text import FMIndex

BACKENDS = kernel.available_backends()
SIGMAS = (4, 40, 200)


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
        self.items = Counter()

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)

        def counted(*args):
            self.calls[name] += 1
            if name.endswith("_many"):
                self.items[name] += len(args[-1])
            return attribute(*args)

        return counted


def text_over(sigma, seed=1):
    """A skewed text whose BWT has ``sigma`` symbols (the terminator too)."""
    rng = random.Random(seed)
    alphabet = [chr(0x41 + rank) for rank in range(sigma - 1)]
    weights = [1.0 / (rank + 1) for rank in range(sigma - 1)]
    return "".join(alphabet) + "".join(rng.choices(alphabet, weights, k=4_000))


def counted_index(text, kind):
    fm = FMIndex(text, sa_sample=8, bitvector=kind)
    shared = CountingVector(fm._bwt._shared)
    fm._bwt._shared = shared
    marked = CountingVector(fm._marked)
    fm._marked = marked
    return fm, shared, marked


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["plain", "rrr"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_one_lf_step_is_at_most_height_calls(backend, kind, sigma):
    fm, shared, _ = counted_index(text_over(sigma), kind)
    tree = fm._bwt
    assert len(tree.codes) == sigma
    rows = list(range(0, len(tree), 3))
    with active_backend(backend):
        for batch in (rows, rows[:5]):
            shared.calls.clear()
            symbols, ranks = tree.inverse_select_many(batch)
            assert set(shared.calls) == {"access_rank_many"}
            assert 1 <= shared.calls["access_rank_many"] <= tree.height
            assert [tree.rank(s, p) for s, p in zip(symbols, batch)] == list(ranks)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["plain", "rrr"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_one_backward_step_is_at_most_height_calls(backend, kind, sigma):
    text = text_over(sigma)
    fm, shared, _ = counted_index(text, kind)
    height = fm._bwt.height
    # One-character patterns take exactly one backward step each.
    patterns = sorted(set(text))
    with active_backend(backend):
        shared.calls.clear()
        assert fm.count_many(patterns) == [text.count(p) for p in patterns]
        assert set(shared.calls) == {"rank_many"}
        assert shared.calls["rank_many"] == height
        # Longer patterns: at most height calls per step.
        rng = random.Random(sigma)
        starts = [rng.randrange(len(text) - 6) for _ in range(40)]
        longer = [text[start : start + 6] for start in starts]
        expected = [fm.count(p) for p in longer]
        shared.calls.clear()
        assert fm.count_many(longer) == expected
        assert shared.calls["rank_many"] <= 6 * height


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["plain", "rrr"])
def test_every_lf_step_adds_one_marked_row_call(backend, kind):
    text = text_over(40)
    fm, shared, marked = counted_index(text, kind)
    tree = fm._bwt
    steps = CountingVector(tree)
    fm._bwt = steps
    with active_backend(backend):
        for pattern in ["A", "AB", "BA", "C", text[100:104]]:
            marked.calls.clear()
            marked.items.clear()
            steps.calls.clear()
            steps.items.clear()
            expected = [i for i in range(len(text)) if text.startswith(pattern, i)]
            assert fm.locate(pattern) == expected
            lf_steps = steps.calls["inverse_select_many"]
            assert set(marked.calls) == {"access_rank_many"}
            # One check of the matched rows, then one per LF step.
            assert marked.calls["access_rank_many"] == lf_steps + 1
            assert lf_steps <= fm.sa_sample - 1
            assert marked.items["access_rank_many"] == (
                len(expected) + steps.items["inverse_select_many"]
            )
