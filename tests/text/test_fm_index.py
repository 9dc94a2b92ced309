"""Hypothesis differential suite for the FM-index.

Every query is cross-checked against the naive ``str`` oracle (``find``
loops over the original text), over both BWT node bitvector flavours and
every available kernel backend: the edge cases the issue named -- empty
pattern, pattern equal to the whole text, overlapping matches, absent
symbols, NUL-separator documents -- appear both as named regressions and
inside the property strategies.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import kernel
from repro.exceptions import OutOfBoundsError
from repro.text import FMIndex

BACKENDS = kernel.available_backends()
KINDS = ["plain", "rrr"]


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def naive_count(text, pattern):
    if not pattern:
        return len(text) + 1
    count = 0
    start = 0
    while True:
        found = text.find(pattern, start)
        if found < 0:
            return count
        count += 1
        start = found + 1


def naive_locate(text, pattern):
    positions = []
    start = 0
    while True:
        found = text.find(pattern, start)
        if found < 0:
            return positions
        positions.append(found)
        start = found + 1


def check_against_oracle(fm, text, patterns):
    for pattern in patterns:
        assert fm.count(pattern) == naive_count(text, pattern), pattern
        if pattern:
            assert fm.locate(pattern) == naive_locate(text, pattern), pattern
    assert fm.count_many(patterns) == [naive_count(text, p) for p in patterns]


# Small alphabets force overlapping matches; the NUL keeps the separator
# convention of the document store inside the fuzzed space.
TEXTS = st.text(alphabet="ab\x00", max_size=40) | st.text(max_size=25)


@pytest.mark.parametrize("kind", KINDS)
class TestFMIndexDifferential:
    @given(text=TEXTS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_locate_match_oracle(self, kind, text, data):
        fm = FMIndex(text, sa_sample=4, bitvector=kind)
        patterns = [""]
        if text:
            patterns.append(text)  # pattern == the whole text
            start = data.draw(st.integers(0, len(text) - 1))
            stop = data.draw(st.integers(start + 1, len(text)))
            patterns.append(text[start:stop])
        patterns += ["a", "aa", "ab", "\x00", "zzz"]  # incl. absent symbols
        check_against_oracle(fm, text, patterns)

    @given(text=TEXTS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_extract_matches_slicing(self, kind, text, data):
        fm = FMIndex(text, sa_sample=3, bitvector=kind)
        start = data.draw(st.integers(0, len(text)))
        stop = data.draw(st.integers(start, len(text)))
        assert fm.extract(start, stop) == text[start:stop]

    def test_overlapping_matches(self, kind):
        text = "aaaaaa"
        fm = FMIndex(text, sa_sample=2, bitvector=kind)
        assert fm.count("aa") == 5
        assert fm.locate("aaa") == [0, 1, 2, 3]

    def test_empty_text_and_empty_pattern(self, kind):
        fm = FMIndex("", bitvector=kind)
        assert fm.text_length == 0
        assert fm.count("") == 1  # the empty pattern matches at offset 0
        assert fm.count("a") == 0
        assert fm.extract(0, 0) == ""
        full = FMIndex("xyz", bitvector=kind)
        assert full.count("") == 4  # n + 1 offsets
        assert full.count("xyz") == 1 and full.locate("xyz") == [0]

    def test_nul_separated_documents(self, kind):
        text = "doc one\x00doc two\x00three"
        fm = FMIndex(text, sa_sample=4, bitvector=kind)
        assert fm.count("doc ") == 2
        assert fm.locate("\x00") == [7, 15]
        assert fm.count("one\x00doc") == 1  # patterns may span separators
        assert fm.extract(0, len(text)) == text

    def test_absent_symbols_and_type_errors(self, kind):
        fm = FMIndex("hello world", bitvector=kind)
        assert fm.count("Q") == 0 and fm.locate("Q") == []
        assert fm.count("hq") == 0  # present then absent character
        with pytest.raises(TypeError):
            fm.count(b"hello")
        with pytest.raises(TypeError):
            FMIndex(123)

    def test_extract_bounds(self, kind):
        fm = FMIndex("abcdef", sa_sample=4, bitvector=kind)
        with pytest.raises(OutOfBoundsError):
            fm.extract(0, 7)
        with pytest.raises(OutOfBoundsError):
            fm.extract(-1, 2)
        with pytest.raises(OutOfBoundsError):
            fm.extract(5, 2)

    def test_sa_sample_validation(self, kind):
        with pytest.raises(ValueError):
            FMIndex("abc", sa_sample=0, bitvector=kind)

    def test_scalar_and_batched_backward_search_agree(self, kind):
        text = "the quick brown fox jumps over the lazy dog" * 3
        fm = FMIndex(text, sa_sample=8, bitvector=kind)
        patterns = ["the", "fox", "o", " ", "zebra", text[:50], ""]
        for pattern in patterns:
            assert fm._interval(pattern) == fm._interval_scalar(pattern)
        assert fm.count_many(patterns) == [fm.count(p) for p in patterns]


def test_unknown_bitvector_kind_rejected():
    with pytest.raises(ValueError):
        FMIndex("abc", bitvector="gap")


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_build_identical_indexes(backend):
    """The numpy and python construction paths must agree query-for-query."""
    text = "mississippi\x00river runs\x00by mississippi banks"
    patterns = ["ssi", "is", "\x00", "river", "banks", "q", "mississippi"]
    with active_backend(backend):
        fm = FMIndex(text, sa_sample=4)
        check_against_oracle(fm, text, patterns)
        assert fm.extract(0, fm.text_length) == text


@pytest.mark.parametrize("backend", BACKENDS)
def test_sa_sample_is_pure_space_time_knob(backend):
    """Every sampling rate answers identically; only the size moves."""
    text = "abracadabra arcana " * 6
    with active_backend(backend):
        dense = FMIndex(text, sa_sample=1)
        default = FMIndex(text, sa_sample=32)
        sparse = FMIndex(text, sa_sample=512)
        for pattern in ["abra", "a", "cad", "nope", " arc"]:
            assert (
                dense.locate(pattern)
                == default.locate(pattern)
                == sparse.locate(pattern)
            )
        assert dense.size_in_bits() > sparse.size_in_bits()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_locate_above_the_small_batch_threshold(backend, kind):
    """Occurrence counts far past ``SMALL_BATCH`` take the batched LF walk
    (int64 arrays under numpy, lists under python); every sampling rate and
    both node flavours must still match the ``str.find`` oracle, and
    ``extract`` (one scalar ``inverse_select`` per character) must rebuild
    the text."""
    from repro.bits.kernel import SMALL_BATCH

    rng = random.Random(len(kind))
    text = "".join(rng.choice("abc") for _ in range(3_000)) + "\x00ab" * 40
    patterns = ["a", "ab", "abc", "ca", "\x00a", "cccc"]
    with active_backend(backend):
        for sa_sample in (1, 5, 32):
            fm = FMIndex(text, sa_sample=sa_sample, bitvector=kind)
            for pattern in patterns:
                expected = naive_locate(text, pattern)
                assert len(expected) > SMALL_BATCH or pattern == "cccc"
                assert fm.locate(pattern) == expected, (sa_sample, pattern)
        assert fm.extract(0, len(text)) == text
