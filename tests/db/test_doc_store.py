"""Differential tests for the FM-index-backed document store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import DocumentStore
from repro.exceptions import OutOfBoundsError
from repro.storage import dumps, loads


def naive_locate(documents, pattern):
    matches = []
    for doc, document in enumerate(documents):
        start = 0
        while True:
            found = document.find(pattern, start)
            if found < 0:
                break
            matches.append((doc, found))
            start = found + 1
    return matches


DOCS = st.lists(st.text(alphabet="abc ", max_size=12), max_size=8)


class TestDocumentStore:
    def test_document_roundtrip(self):
        documents = ["alpha", "", "beta gamma", "alpha"]
        store = DocumentStore(documents, sa_sample=4)
        assert len(store) == 4
        assert [store.document(i) for i in range(4)] == documents
        with pytest.raises(OutOfBoundsError):
            store.document(4)
        with pytest.raises(OutOfBoundsError):
            store.document(-1)

    def test_count_and_locate_against_oracle(self):
        documents = ["the quick fox", "lazy dog", "", "foxtrot the fox"]
        store = DocumentStore(documents, sa_sample=4)
        for pattern in ["the", "fox", "o", "zebra", "lazy dog", " "]:
            expected = naive_locate(documents, pattern)
            assert store.count(pattern) == len(expected)
            assert store.locate(pattern) == expected
        assert store.count_many(["the", "fox", "zebra"]) == [2, 3, 0]
        assert store.count_in_document(3, "fox") == 2
        assert store.locate_in_document(3, "fox") == [0, 12]
        with pytest.raises(OutOfBoundsError):
            store.count_in_document(9, "fox")

    @given(documents=DOCS, pattern=st.text(alphabet="abc ", min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, documents, pattern):
        store = DocumentStore(documents, sa_sample=3)
        expected = naive_locate(documents, pattern)
        assert store.count(pattern) == len(expected)
        assert store.locate(pattern) == expected
        for doc, document in enumerate(documents):
            assert store.document(doc) == document

    def test_matches_never_cross_document_boundaries(self):
        # "endstart" spans the join of the two documents; the separator
        # keeps it from matching.
        store = DocumentStore(["the end", "start here"], sa_sample=4)
        assert store.count("endstart") == 0
        assert store.count("end") == 1 and store.count("start") == 1

    def test_pattern_validation(self):
        store = DocumentStore(["abc"])
        with pytest.raises(ValueError):
            store.count("")
        with pytest.raises(ValueError):
            store.locate("a\x00b")
        with pytest.raises(TypeError):
            store.count(7)

    def test_nul_documents_rejected(self):
        with pytest.raises(ValueError):
            DocumentStore(["fine", "bad\x00doc"])

    def test_empty_store(self):
        store = DocumentStore([])
        assert len(store) == 0
        assert store.count("x") == 0 and store.locate("x") == []
        assert store.size_in_bits() >= 0

    @pytest.mark.parametrize("kind", ["plain", "rrr"])
    def test_serialization_roundtrip(self, kind):
        documents = ["alpha beta", "", "beta gamma", "gamma alpha"]
        store = DocumentStore(documents, sa_sample=8, bitvector=kind)
        loaded = loads(dumps(store))
        assert isinstance(loaded, DocumentStore)
        assert len(loaded) == len(store)
        assert [loaded.document(i) for i in range(4)] == documents
        for pattern in ["beta", "gamma", "zz", " "]:
            assert loaded.locate(pattern) == store.locate(pattern)
        assert loaded.fm_index.bitvector_kind == kind
        assert loaded.fm_index.sa_sample == 8
