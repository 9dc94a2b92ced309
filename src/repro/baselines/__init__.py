"""Related-work baselines for indexed sequences of strings.

The paper's introduction (and "Related work") lists the three ways indexed
string sequences are stored today; each is implemented here so the tests can
compare them with the Wavelet Trie on the same workloads
(``TestCrossImplementationAgreement`` for answers,
``test_space_ranking_of_approaches`` for space):

1. :class:`~repro.baselines.dict_wavelet.DictWaveletSequence` -- map the
   strings to integers through a dictionary and index the integer sequence
   with a Wavelet Tree (static alphabet; SelectPrefix only by a binary
   search over RankPrefix);
2. :class:`~repro.baselines.text_collection.TextCollectionSequence` -- the
   "Dynamic Text Collection" style: concatenate the strings with separators
   and compress the resulting text (character-level entropy only);
3. :class:`~repro.baselines.btree_index.BTreeSequenceIndex` -- the database
   index style: a B-tree over ``(string, position)`` pairs plus an explicit
   copy of the sequence for Access.

:class:`~repro.baselines.naive.NaiveIndexedSequence` is the uncompressed
oracle used by the tests to cross-check every other implementation.
"""

from repro.baselines.btree_index import BTreeSequenceIndex
from repro.baselines.dict_wavelet import DictWaveletSequence
from repro.baselines.naive import NaiveIndexedSequence
from repro.baselines.text_collection import TextCollectionSequence

__all__ = [
    "BTreeSequenceIndex",
    "DictWaveletSequence",
    "NaiveIndexedSequence",
    "TextCollectionSequence",
]
