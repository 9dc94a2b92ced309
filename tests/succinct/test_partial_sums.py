"""Tests for the Elias-Fano backed static partial sums."""

import pytest

from repro.exceptions import OutOfBoundsError
from repro.succinct import StaticPartialSums


class TestStaticPartialSums:
    def test_start_length_find(self):
        sums = StaticPartialSums([5, 0, 3, 7])
        assert len(sums) == 4
        assert sums.total == 15
        assert [sums.start(i) for i in range(5)] == [0, 5, 5, 8, 15]
        assert sums.length(2) == 3
        assert sums.find(0) == 0
        assert sums.find(4) == 0
        assert sums.find(5) == 2  # the zero-length piece 1 cannot own offsets
        assert sums.find(7) == 2
        assert sums.find(8) == 3
        assert sums.find(14) == 3
        with pytest.raises(OutOfBoundsError):
            sums.find(15)

    def test_empty(self):
        sums = StaticPartialSums([])
        assert len(sums) == 0
        assert sums.total == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StaticPartialSums([3, -1])
