"""Tests for repro.core.buffer (GRECA's candidate buffer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer import BufferedItem, ColumnarCandidateBuffer, select_top_k
from repro.core.greca import STOP_BUFFER, STOP_THRESHOLD, Greca
from repro.core.lists import repr_tie_break_ranks
from repro.exceptions import AlgorithmError


def bound_columns(buffer):
    """A buffer's items as the bound and tie-break columns GRECA keeps."""
    entries = list(buffer)
    lower = np.array([entry.lower for entry in entries])
    upper = np.array([entry.upper for entry in entries])
    return lower, upper, repr_tie_break_ranks([entry.item for entry in entries])


def stop_reason(buffer, k):
    """GRECA's stopping check over every buffered item, no unseen items left."""
    lower, upper, ranks = bound_columns(buffer)
    buffered = np.ones(len(lower), dtype=bool)
    return Greca._check_stop(lower, upper, 1.0, buffered, k, False, ranks)


class TestBufferedItem:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(AlgorithmError):
            BufferedItem("x", 2.0, 1.0)


class TestCandidateBuffer:
    @pytest.fixture()
    def buffer(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update("a", 0.8, 0.9)
        buffer.update("b", 0.5, 0.95)
        buffer.update("c", 0.4, 0.6)
        buffer.update("d", 0.1, 0.3)
        return buffer

    def test_len_contains_get(self, buffer):
        assert len(buffer) == 4
        assert "a" in buffer and "z" not in buffer
        assert buffer.get("c").upper == 0.6
        assert buffer.get("z") is None

    def test_update_refreshes_bounds(self, buffer):
        buffer.update("a", 0.85, 0.88)
        assert buffer.get("a").lower == 0.85
        assert len(buffer) == 4

    def test_update_many_and_remove(self, buffer):
        buffer.update_many({"e": (0.2, 0.25), "f": (0.0, 0.05)})
        assert len(buffer) == 6
        buffer.remove(["e", "f", "not-there"])
        assert len(buffer) == 4

    def test_ranked_by_lower_bound(self, buffer):
        ranked = [entry.item for entry in buffer.ranked_by_lower_bound()]
        assert ranked == ["a", "b", "c", "d"]

    def test_top_k_and_kth_lower_bound(self, buffer):
        top = buffer.top_k(2)
        assert [entry.item for entry in top] == ["a", "b"]
        lower, upper, ranks = bound_columns(buffer)
        assert lower[select_top_k(lower, ranks, 2)[-1]] == 0.5
        assert len(select_top_k(lower, ranks, 10)) == 4  # fewer than k items
        with pytest.raises(AlgorithmError):
            buffer.top_k(0)

    def test_buffer_condition_not_met_when_other_upper_bound_higher(self, buffer):
        # kth (k=1) lower bound is 0.8 but item b can still reach 0.95.
        assert stop_reason(buffer, 1) is None

    def test_buffer_condition_met_after_tightening(self, buffer):
        buffer.update("b", 0.5, 0.75)
        assert stop_reason(buffer, 1) == STOP_BUFFER

    def test_buffer_condition_with_exactly_k_items(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update("a", 0.3, 0.9)
        buffer.update("b", 0.2, 0.8)
        assert stop_reason(buffer, 2) == STOP_THRESHOLD  # nothing left to prune
        assert stop_reason(buffer, 3) is None  # fewer than k items

    def test_max_upper_bound_outside_top_k(self, buffer):
        # Outside the top 1, item b's upper bound 0.95 is the largest: the
        # check passes only once the k-th lower bound reaches it.
        buffer.update("a", 0.95, 0.99)
        assert stop_reason(buffer, 1) == STOP_BUFFER
        buffer.update("a", 0.9499, 0.99)
        assert stop_reason(buffer, 1) is None
        assert stop_reason(buffer, 4) == STOP_THRESHOLD  # no item outside the top 4

    def test_stop_check_tests_the_item_the_answer_leaves_out(self):
        """Lower bounds tied across rank k: the excluded tie is the one tested."""
        buffer = ColumnarCandidateBuffer()
        buffer.update("a", 0.5, 0.5)
        buffer.update("c", 0.4, 0.45)
        buffer.update("b", 0.4, 0.4)  # ranks before "c" by repr, so "c" is left out
        assert [entry.item for entry in buffer.top_k(2)] == ["a", "b"]
        assert stop_reason(buffer, 2) is None  # c may still reach 0.45 > 0.4
        buffer.update("c", 0.4, 0.4)
        assert stop_reason(buffer, 2) == STOP_BUFFER

    def test_tie_breaking_is_deterministic(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update(2, 0.5, 0.6)
        buffer.update(1, 0.5, 0.6)
        ranked = [entry.item for entry in buffer.ranked_by_lower_bound()]
        assert ranked == sorted(ranked, key=repr)
