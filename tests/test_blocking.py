"""Tests for the blocking phase (q-gram and token blockers, the block join)."""

from __future__ import annotations

import pytest

from repro.blocking import QGramBlocker, TokenBlocker, join_blocks
from repro.data.pairs import RecordPair
from repro.data.records import Dataset, Record
from repro.exceptions import BlockingError
from repro.registry import BLOCKERS
from repro.retrieval import BlockerRetriever


class TestQGramBlocker:
    def test_duplicate_titles_survive_blocking(self, toy_dataset):
        pairs = QGramBlocker(q=4).block(toy_dataset)
        assert RecordPair("r1", "r2") in pairs

    def test_unrelated_records_do_not_survive(self, toy_dataset):
        pairs = QGramBlocker(q=4, min_shared=3).block(toy_dataset)
        assert RecordPair("r1", "r6") not in pairs

    def test_no_self_pairs_and_no_duplicates(self, toy_dataset):
        pairs = QGramBlocker(q=4).block(toy_dataset)
        assert len(pairs) == len(set(pairs))
        assert all(pair.left_id != pair.right_id for pair in pairs)

    def test_min_shared_monotonicity(self, toy_dataset):
        loose = set(QGramBlocker(q=4, min_shared=1).block(toy_dataset))
        strict = set(QGramBlocker(q=4, min_shared=5).block(toy_dataset))
        assert strict <= loose

    def test_cross_source_only(self):
        records = [
            Record("w1", {"title": "nike air max running shoe"}, source="walmart"),
            Record("a1", {"title": "nike air max running shoe"}, source="amazon"),
            Record("a2", {"title": "nike air max running shoes men"}, source="amazon"),
        ]
        dataset = Dataset(records=records)
        pairs = QGramBlocker(q=4, cross_source_only=True).block(dataset)
        assert RecordPair("a1", "a2") not in pairs
        assert RecordPair("w1", "a1") in pairs

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BlockingError):
            QGramBlocker(q=0)
        with pytest.raises(BlockingError):
            QGramBlocker(min_shared=0)
        for max_block_size in (1, 0, -3):
            with pytest.raises(BlockingError, match="max_block_size must exceed 1"):
                QGramBlocker(max_block_size=max_block_size)

    def test_max_block_size_prunes_stop_grams(self):
        records = [
            Record(f"r{i}", {"title": f"common prefix text item {i}"}) for i in range(12)
        ]
        dataset = Dataset(records=records)
        unlimited = QGramBlocker(q=4, max_block_size=None).block(dataset)
        limited = QGramBlocker(q=4, max_block_size=5).block(dataset)
        assert len(limited) <= len(unlimited)


class TestTokenBlocker:
    def test_shared_tokens_create_pairs(self, toy_dataset):
        pairs = TokenBlocker(min_shared=2).block(toy_dataset)
        assert RecordPair("r1", "r2") in pairs

    def test_stopwords_are_ignored(self):
        records = [
            Record("r1", {"title": "the new shoe for the season"}),
            Record("r2", {"title": "the new watch for the season"}),
        ]
        dataset = Dataset(records=records)
        pairs = TokenBlocker(min_shared=3).block(dataset)
        # "the", "new", "for" are stopwords; only "season" is shared.
        assert pairs == []

    def test_min_token_length_filters_short_tokens(self):
        records = [
            Record("r1", {"title": "ab cd nike"}),
            Record("r2", {"title": "ab cd adidas"}),
        ]
        dataset = Dataset(records=records)
        assert TokenBlocker(min_shared=1, min_token_length=3).block(dataset) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BlockingError):
            TokenBlocker(min_shared=0)
        with pytest.raises(BlockingError):
            TokenBlocker(min_token_length=0)
        for max_block_size in (1, 0, -3):
            with pytest.raises(BlockingError, match="max_block_size must exceed 1"):
                TokenBlocker(max_block_size=max_block_size)


@pytest.mark.parametrize("blocker", ["qgram", "token"])
def test_string_attributes_are_rejected(blocker, toy_dataset):
    # tuple("title") would name the attributes "t", "i", "t", "l", "e",
    # which no record has: nothing would be blocked.
    with pytest.raises(BlockingError, match="attributes"):
        BLOCKERS.create({"type": blocker, "attributes": "title"})
    with pytest.raises(BlockingError, match="attributes"):
        BlockerRetriever(blocker={"type": blocker, "attributes": "title"})
    listed = BLOCKERS.create({"type": blocker, "attributes": ["title"], "min_shared": 1})
    assert listed.block(toy_dataset)


class TestJoinBlocks:
    def test_min_shared_accumulates_across_blocks(self, toy_dataset):
        # A pair's shared count sums over every block it co-occurs in.
        blocks = {
            "k1": ["r1", "r2"],
            "k2": ["r1", "r2", "r3"],
            "k3": ["r2", "r3"],
            "k4": ["r1", "r2", "r4"],
        }
        pairs, stats = join_blocks(toy_dataset, blocks, 2, False, None)
        assert [pair.as_tuple() for pair in pairs] == [("r1", "r2"), ("r2", "r3")]
        assert (stats.num_blocks, stats.num_block_pairs, stats.num_candidate_pairs) == (4, 8, 2)


class TestFullBlocker:
    def test_emits_every_admissible_pair(self, toy_dataset):
        from repro.blocking import FullBlocker

        pairs = FullBlocker().block(toy_dataset)
        n = len(toy_dataset)
        assert len(pairs) == n * (n - 1) // 2
        assert len(pairs) == len(set(pairs))
        assert pairs == sorted(pairs)

    def test_cross_source_only_restricts_pairs(self):
        from repro.blocking import FullBlocker

        records = [
            Record("w1", {"title": "x"}, source="walmart"),
            Record("a1", {"title": "x"}, source="amazon"),
            Record("a2", {"title": "y"}, source="amazon"),
        ]
        dataset = Dataset(records=records)
        pairs = FullBlocker(cross_source_only=True).block(dataset)
        assert set(pairs) == {RecordPair("a1", "w1"), RecordPair("a2", "w1")}

    def test_max_records_guard(self, toy_dataset):
        from repro.blocking import FullBlocker

        with pytest.raises(BlockingError):
            FullBlocker(max_records=3).block(toy_dataset)
        with pytest.raises(BlockingError):
            FullBlocker(max_records=1)
