"""Shared q-gram blocker.

The paper's AmazonMI benchmark keeps record pairs that share at least one
character 4-gram (Section 5.1, following the Magellan blocker), and the
WDC cross-category expansion uses the same rule.  This blocker builds an
inverted index from q-grams to records and emits pairs co-occurring in at
least ``min_shared`` postings lists.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..data.pairs import RecordPair
from ..data.records import Dataset
from ..exceptions import BlockingError
from ..text.memo import TextMemo
from .base import Blocker, BlockingStats, join_blocks


class QGramBlocker(Blocker):
    """Keep pairs of records sharing at least ``min_shared`` character q-grams.

    Parameters
    ----------
    q:
        Gram length (4 in the paper).
    min_shared:
        Minimum number of distinct shared q-grams required to keep a pair.
    attributes:
        Attributes whose text participates in blocking; defaults to all.
    cross_source_only:
        Restrict pairs to records from different sources (clean-clean).
    max_block_size:
        Q-grams indexing more than this many records are skipped (they
        behave as stop-grams and would otherwise produce a quadratic
        blow-up); ``None`` disables the cap.
    """

    spec_type = "qgram"

    def __init__(
        self,
        q: int = 4,
        min_shared: int = 1,
        attributes: Iterable[str] | None = None,
        cross_source_only: bool = False,
        max_block_size: int | None = 200,
    ) -> None:
        if q <= 0:
            raise BlockingError("q must be positive")
        if min_shared <= 0:
            raise BlockingError("min_shared must be positive")
        if max_block_size is not None and max_block_size <= 1:
            raise BlockingError("max_block_size must exceed 1 when given")
        self.q = q
        self.min_shared = min_shared
        self.attributes = tuple(attributes) if attributes is not None else None
        self.cross_source_only = cross_source_only
        self.max_block_size = max_block_size
        #: Statistics of the most recent :meth:`block` run.
        self.last_stats = BlockingStats()
        #: Optional :class:`repro.exec.Executor` the co-occurrence join
        #: shards over.  Runtime wiring (attached by the resolver), not
        #: part of the spec: executors never change blocking results.
        self.executor = None

    def to_spec(self) -> dict[str, object]:
        """Serialize the blocker configuration into a registry spec."""
        return {
            "type": self.spec_type,
            "params": {
                "q": self.q,
                "min_shared": self.min_shared,
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "cross_source_only": self.cross_source_only,
                "max_block_size": self.max_block_size,
            },
        }

    def _index(self, dataset: Dataset) -> dict[str, list[str]]:
        """Inverted index from q-grams to record ids (text memoized per record)."""
        memo = TextMemo(dataset, self.attributes)
        index: dict[str, list[str]] = defaultdict(list)
        for record in dataset:
            for gram in memo.ngram_set(record.record_id, self.q):
                index[gram].append(record.record_id)
        return index

    def block(self, dataset: Dataset) -> list[RecordPair]:
        """Return the candidate pairs sharing at least ``min_shared`` q-grams.

        The co-occurrence join runs vectorized (see
        :func:`repro.blocking.base.join_blocks`); statistics of the run —
        including blocks skipped by the ``max_block_size`` guard — are
        kept in :attr:`last_stats`.
        """
        pairs, stats = join_blocks(
            dataset,
            self._index(dataset),
            min_shared=self.min_shared,
            cross_source_only=self.cross_source_only,
            max_block_size=self.max_block_size,
            executor=self.executor,
        )
        self.last_stats: BlockingStats = stats
        return pairs

    def block_loop(self, dataset: Dataset) -> list[RecordPair]:
        """Reference implementation materializing the shared-count pair dict."""
        index = self._index(dataset)
        shared_counts: dict[tuple[str, str], int] = defaultdict(int)
        num_oversized = 0
        num_block_pairs = 0
        for _, record_ids in index.items():
            if self.max_block_size is not None and len(record_ids) > self.max_block_size:
                num_oversized += 1
                continue
            record_ids = sorted(set(record_ids))
            for i, left_id in enumerate(record_ids):
                for right_id in record_ids[i + 1 :]:
                    num_block_pairs += 1
                    if not self.allow_pair(dataset, left_id, right_id, self.cross_source_only):
                        continue
                    shared_counts[(left_id, right_id)] += 1

        pairs = [
            RecordPair(left_id, right_id)
            for (left_id, right_id), count in shared_counts.items()
            if count >= self.min_shared
        ]
        pairs.sort()
        self.last_stats = BlockingStats(
            num_blocks=len(index),
            num_oversized_blocks=num_oversized,
            num_block_pairs=num_block_pairs,
            num_candidate_pairs=len(pairs),
        )
        return pairs
