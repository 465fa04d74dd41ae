"""Token-based blocking.

A standard alternative to the q-gram blocker: records are keyed by word
tokens, and pairs co-occurring in at least ``min_shared`` token blocks are
kept.  Used by the Walmart-Amazon-like generator to assemble candidate
pairs across the two sources.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..data.pairs import RecordPair
from ..data.records import Dataset
from ..exceptions import BlockingError
from ..text.memo import TextMemo
from .base import Blocker, BlockingStats, join_blocks

#: Tokens too frequent to be discriminative for product titles.
DEFAULT_STOPWORDS = frozenset(
    {"the", "a", "an", "and", "of", "for", "with", "in", "on", "by", "to", "new"}
)


class TokenBlocker(Blocker):
    """Keep pairs of records sharing at least ``min_shared`` word tokens.

    Parameters
    ----------
    min_shared:
        Minimum number of shared (non-stopword) tokens.
    min_token_length:
        Tokens shorter than this are ignored.
    attributes:
        Attributes whose text participates in blocking; defaults to all.
    cross_source_only:
        Restrict pairs to records from different sources (clean-clean).
    max_block_size:
        Tokens indexing more than this many records are skipped.
    stopwords:
        Tokens never used as blocking keys (any iterable of strings).
    """

    spec_type = "token"

    def __init__(
        self,
        min_shared: int = 2,
        min_token_length: int = 3,
        attributes: Iterable[str] | None = None,
        cross_source_only: bool = False,
        max_block_size: int | None = 200,
        stopwords: Iterable[str] = DEFAULT_STOPWORDS,
    ) -> None:
        if min_shared <= 0:
            raise BlockingError("min_shared must be positive")
        if min_token_length <= 0:
            raise BlockingError("min_token_length must be positive")
        self.min_shared = min_shared
        self.min_token_length = min_token_length
        self.attributes = tuple(attributes) if attributes is not None else None
        self.cross_source_only = cross_source_only
        self.max_block_size = max_block_size
        self.stopwords = frozenset(stopwords)
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
                "min_shared": self.min_shared,
                "min_token_length": self.min_token_length,
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "cross_source_only": self.cross_source_only,
                "max_block_size": self.max_block_size,
                "stopwords": sorted(self.stopwords),
            },
        }

    def _keys(self, tokens: Iterable[str]) -> set[str]:
        return {
            token
            for token in tokens
            if len(token) >= self.min_token_length and token not in self.stopwords
        }

    def _index(self, dataset: Dataset) -> dict[str, list[str]]:
        """Inverted index from tokens to record ids (tokenized once per record)."""
        memo = TextMemo(dataset, self.attributes)
        index: dict[str, list[str]] = defaultdict(list)
        for record in dataset:
            for key in self._keys(memo.token_set(record.record_id)):
                index[key].append(record.record_id)
        return index

    def block(self, dataset: Dataset) -> list[RecordPair]:
        """Return candidate pairs sharing at least ``min_shared`` tokens.

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
        self.last_stats = stats
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
