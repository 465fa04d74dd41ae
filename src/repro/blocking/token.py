"""Token-based blocking.

A standard alternative to the q-gram blocker: records are keyed by word
tokens, and pairs co-occurring in at least ``min_shared`` token blocks are
kept.  Used by the Walmart-Amazon-like generator to assemble candidate
pairs across the two sources.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..data.records import Record
from ..exceptions import BlockingError
from ..text.tokenize import word_tokens
from .base import KeyBlocker

#: Tokens too frequent to be discriminative for product titles.
DEFAULT_STOPWORDS = frozenset(
    {"the", "a", "an", "and", "of", "for", "with", "in", "on", "by", "to", "new"}
)


class TokenBlocker(KeyBlocker):
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
        Tokens indexing more than this many records are skipped;
        ``None`` disables the cap.
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
        super().__init__(min_shared, attributes, cross_source_only, max_block_size)
        if min_token_length <= 0:
            raise BlockingError("min_token_length must be positive")
        self.min_token_length = min_token_length
        self.stopwords = frozenset(stopwords)

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

    def record_keys(self, record: Record) -> frozenset[str]:
        """The record's distinct word tokens, without stopwords and short tokens."""
        # Filter the distinct-token set, not the token list: the key order,
        # and so the order of OversizedBlockWarnings, then follows the
        # order of ``TextMemo.token_set`` for the same text.
        return frozenset(
            token
            for token in frozenset(word_tokens(record.text(self.attributes)))
            if len(token) >= self.min_token_length and token not in self.stopwords
        )
