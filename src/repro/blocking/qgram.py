"""Shared q-gram blocker.

The paper's AmazonMI benchmark keeps record pairs that share at least one
character 4-gram (Section 5.1, following the Magellan blocker), and the
WDC cross-category expansion uses the same rule.  This blocker keys each
record by its distinct character q-grams and emits pairs co-occurring in
at least ``min_shared`` postings lists.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..data.records import Record
from ..exceptions import BlockingError
from ..text.ngrams import char_ngrams
from .base import KeyBlocker


class QGramBlocker(KeyBlocker):
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
        super().__init__(min_shared, attributes, cross_source_only, max_block_size)
        self.q = q

    # Defined in this class's own namespace, not only inherited: tracing
    # tools (the repository benchmark's tracer among them) wrap
    # ``QGramBlocker.block`` by name and look it up in this class alone.
    block = KeyBlocker.block

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

    def record_keys(self, record: Record) -> frozenset[str]:
        """The record's distinct character q-grams."""
        return frozenset(char_ngrams(record.text(self.attributes), self.q))
