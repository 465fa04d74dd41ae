"""Per-record text memoization for pair-feature encoding.

Pair-feature encoding derives per-record views of the raw text —
serialized text, word tokens, token sets, character n-gram sets,
bag-of-token counts.  Computed naively these views are rebuilt once per
*pair*, i.e. ``O(|C|)`` redundant tokenizations for ``O(|D|)`` distinct
records.  :class:`TextMemo` scopes the derived views to one dataset pass
so every record is tokenized exactly once regardless of how many
candidate pairs it participates in.  (Blocking needs no memo: it keys
each record once, through ``KeyBlocker.record_keys``.)
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from ..data.records import Dataset, Record
from .ngrams import char_ngrams
from .tokenize import word_tokens


class TextMemo:
    """Memoized per-record text views over one dataset.

    Parameters
    ----------
    dataset:
        The dataset whose records are queried.
    attributes:
        Attributes included in the textual form (``None`` uses all), as
        in :meth:`~repro.data.records.Record.text`.
    """

    def __init__(self, dataset: Dataset, attributes: Iterable[str] | None = None) -> None:
        self.dataset = dataset
        self.attributes = tuple(attributes) if attributes is not None else None
        self._texts: dict[str, str] = {}
        self._tokens: dict[str, list[str]] = {}
        self._token_sets: dict[str, frozenset[str]] = {}
        self._ngram_sets: dict[int, dict[str, frozenset[str]]] = {}
        self._token_counts: dict[str, Counter] = {}
        self._token_norms: dict[str, float] = {}

    def _record(self, record_id: str) -> Record:
        return self.dataset[record_id]

    def text(self, record_id: str) -> str:
        """The record's concatenated text (memoized ``Record.text``)."""
        cached = self._texts.get(record_id)
        if cached is None:
            cached = self._record(record_id).text(self.attributes)
            self._texts[record_id] = cached
        return cached

    def tokens(self, record_id: str) -> list[str]:
        """Word tokens of the record text (memoized)."""
        cached = self._tokens.get(record_id)
        if cached is None:
            cached = word_tokens(self.text(record_id))
            self._tokens[record_id] = cached
        return cached

    def token_set(self, record_id: str) -> frozenset[str]:
        """Distinct word tokens of the record text (memoized)."""
        cached = self._token_sets.get(record_id)
        if cached is None:
            cached = frozenset(self.tokens(record_id))
            self._token_sets[record_id] = cached
        return cached

    def ngram_set(self, record_id: str, n: int) -> frozenset[str]:
        """Distinct character ``n``-grams of the record text (memoized)."""
        per_size = self._ngram_sets.setdefault(n, {})
        cached = per_size.get(record_id)
        if cached is None:
            cached = frozenset(char_ngrams(self.text(record_id), n))
            per_size[record_id] = cached
        return cached

    def token_counts(self, record_id: str) -> Counter:
        """Bag-of-token counts of the record text (memoized)."""
        cached = self._token_counts.get(record_id)
        if cached is None:
            cached = Counter(self.tokens(record_id))
            self._token_counts[record_id] = cached
        return cached

    def token_norm(self, record_id: str) -> float:
        """L2 norm of the bag-of-token count vector (memoized)."""
        cached = self._token_norms.get(record_id)
        if cached is None:
            counts = self.token_counts(record_id)
            cached = math.sqrt(sum(count * count for count in counts.values()))
            self._token_norms[record_id] = cached
        return cached
