"""Pair feature encoding.

DITTO feeds a serialized pair through a pre-trained transformer; the
offline substitute encodes the same serialized text with a hashing
vectorizer and augments it with per-record interaction features
(element-wise absolute difference and product of the two record vectors)
plus classic string-similarity scores.  The encoding is deterministic, so
independently trained per-intent matchers see the same raw features but
learn their own projections — the analogue of separate fine-tuning runs.

Two equivalent implementations coexist:

* :meth:`PairFeatureEncoder.encode_pair` / :meth:`~PairFeatureEncoder.encode_loop`
  — the scalar reference path, one pair at a time, calling the scalar
  :data:`~repro.text.similarity.SIMILARITY_FUNCTIONS` directly; and
* :meth:`PairFeatureEncoder.encode_batch` — the vectorized hot path,
  which memoizes per-record text/tokenization once per batch
  (:class:`~repro.text.memo.TextMemo`), hashes all texts through the
  vectorizer's CSR-style batch transform, and evaluates the similarity
  features with batched numpy kernels where exact ones exist.

The batched path is bit-identical to the reference on every feature (all
divergent-risk reductions are exact integer sums in float64), which the
equivalence tests assert on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.pairs import RecordPair
from ..data.records import Dataset
from ..data.serialization import (
    SerializationConfig,
    serialize_pair,
    serialize_pair_from_texts,
    serialize_record,
)
from ..text.memo import TextMemo
from ..text.similarity import (
    SIMILARITY_FUNCTIONS,
    jaccard_similarity,
    jaro_winkler_similarity_fast,
    levenshtein_similarities_batch,
)
from ..text.vectorizers import HashingVectorizer, HashingVectorizerConfig


@dataclass(frozen=True)
class PairFeatureConfig:
    """Configuration of :class:`PairFeatureEncoder`.

    Attributes
    ----------
    n_features:
        Buckets of the hashing vectorizer; each of the three hashed
        blocks (pair text, |left - right|, left * right) has this size.
    use_interaction_features:
        Include the element-wise difference/product blocks.
    use_similarity_features:
        Append the classic string-similarity scores.
    attributes:
        Record attributes serialized for matching; ``None`` uses all.
    """

    n_features: int = 256
    use_interaction_features: bool = True
    use_similarity_features: bool = True
    attributes: tuple[str, ...] | None = None

    @property
    def dimension(self) -> int:
        """Total dimensionality of the encoded pair feature vector."""
        dim = self.n_features
        if self.use_interaction_features:
            dim += 2 * self.n_features
        if self.use_similarity_features:
            dim += len(SIMILARITY_FUNCTIONS)
        return dim


class PairFeatureEncoder:
    """Encode candidate record pairs into dense feature vectors.

    Parameters
    ----------
    config:
        Feature layout configuration.
    """

    #: Entry caps of the persistent caches; each cache is cleared when it
    #: would exceed its bound, so a long-lived encoder on a stream of
    #: unique texts cannot grow without limit.
    JW_CACHE_MAX_ENTRIES = 1 << 16
    SIM_CACHE_MAX_ENTRIES = 1 << 20

    def __init__(self, config: PairFeatureConfig | None = None) -> None:
        self.config = config or PairFeatureConfig()
        vector_config = HashingVectorizerConfig(n_features=self.config.n_features)
        self._vectorizer = HashingVectorizer(vector_config)
        self._serialization = SerializationConfig(attributes=self.config.attributes)
        # Single-slot result cache: solvers encode the same candidate set
        # back to back (representations + likelihoods), so the last batch
        # is kept keyed by the dataset (strong reference, so its identity
        # stays valid) plus the pair id tuples.  Callers never mutate the
        # returned matrix (they wrap it in fresh Tensors), and records
        # are frozen, so cached rows cannot go stale.
        self._last_batch: tuple[Dataset, tuple, np.ndarray] | None = None
        # Per-dataset text memo reused across batches (records are frozen,
        # so memoized views cannot go stale), a persistent Jaro-Winkler
        # token-pair cache shared by all Monge-Elkan calls, and a
        # similarity-feature row cache keyed by pair ids (similarity
        # columns depend only on the two record texts).
        self._memo: TextMemo | None = None
        self._jw_cache: dict[tuple[str, str], float] = {}
        self._sim_cache: dict[tuple[str, str], np.ndarray] = {}
        #: Optional :class:`repro.exec.Executor` batch encodes shard
        #: over.  Runtime wiring (attached by the pipeline runner), not
        #: part of the feature configuration: sharded encoding is
        #: bit-identical to the single-batch path.
        self.executor = None

    @property
    def dimension(self) -> int:
        """Dimensionality of the produced feature vectors."""
        return self.config.dimension

    def encode_pair(self, dataset: Dataset, pair: RecordPair) -> np.ndarray:
        """Encode a single candidate pair (scalar reference path)."""
        left = dataset[pair.left_id]
        right = dataset[pair.right_id]
        left_text = left.text(self.config.attributes)
        right_text = right.text(self.config.attributes)

        blocks = [self._vectorizer.transform_one(serialize_pair(left, right, self._serialization))]
        if self.config.use_interaction_features:
            left_vector = self._vectorizer.transform_one(left_text)
            right_vector = self._vectorizer.transform_one(right_text)
            blocks.append(np.abs(left_vector - right_vector))
            blocks.append(left_vector * right_vector)
        if self.config.use_similarity_features:
            similarities = np.array(
                [fn(left_text, right_text) for fn in SIMILARITY_FUNCTIONS.values()],
                dtype=np.float64,
            )
            blocks.append(similarities)
        return np.concatenate(blocks)

    def encode(
        self, dataset: Dataset, pairs: list[RecordPair], one_shot: bool = False
    ) -> np.ndarray:
        """Encode a list of candidate pairs into a ``(n, dimension)`` matrix.

        ``one_shot=True`` marks a batch that will not recur, such as an
        online query's pairs: it goes straight to :meth:`encode_batch`,
        skipping the result cache and the executor, and its texts are
        looked up in the text cache but not inserted.
        """
        if not pairs:
            return np.zeros((0, self.dimension), dtype=np.float64)
        if one_shot:
            return self.encode_batch(dataset, pairs, cache_texts=False)
        pair_key = tuple(pair.as_tuple() for pair in pairs)
        if (
            self._last_batch is not None
            and self._last_batch[0] is dataset
            and self._last_batch[1] == pair_key
        ):
            return self._last_batch[2]
        if (
            self.executor is not None
            and getattr(self.executor, "is_parallel", False)
            and len(pairs) > 1
        ):
            # Each shard encodes on a fresh worker-side encoder; rows are
            # pair-independent, so stacking shard outputs is bit-identical
            # to one unsharded encode_batch call.
            from ..exec.stages import encode_pairs_sharded

            matrix = encode_pairs_sharded(self.config, dataset, pairs, self.executor)
        else:
            matrix = self.encode_batch(dataset, pairs)
        self._last_batch = (dataset, pair_key, matrix)
        return matrix

    def encode_loop(self, dataset: Dataset, pairs: list[RecordPair]) -> np.ndarray:
        """Reference implementation: one :meth:`encode_pair` per pair."""
        if not pairs:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.stack([self.encode_pair(dataset, pair) for pair in pairs], axis=0)

    # -------------------------------------------------------------- batched

    def encode_batch(
        self, dataset: Dataset, pairs: list[RecordPair], cache_texts: bool = True
    ) -> np.ndarray:
        """Vectorized batch encoding, bit-identical to :meth:`encode_loop`.

        With ``cache_texts=False`` the vectorizer's text cache is read
        but not written.
        """
        if not pairs:
            return np.zeros((0, self.dimension), dtype=np.float64)
        if self._memo is None or self._memo.dataset is not dataset:
            self._memo = TextMemo(dataset, self.config.attributes)
            self._serialized_cache: dict[str, str] = {}
            self._sim_cache.clear()
        memo = self._memo

        # Every distinct record is serialized and tokenized exactly once
        # per dataset, however many pairs (or batches) it appears in.
        record_ids = list(dict.fromkeys(rid for pair in pairs for rid in pair.as_tuple()))
        record_row = {rid: row for row, rid in enumerate(record_ids)}
        serialized = self._serialized_cache
        for rid in record_ids:
            if rid not in serialized:
                serialized[rid] = serialize_record(
                    dataset[rid], self._serialization.attributes, self._serialization.lowercase
                )
        pair_texts = [
            serialize_pair_from_texts(
                serialized[pair.left_id], serialized[pair.right_id], self._serialization
            )
            for pair in pairs
        ]

        blocks = [self._vectorizer.transform(pair_texts, cache_texts)]
        if self.config.use_interaction_features:
            record_matrix = self._vectorizer.transform(
                [memo.text(rid) for rid in record_ids], cache_texts
            )
            left_rows = np.fromiter(
                (record_row[pair.left_id] for pair in pairs), dtype=np.int64, count=len(pairs)
            )
            right_rows = np.fromiter(
                (record_row[pair.right_id] for pair in pairs), dtype=np.int64, count=len(pairs)
            )
            left_matrix = record_matrix[left_rows]
            right_matrix = record_matrix[right_rows]
            blocks.append(np.abs(left_matrix - right_matrix))
            blocks.append(left_matrix * right_matrix)
        if self.config.use_similarity_features:
            blocks.append(self._similarity_block(memo, pairs))
        return np.concatenate(blocks, axis=1)

    def _similarity_block(self, memo: TextMemo, pairs: list[RecordPair]) -> np.ndarray:
        """All similarity features for all pairs (rows cached per pair)."""
        cache = self._sim_cache
        missing = [pair for pair in pairs if pair.as_tuple() not in cache]
        if missing:
            if len(cache) + len(missing) > self.SIM_CACHE_MAX_ENTRIES:
                # Evicting invalidates rows needed by this very call, so
                # the whole batch is recomputed into the emptied cache.
                cache.clear()
                missing = list(pairs)
            if len(self._jw_cache) > self.JW_CACHE_MAX_ENTRIES:
                self._jw_cache.clear()
            rows = self._similarity_rows(memo, missing)
            for position, pair in enumerate(missing):
                cache[pair.as_tuple()] = rows[position]
        return np.stack([cache[pair.as_tuple()] for pair in pairs], axis=0)

    def _similarity_rows(self, memo: TextMemo, pairs: list[RecordPair]) -> np.ndarray:
        """Similarity features of uncached pairs, one column per measure."""
        n = len(pairs)
        left_texts = [memo.text(pair.left_id) for pair in pairs]
        right_texts = [memo.text(pair.right_id) for pair in pairs]
        jw_cache = self._jw_cache
        columns: list[np.ndarray] = []
        for name, fn in SIMILARITY_FUNCTIONS.items():
            if name == "levenshtein":
                column = levenshtein_similarities_batch(left_texts, right_texts)
            elif name == "token_jaccard":
                column = np.fromiter(
                    (
                        jaccard_similarity(
                            memo.token_set(pair.left_id), memo.token_set(pair.right_id)
                        )
                        for pair in pairs
                    ),
                    dtype=np.float64,
                    count=n,
                )
            elif name == "qgram_jaccard":
                column = np.fromiter(
                    (
                        jaccard_similarity(
                            memo.ngram_set(pair.left_id, 3), memo.ngram_set(pair.right_id, 3)
                        )
                        for pair in pairs
                    ),
                    dtype=np.float64,
                    count=n,
                )
            elif name == "cosine_tokens":
                column = np.fromiter(
                    (self._cosine_tokens(memo, pair) for pair in pairs),
                    dtype=np.float64,
                    count=n,
                )
            elif name == "monge_elkan":
                column = np.fromiter(
                    (self._monge_elkan(memo, pair, jw_cache) for pair in pairs),
                    dtype=np.float64,
                    count=n,
                )
            elif name == "jaro_winkler":
                column = np.fromiter(
                    (
                        jaro_winkler_similarity_fast(left, right)
                        for left, right in zip(left_texts, right_texts)
                    ),
                    dtype=np.float64,
                    count=n,
                )
            else:
                # Any future measure without a batched kernel falls back
                # to the scalar oracle per pair.
                column = np.fromiter(
                    (fn(left, right) for left, right in zip(left_texts, right_texts)),
                    dtype=np.float64,
                    count=n,
                )
            columns.append(column)
        return np.stack(columns, axis=1)

    @staticmethod
    def _cosine_tokens(memo: TextMemo, pair: RecordPair) -> float:
        """Memoized :func:`~repro.text.similarity.cosine_token_similarity`.

        The dot product is an exact integer sum, so iterating the smaller
        count mapping yields the identical float64 value.
        """
        left_counts = memo.token_counts(pair.left_id)
        right_counts = memo.token_counts(pair.right_id)
        if not left_counts and not right_counts:
            return 1.0
        if not left_counts or not right_counts:
            return 0.0
        if len(right_counts) < len(left_counts):
            left_counts, right_counts = right_counts, left_counts
        dot = sum(
            count * right_counts.get(token, 0) for token, count in left_counts.items()
        )
        left_norm = memo.token_norm(pair.left_id)
        right_norm = memo.token_norm(pair.right_id)
        if left_norm == 0 or right_norm == 0:
            return 0.0
        return dot / (left_norm * right_norm)

    @staticmethod
    def _monge_elkan(
        memo: TextMemo, pair: RecordPair, cache: dict[tuple[str, str], float]
    ) -> float:
        """Monge-Elkan with Jaro-Winkler memoized per distinct token pair.

        Jaro-Winkler is bounded by 1.0 and attains it exactly for equal
        strings, so a left token present among the right tokens scores
        ``best = 1.0`` without evaluating the inner maximum.
        """
        left_tokens = memo.tokens(pair.left_id)
        right_tokens = memo.tokens(pair.right_id)
        if not left_tokens or not right_tokens:
            return 1.0 if not left_tokens and not right_tokens else 0.0
        right_token_set = memo.token_set(pair.right_id)
        total = 0.0
        for left_token in left_tokens:
            if left_token in right_token_set:
                total += 1.0
                continue
            best = 0.0
            first = True
            for right_token in right_tokens:
                key = (left_token, right_token)
                value = cache.get(key)
                if value is None:
                    value = jaro_winkler_similarity_fast(left_token, right_token)
                    cache[key] = value
                if first or value > best:
                    best = value
                    first = False
            total += best
        return total / len(left_tokens)
