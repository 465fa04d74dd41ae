"""Text vectorizers: hashed n-gram features and TF-IDF.

These vectorizers replace DITTO's pre-trained sub-word encoder in the
offline reproduction.  The hashing vectorizer maps character n-grams and
word tokens into a fixed-size feature space without a vocabulary pass,
which keeps per-intent matchers independent (each matcher learns its own
projection of the same raw features, mimicking separate fine-tuning runs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from .ngrams import char_ngrams
from .tokenize import normalize, word_tokens


def _stable_hash(token: str, salt: str = "") -> int:
    """Deterministic 64-bit hash of a token (stable across processes)."""
    digest = hashlib.blake2b(f"{salt}:{token}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class HashingVectorizerConfig:
    """Configuration of :class:`HashingVectorizer`."""

    n_features: int = 512
    char_ngram_sizes: tuple[int, ...] = (3, 4)
    use_word_tokens: bool = True
    signed: bool = True
    normalize: bool = True
    salt: str = ""

    def __post_init__(self) -> None:
        if self.n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        if not self.char_ngram_sizes and not self.use_word_tokens:
            raise ConfigurationError(
                "at least one of char_ngram_sizes / use_word_tokens must be enabled"
            )
        if any(n <= 0 for n in self.char_ngram_sizes):
            raise ConfigurationError("char n-gram sizes must be positive")


class HashingVectorizer:
    """Stateless feature hashing of character n-grams and word tokens.

    Tokens are hashed into ``n_features`` buckets; the sign of a second
    hash reduces collisions' bias (signed hashing trick).  No fitting is
    required, so the vectorizer can encode unseen text deterministically.
    """

    #: Entry caps of the memoization caches; each cache is cleared when
    #: it exceeds its bound (unbounded growth would leak on streams of
    #: unique texts).  Cleared entries are recomputed deterministically.
    TEXT_CACHE_MAX_ENTRIES = 65536
    BUCKET_CACHE_MAX_ENTRIES = 1 << 20

    def __init__(self, config: HashingVectorizerConfig | None = None) -> None:
        self.config = config or HashingVectorizerConfig()
        # token -> (bucket index, sign); blake2b digests are the dominant
        # cost of hashing, and real corpora reuse tokens heavily across
        # records and pairs, so each distinct token is digested once per
        # vectorizer lifetime.
        self._bucket_cache: dict[str, tuple[int, float]] = {}
        # text -> (bucket indices, signs) arrays; texts recur across
        # batches (record texts in every encode, train-pair texts in the
        # representation pass), and a cached text skips tokenization and
        # the per-token loop entirely.
        self._text_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _tokens(self, text: str) -> list[str]:
        tokens: list[str] = []
        for size in self.config.char_ngram_sizes:
            tokens.extend(f"c{size}:{gram}" for gram in char_ngrams(text, size))
        if self.config.use_word_tokens:
            tokens.extend(f"w:{token}" for token in word_tokens(text))
        return tokens

    def _bucket(self, token: str) -> tuple[int, float]:
        """Bucket index and sign of ``token`` (memoized)."""
        cached = self._bucket_cache.get(token)
        if cached is None:
            cached = self._bucket_uncached(token)
            self._bucket_cache[token] = cached
        return cached

    def _bucket_uncached(self, token: str) -> tuple[int, float]:
        hashed = _stable_hash(token, self.config.salt)
        index = hashed % self.config.n_features
        if self.config.signed:
            sign = 1.0 if (hashed >> 32) % 2 == 0 else -1.0
        else:
            sign = 1.0
        return (index, sign)

    def transform_one(self, text: str) -> np.ndarray:
        """Encode a single string into a dense feature vector."""
        vector = np.zeros(self.config.n_features, dtype=np.float64)
        for token in self._tokens(text):
            index, sign = self._bucket(token)
            vector[index] += sign
        if self.config.normalize:
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector /= norm
        return vector

    def transform(self, texts: Iterable[str]) -> np.ndarray:
        """Encode a sequence of strings into a ``(n, n_features)`` matrix.

        The batch is encoded through a CSR-style intermediate — a flat
        ``(bucket, sign)`` stream plus per-text offsets — and a single
        scatter-add, so per-text Python work is limited to tokenization.
        Each row is bit-identical to :meth:`transform_one` of the same
        text: bucket contributions are ±1 integers whose float64 sums are
        exact in any order.
        """
        texts = list(texts)
        if not texts:
            return np.zeros((0, self.config.n_features), dtype=np.float64)
        if len(self._text_cache) > self.TEXT_CACHE_MAX_ENTRIES:
            self._text_cache.clear()
        if len(self._bucket_cache) > self.BUCKET_CACHE_MAX_ENTRIES:
            self._bucket_cache.clear()
        index_blocks: list[np.ndarray] = []
        sign_blocks: list[np.ndarray] = []
        lengths = np.zeros(len(texts), dtype=np.int64)
        for row, text in enumerate(texts):
            cached = self._text_cache.get(text)
            if cached is None:
                cached = self._text_buckets(text)
                self._text_cache[text] = cached
            lengths[row] = cached[0].size
            index_blocks.append(cached[0])
            sign_blocks.append(cached[1])
        matrix = np.zeros((len(texts), self.config.n_features), dtype=np.float64)
        if int(lengths.sum()):
            rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
            np.add.at(
                matrix,
                (rows, np.concatenate(index_blocks)),
                np.concatenate(sign_blocks),
            )
        if self.config.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            np.divide(matrix, norms, out=matrix, where=norms > 0)
        return matrix

    def _text_buckets(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Bucket index and sign arrays of one text's token stream.

        Equivalent to bucketing :meth:`_tokens` one by one, but the text
        is normalized once for all n-gram sizes and cache keys are
        ``(prefix, gram)`` tuples, so the prefixed token string is only
        materialized on a cache miss (for the digest).
        """
        config = self.config
        cache = self._bucket_cache
        normalized = normalize(text) if config.char_ngram_sizes else ""
        keys: list[tuple[str, str]] = []
        for size in config.char_ngram_sizes:
            prefix = f"c{size}:"
            if len(normalized) < size:
                if normalized:
                    keys.append((prefix, normalized))
                continue
            keys.extend(
                (prefix, normalized[i : i + size])
                for i in range(len(normalized) - size + 1)
            )
        if config.use_word_tokens:
            keys.extend(("w:", token) for token in word_tokens(text))

        indices = np.empty(len(keys), dtype=np.int64)
        signs = np.empty(len(keys), dtype=np.float64)
        for position, key in enumerate(keys):
            cached = cache.get(key)
            if cached is None:
                cached = self._bucket_uncached(key[0] + key[1])
                cache[key] = cached
            indices[position] = cached[0]
            signs[position] = cached[1]
        return indices, signs


class TfidfVectorizer:
    """A small TF-IDF vectorizer over word tokens.

    Used by examples and the token blocker; fitting learns the vocabulary
    and inverse document frequencies, transforming produces L2-normalized
    dense vectors.
    """

    def __init__(self, min_df: int = 1, max_features: int | None = None) -> None:
        if min_df < 1:
            raise ConfigurationError("min_df must be at least 1")
        if max_features is not None and max_features <= 0:
            raise ConfigurationError("max_features must be positive when given")
        self.min_df = min_df
        self.max_features = max_features
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def fit(self, texts: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``texts``."""
        document_frequency: dict[str, int] = {}
        for text in texts:
            for token in set(word_tokens(text)):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        items = [
            (token, count)
            for token, count in document_frequency.items()
            if count >= self.min_df
        ]
        items.sort(key=lambda item: (-item[1], item[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        kept_tokens = sorted(token for token, _ in items)
        self.vocabulary_ = {token: idx for idx, token in enumerate(kept_tokens)}
        n_documents = max(len(texts), 1)
        idf = np.zeros(len(self.vocabulary_), dtype=np.float64)
        for token, idx in self.vocabulary_.items():
            idf[idx] = np.log((1 + n_documents) / (1 + document_frequency[token])) + 1.0
        self.idf_ = idf
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Encode ``texts`` into an L2-normalized TF-IDF matrix."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise NotFittedError("TfidfVectorizer must be fitted before transform")
        matrix = np.zeros((len(texts), len(self.vocabulary_)), dtype=np.float64)
        for row, text in enumerate(texts):
            for token in word_tokens(text):
                index = self.vocabulary_.get(token)
                if index is not None:
                    matrix[row, index] += 1.0
        matrix *= self.idf_[np.newaxis, :] if matrix.shape[1] else 1.0
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return matrix / norms

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        """Fit on ``texts`` and return their TF-IDF matrix."""
        return self.fit(texts).transform(texts)
