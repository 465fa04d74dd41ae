"""Sub-linear candidate retrieval through banded SRP locality hashing.

Registered as ``lsh`` in :data:`repro.registry.CANDIDATE_RETRIEVERS`.
Each corpus record's hashed n-gram vector is signed against random
hyperplanes and bucketed per band by
:class:`~repro.ann.lsh.SrpBandIndex`; a query probes its own buckets
and only the colliding records are ranked (by exact squared-L2, the
same tie-breaking as ``ann_knn``).  Query cost scales with bucket
occupancy, not corpus size — the ``num_bands``/``rows_per_band`` pair
trades candidate volume against recall along the classic banding
curve.

The persisted state (vectors and band signatures) round-trips through
``ResolverModel.save``/``load`` and memory-mapped loading; the bucket
tables are re-derived with stable sorts, so a loaded retriever answers
byte-identically to the fitted one.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..ann.lsh import SrpBandIndex
from ..data.records import Record
from .candidates import HashedVectorRetriever


class LshRetriever(HashedVectorRetriever):
    """Banded signed-random-projection retrieval over hashed vectors.

    Buckets may supply fewer than ``k`` admissible records — the
    retriever contract allows short lists; a record colliding with
    nothing yields an empty list.

    Parameters
    ----------
    n_features:
        Buckets of the hashing vectorizer encoding each record's text.
    attributes:
        Record attributes included in the text; ``None`` uses all.
    cross_source_only:
        Restrict candidates to records from a different source than the
        query record (clean-clean resolution).
    num_bands:
        Independent hash bands; more bands raise recall (and candidate
        volume).
    rows_per_band:
        Sign bits per band key; more rows sharpen the similarity
        threshold, shrinking buckets.
    seed:
        Seed of the random hyperplane matrix.
    """

    spec_type = "lsh"

    def __init__(
        self,
        n_features: int = 256,
        attributes: Sequence[str] | None = None,
        cross_source_only: bool = False,
        num_bands: int = 32,
        rows_per_band: int = 12,
        seed: int = 0,
    ) -> None:
        super().__init__(
            n_features=n_features, attributes=attributes, cross_source_only=cross_source_only
        )
        self.num_bands = int(num_bands)
        self.rows_per_band = int(rows_per_band)
        self.seed = int(seed)
        self._index = SrpBandIndex(
            num_bands=self.num_bands, rows_per_band=self.rows_per_band, seed=self.seed
        )

    def _build_index(self, vectors: np.ndarray, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore the index from persisted ``signatures`` without re-projection.

        Without them the signatures are re-derived (deterministic — the
        hyperplanes come from the seed).
        """
        signatures = arrays.get("signatures")
        if signatures is not None and signatures.shape[0] == vectors.shape[0]:
            self._index.import_arrays(vectors, signatures)
        else:
            self._index.fit(vectors)

    def _replace_rows(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        self._index.update_rows(rows, vectors)

    def _append_rows(self, vectors: np.ndarray, record_ids: Sequence[str]) -> None:
        self._index.insert(vectors)

    def candidate_counts(self, records: Sequence[Record]) -> list[int]:
        """Bucket-probe candidate-set size of each query record.

        Diagnostic for tuning ``num_bands``/``rows_per_band``: the
        average count is the per-query rerank cost, and a count of zero
        means the record collides with no bucket at all.
        """
        self._require_fitted()
        queries = self._encode(records)
        return [len(self._index.probe(queries[row])) for row in range(len(records))]


__all__ = ["LshRetriever"]
