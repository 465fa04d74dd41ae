"""Blocking interfaces.

Blocking (Section 2.1 / Figure 2 of the paper) reduces the quadratic
candidate space ``D × D`` to a candidate pair set ``C`` before matching.
Blockers produce *unlabeled* :class:`~repro.data.pairs.RecordPair`
objects; labeling happens downstream from intent definitions.
"""

from __future__ import annotations

import abc
import warnings
from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from ..data.pairs import RecordPair
from ..data.records import Dataset, Record
from ..exceptions import BlockingError


def sources_admissible(
    left_source: str | None, right_source: str | None, cross_source_only: bool
) -> bool:
    """The cross-source rule every blocker and retriever pairs records by.

    Under ``cross_source_only`` (clean-clean resolution) two records of
    the same named source never pair; a record without a source pairs
    with any.  :func:`reduce_block_pairs` applies the same rule to whole
    rank arrays.
    """
    if not cross_source_only or left_source is None or right_source is None:
        return True
    return left_source != right_source


class Blocker(abc.ABC):
    """Base class for blocking strategies.

    Every concrete blocker is registered in
    :data:`repro.registry.BLOCKERS` under :attr:`spec_type` and
    serializes to a plain-dict spec via :meth:`to_spec`, so blocking
    configurations participate in pipeline fingerprints and round-trip
    through ``registry.create``.
    """

    #: Registry key of the concrete blocker (set by subclasses).
    spec_type: str = ""
    #: Restrict pairs to records from different sources (clean-clean).
    cross_source_only: bool = False

    @abc.abstractmethod
    def block(self, dataset: Dataset) -> list[RecordPair]:
        """Return the candidate pairs that survive blocking.

        Implementations must return unique pairs, never pair a record
        with itself, and — when the dataset is partitioned into sources
        (clean-clean resolution) — never pair two records of the same
        source.
        """

    @abc.abstractmethod
    def to_spec(self) -> dict[str, object]:
        """Serialize the blocker into a registry spec (plain dict)."""

    @classmethod
    def from_spec(cls, params: Mapping[str, object]) -> "Blocker":
        """Construct the blocker from the parameters of a spec."""
        return cls(**params)

    @staticmethod
    def allow_pair(dataset: Dataset, left_id: str, right_id: str, cross_source_only: bool) -> bool:
        """Whether two records of ``dataset`` may pair (:func:`sources_admissible`)."""
        if left_id == right_id:
            return False
        return not cross_source_only or sources_admissible(
            dataset[left_id].source, dataset[right_id].source, cross_source_only
        )


@dataclass(frozen=True)
class BlockingStats:
    """Statistics of one inverted-index blocking run.

    Attributes
    ----------
    num_blocks:
        Total blocks (distinct keys) in the inverted index.
    num_oversized_blocks:
        Blocks skipped by the ``max_block_size`` guard; each skipped
        block also raises an :class:`OversizedBlockWarning`.
    num_block_pairs:
        Pairs generated across all surviving blocks, before the
        ``min_shared`` threshold and admissibility filtering.
    num_candidate_pairs:
        Pairs emitted after filtering.
    """

    num_blocks: int = 0
    num_oversized_blocks: int = 0
    num_block_pairs: int = 0
    num_candidate_pairs: int = 0


class OversizedBlockWarning(UserWarning):
    """A blocking key indexed more records than ``max_block_size`` allows."""


def block_pair_arrays(
    flat_ranks: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand CSR-style block postings into canonical pair-rank arrays.

    This is the *map* side of the block join: given the concatenated
    member ranks of a set of blocks (``flat_ranks``) and the per-block
    sizes, it generates each block's pair list with one
    ``np.triu_indices`` per *block size* rather than per block — all
    blocks of equal size are stacked into one matrix and expanded
    together.  Pairs are canonically oriented (smaller rank left).
    """
    offsets = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    num_block_pairs = 0
    for size in np.unique(sizes).tolist():
        block_rows = np.nonzero(sizes == size)[0]
        gather = offsets[block_rows][:, np.newaxis] + np.arange(size, dtype=np.int64)
        stacked = flat_ranks[gather]
        left_index, right_index = np.triu_indices(size, k=1)
        first = stacked[:, left_index].ravel()
        second = stacked[:, right_index].ravel()
        # Canonical orientation without sorting each block: the smaller
        # rank (lexicographically smaller id) is the left member.
        lefts.append(np.minimum(first, second))
        rights.append(np.maximum(first, second))
        num_block_pairs += first.size
    if not lefts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, 0
    return np.concatenate(lefts), np.concatenate(rights), num_block_pairs


def reduce_block_pairs(
    left_ranks: np.ndarray,
    right_ranks: np.ndarray,
    record_ids: list[str],
    dataset: Dataset,
    min_shared: int,
    cross_source_only: bool,
) -> list[RecordPair]:
    """Reduce raw block-pair arrays into the final candidate pair list.

    Counts co-occurrences with one ``np.unique`` over packed 64-bit
    keys, applies the ``min_shared`` threshold and the cross-source
    admissibility rule, and materializes
    :class:`~repro.data.pairs.RecordPair` objects.  ``np.unique`` sorts
    globally, so the result is independent of the order of the input
    arrays, and the pairs come out in canonical sorted order.
    """
    num_records = len(record_ids)
    # Pack each (left, right) rank pair into one sortable 64-bit key.
    keys, counts = np.unique(left_ranks * num_records + right_ranks, return_counts=True)
    keys = keys[counts >= min_shared]
    left_ranks = keys // num_records
    right_ranks = keys % num_records

    if cross_source_only and keys.size:
        source_names = sorted(
            {record.source for record in dataset if record.source is not None}
        )
        source_code = {name: code for code, name in enumerate(source_names)}
        codes = np.fromiter(
            (
                source_code.get(dataset[record_id].source, -1)
                for record_id in record_ids
            ),
            dtype=np.int64,
            count=num_records,
        )
        left_codes = codes[left_ranks]
        right_codes = codes[right_ranks]
        admissible = (left_codes == -1) | (right_codes == -1) | (left_codes != right_codes)
        left_ranks = left_ranks[admissible]
        right_ranks = right_ranks[admissible]

    return [
        RecordPair(record_ids[left], record_ids[right])
        for left, right in zip(left_ranks.tolist(), right_ranks.tolist())
    ]


def join_blocks(
    dataset: Dataset,
    blocks: Mapping[str, Iterable[str]],
    min_shared: int,
    cross_source_only: bool,
    max_block_size: int | None,
) -> tuple[list[RecordPair], BlockingStats]:
    """Turn an inverted index into candidate pairs via a sorted-array join.

    The classic implementation materializes a Python dict keyed by every
    co-occurring pair — ``O(Σ |block|²)`` dict operations and tuple
    allocations.  This join instead expands per-block pair index arrays
    (:func:`block_pair_arrays`) and reduces them with one ``np.unique``
    over packed keys (:func:`reduce_block_pairs`).

    Pairs are canonicalized by lexicographic id rank (``left`` is the
    smaller id), matching the reference orientation, and the packed-key
    sort yields the same final ordering as ``pairs.sort()``.

    Each block's members must be distinct (inverted indexes built from
    per-record key *sets* guarantee this); duplicate members within one
    block would inflate its co-occurrence counts.

    Returns the pairs plus a :class:`BlockingStats`; oversized blocks are
    skipped with an :class:`OversizedBlockWarning`.
    """
    record_ids = sorted(record.record_id for record in dataset)
    rank_of = {record_id: rank for rank, record_id in enumerate(record_ids)}

    member_lists: list[list[str]] = []
    num_blocks = 0
    num_oversized = 0
    for key, members in blocks.items():
        num_blocks += 1
        members = list(members)
        if max_block_size is not None and len(members) > max_block_size:
            num_oversized += 1
            # Attributed to this module (default stacklevel): the call
            # chain varies (block / block_loop), so a fixed caller offset
            # would point somewhere misleading; the message itself names
            # the offending blocking key.
            warnings.warn(
                f"blocking key {key!r} indexes {len(members)} records "
                f"(max_block_size={max_block_size}); block skipped",
                OversizedBlockWarning,
            )
            continue
        if len(members) >= 2:
            member_lists.append(members)

    if not member_lists:
        stats = BlockingStats(num_blocks, num_oversized, 0, 0)
        return [], stats

    # CSR-style postings: one flat rank array plus per-block sizes.
    sizes = np.fromiter((len(m) for m in member_lists), dtype=np.int64, count=len(member_lists))
    flat_ranks = np.fromiter(
        (rank_of[rid] for members in member_lists for rid in members),
        dtype=np.int64,
        count=int(sizes.sum()),
    )

    left_ranks, right_ranks, num_block_pairs = block_pair_arrays(flat_ranks, sizes)
    pairs = reduce_block_pairs(
        left_ranks, right_ranks, record_ids, dataset, min_shared, cross_source_only
    )
    stats = BlockingStats(num_blocks, num_oversized, num_block_pairs, len(pairs))
    return pairs, stats


class KeyBlocker(Blocker):
    """Base of blockers that pair records sharing enough blocking keys.

    A subclass says only how one record is keyed (:meth:`record_keys`)
    and serializes its own spec.  Everything else is shared: parameter
    validation, the inverted index from keys to record ids, the
    vectorized join (:meth:`block`) and its loop oracle
    (:meth:`block_loop`).  The online ``blocker`` retriever keys query
    records through the same :meth:`record_keys`, so it probes the
    index exactly as the offline join built it.

    Parameters
    ----------
    min_shared:
        Minimum number of distinct shared keys required to keep a pair.
    attributes:
        Attributes whose text participates in blocking; defaults to all.
    cross_source_only:
        Restrict pairs to records from different sources (clean-clean).
    max_block_size:
        Keys indexing more than this many records are skipped (they
        behave as stop-keys and would otherwise produce a quadratic
        blow-up); ``None`` disables the cap.
    """

    def __init__(
        self,
        min_shared: int,
        attributes: Iterable[str] | None,
        cross_source_only: bool,
        max_block_size: int | None,
    ) -> None:
        if min_shared <= 0:
            raise BlockingError("min_shared must be positive")
        if max_block_size is not None and max_block_size <= 1:
            raise BlockingError("max_block_size must exceed 1 when given")
        if isinstance(attributes, str):
            # tuple() would split the name into single characters.
            raise BlockingError(
                f"attributes must be a list of attribute names, not the string {attributes!r}"
            )
        self.min_shared = min_shared
        self.attributes = tuple(attributes) if attributes is not None else None
        self.cross_source_only = cross_source_only
        self.max_block_size = max_block_size
        #: Statistics of the most recent :meth:`block` run.
        self.last_stats = BlockingStats()

    @abc.abstractmethod
    def record_keys(self, record: Record) -> frozenset[str]:
        """The distinct blocking keys of one record."""

    def index(self, dataset: Dataset) -> dict[str, list[str]]:
        """Inverted index from blocking keys to record ids, in dataset order."""
        index: dict[str, list[str]] = defaultdict(list)
        for record in dataset:
            for key in self.record_keys(record):
                index[key].append(record.record_id)
        return index

    def block(self, dataset: Dataset) -> list[RecordPair]:
        """Return the candidate pairs sharing at least ``min_shared`` keys.

        The co-occurrence join runs vectorized (see :func:`join_blocks`);
        statistics of the run — including blocks skipped by the
        ``max_block_size`` guard — are kept in :attr:`last_stats`.
        """
        pairs, stats = join_blocks(
            dataset,
            self.index(dataset),
            min_shared=self.min_shared,
            cross_source_only=self.cross_source_only,
            max_block_size=self.max_block_size,
        )
        self.last_stats = stats
        return pairs

    def block_loop(self, dataset: Dataset) -> list[RecordPair]:
        """Reference implementation materializing the shared-count pair dict."""
        index = self.index(dataset)
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
