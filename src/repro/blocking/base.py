"""Blocking interfaces.

Blocking (Section 2.1 / Figure 2 of the paper) reduces the quadratic
candidate space ``D × D`` to a candidate pair set ``C`` before matching.
Blockers produce *unlabeled* :class:`~repro.data.pairs.RecordPair`
objects; labeling happens downstream from intent definitions.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from ..data.pairs import RecordPair
from ..data.records import Dataset
from ..exec.plan import ShardPlan


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
        """Shared pair-admissibility rule used by concrete blockers."""
        if left_id == right_id:
            return False
        if not cross_source_only:
            return True
        left_source = dataset[left_id].source
        right_source = dataset[right_id].source
        if left_source is None or right_source is None:
            return True
        return left_source != right_source


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

    The output depends only on the blocks it receives, so any partition
    of an inverted index can be expanded shard by shard and the
    concatenated outputs fed to :func:`reduce_block_pairs`.
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


def _block_pairs_worker(payload):
    """Executor task wrapping :func:`block_pair_arrays` (one key shard)."""
    flat_ranks, sizes = payload
    return block_pair_arrays(flat_ranks, sizes)


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
    globally, so the result is independent of how the input arrays were
    partitioned or ordered — the key property that makes the sharded
    join bit-identical to the serial one.
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
    executor=None,
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

    With a parallel ``executor`` (see :mod:`repro.exec`) the expansion
    fans out over key-group shards balanced by per-block pair count
    (``|block|·(|block|-1)/2``); the reduce step is order-independent,
    so the sharded join is bit-identical to the serial one.

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

    if executor is not None and getattr(executor, "is_parallel", False) and len(member_lists) > 1:
        # Map: expand each key-group shard independently (shards balance
        # the quadratic per-block pair cost, so one stop-gram-sized block
        # occupies a shard of its own).
        weights = (sizes * (sizes - 1) // 2).tolist()
        plan = ShardPlan.balanced(weights, executor.workers)
        offsets = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        payloads = []
        for shard in plan.shards:
            positions = np.asarray(shard.items, dtype=np.int64)
            shard_sizes = sizes[positions]
            shard_ranks = np.concatenate(
                [flat_ranks[offsets[p] : offsets[p] + sizes[p]] for p in positions.tolist()]
            )
            payloads.append((shard_ranks, shard_sizes))
        outputs = executor.map(_block_pairs_worker, payloads)
        left_ranks = np.concatenate([out[0] for out in outputs])
        right_ranks = np.concatenate([out[1] for out in outputs])
        num_block_pairs = int(sum(out[2] for out in outputs))
    else:
        left_ranks, right_ranks, num_block_pairs = block_pair_arrays(flat_ranks, sizes)

    pairs = reduce_block_pairs(
        left_ranks, right_ranks, record_ids, dataset, min_shared, cross_source_only
    )
    stats = BlockingStats(num_blocks, num_oversized, num_block_pairs, len(pairs))
    return pairs, stats


@dataclass(frozen=True)
class BlockingReport:
    """Summary of a blocking run, used by benchmarks and examples."""

    num_records: int
    num_candidate_pairs: int
    reduction_ratio: float

    @classmethod
    def from_result(cls, dataset: Dataset, pairs: list[RecordPair]) -> "BlockingReport":
        """Compute the report for a blocker output over ``dataset``."""
        n = len(dataset)
        total_pairs = n * (n - 1) // 2
        reduction = 1.0 - (len(pairs) / total_pairs) if total_pairs else 0.0
        return cls(
            num_records=n,
            num_candidate_pairs=len(pairs),
            reduction_ratio=reduction,
        )
