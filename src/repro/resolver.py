"""The composable :class:`Resolver` facade — raw records to MIER solution.

This is the end-to-end entry point of the library: starting from a raw
:class:`~repro.data.records.Dataset` it runs blocking, attaches intent
labels, splits the candidates, and executes the staged FlexER pipeline —
with every component (blocker, solver, graph builder, intent classifier)
constructed through :mod:`repro.registry` from the specs carried by a
single :class:`~repro.config.FlexERConfig`:

>>> import repro
>>> benchmark = repro.load_benchmark("amazon_mi", num_pairs=120, products_per_domain=10)
>>> result = repro.resolve(  # doctest: +SKIP
...     benchmark.dataset,
...     intents=benchmark.intents,
...     labels=ground_truth_labels,
...     config=repro.FlexERConfig.fast(),
... )
>>> result.solution  # doctest: +SKIP
MIERSolution(...)

Pre-built inputs are also accepted: a labeled
:class:`~repro.data.pairs.CandidateSet` skips blocking, and a
:class:`~repro.data.splits.DatasetSplit` skips blocking and splitting —
so existing benchmark-driven code funnels through the same facade.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Mapping, Sequence

from .config import FlexERConfig
from .data.pairs import CandidateSet, LabeledPair, RecordPair
from .data.records import Dataset, Record
from .data.splits import DatasetSplit, SplitRatio, split_candidates
from .evaluation.blocking import BlockingQuality, evaluate_blocking
from .evaluation.metrics import BinaryEvaluation, evaluate_binary
from .evaluation.multi_intent import MultiIntentEvaluation, evaluate_solution
from .exceptions import BlockingError, LabelingError
from .blocking.base import Blocker
from .blocking.full import FullBlocker
from .core.flexer import FlexERTimings
from .core.mier import MIERSolution
from .exec import executor_spec
from .graph.multiplex import MultiplexGraph
from .matching.features import PairFeatureConfig
from .pipeline.cache import ArtifactCache
from .pipeline.runner import PipelineResult, PipelineRunner
from .registry import BLOCKERS

#: A pair labeling function over the two records of a candidate pair.
PairLabeler = Callable[[Record, Record], Mapping[str, int]]

#: Ground-truth labels keyed by record-id pair (either order) or RecordPair.
PairLabels = Mapping[object, Mapping[str, int]]


@dataclass
class ResolverResult:
    """Everything an end-to-end resolution run produces.

    Attributes
    ----------
    solution:
        The MIER solution over the test split's candidate pairs.
    pipeline:
        The staged run: stage events (hit/computed), graph, timings.
    split:
        The train/valid/test candidate split the pipeline ran over.
    intents:
        The intents the run resolved.
    candidates:
        The full labeled candidate set (``None`` when a pre-built
        :class:`DatasetSplit` was supplied).
    blocking:
        Blocking-quality profile; ``None`` when blocking did not run
        (pre-built inputs).  Its ``pair_completeness`` / ``pair_quality``
        are themselves ``None`` when no golden standard was available
        for the recall side.
    """

    solution: MIERSolution
    pipeline: PipelineResult
    split: DatasetSplit
    intents: tuple[str, ...]
    candidates: CandidateSet | None = None
    blocking: BlockingQuality | None = None

    @property
    def graph(self) -> MultiplexGraph:
        """The multiplex intent graph of the staged run."""
        return self.pipeline.graph

    @property
    def timings(self) -> FlexERTimings:
        """Stage timings of the staged run."""
        return self.pipeline.timings

    def evaluate(self) -> MultiIntentEvaluation:
        """Multi-intent evaluation of the solution against the test labels."""
        return evaluate_solution(self.solution)

    def intent_evaluations(self) -> dict[str, BinaryEvaluation]:
        """Per-intent P/R/F1 of the solution against the test labels."""
        test = self.split.test
        return {
            intent: evaluate_binary(self.solution.prediction(intent), test.labels(intent))
            for intent in self.solution.intents
        }


class Resolver:
    """Composable end-to-end MIER resolution facade.

    Parameters
    ----------
    config:
        Hyper-parameters and component specs of the run; defaults to the
        paper's main configuration (``in_parallel`` solver, ``qgram``
        blocker).
    cache:
        Shared artifact cache for the staged pipeline; ``None`` creates
        a private in-memory one.  Passing one cache to several resolvers
        (or re-running one resolver) turns unchanged stages into hits.
    augment_with_scores, feature_config:
        Forwarded to :class:`~repro.pipeline.PipelineRunner`.
    executor, workers:
        Sharded-execution override: an executor registry key or spec
        (``"serial"`` / ``"threads"`` / ``"processes"``) plus an
        optional worker count, replacing the config's executor spec.
        Results are bit-identical across executors; cached artifacts
        remain valid regardless of the choice.
    """

    def __init__(
        self,
        config: FlexERConfig | None = None,
        cache: ArtifactCache | None = None,
        augment_with_scores: bool = True,
        feature_config: PairFeatureConfig | None = None,
        executor: object = None,
        workers: int | None = None,
    ) -> None:
        self.config = config or FlexERConfig()
        if executor is not None or workers is not None:
            spec = executor_spec(
                executor if executor is not None else self.config.executor,
                workers,
            )
            self.config = replace(self.config, executor=spec)
        self.runner = PipelineRunner(
            cache=cache,
            augment_with_scores=augment_with_scores,
            feature_config=feature_config,
        )

    # ------------------------------------------------------------- components

    def make_blocker(self):
        """The blocker described by ``config.blocker`` (registry-built)."""
        return BLOCKERS.create(self.config.blocker)

    # ------------------------------------------------------------------ steps

    def block(self, dataset: Dataset) -> list[RecordPair]:
        """Run the configured blocker over ``dataset``."""
        pairs = self.make_blocker().block(dataset)
        if not pairs:
            raise BlockingError(
                f"blocker {self.config.blocker['type']!r} produced no candidate "
                f"pairs over dataset {dataset.name!r}; loosen its parameters or "
                f"use the 'full' blocker"
            )
        return pairs

    def label_candidates(
        self,
        dataset: Dataset,
        pairs: Sequence[RecordPair],
        intents: Sequence[str],
        labels: PairLabels | None = None,
        labeler: PairLabeler | None = None,
        default_label: int = 0,
    ) -> CandidateSet:
        """Attach per-intent labels to blocker-produced pairs.

        Labels come from a ``labels`` mapping (pairs absent from the
        mapping get ``default_label`` for every intent — the standard
        convention that unlisted pairs are non-matches) or from a
        ``labeler`` callable over the two records.
        """
        if (labels is None) == (labeler is None):
            raise LabelingError("provide exactly one of 'labels' or 'labeler'")
        intents = tuple(intents)
        lookup = _normalize_label_mapping(labels) if labels is not None else None
        candidates = CandidateSet(dataset, intents=intents)
        matched = 0
        for pair in pairs:
            if lookup is not None:
                pair_labels = lookup.get(pair)
                if pair_labels is None:
                    pair_labels = {intent: default_label for intent in intents}
                else:
                    matched += 1
            else:
                assert labeler is not None
                pair_labels = dict(labeler(dataset[pair.left_id], dataset[pair.right_id]))
            missing = set(intents) - set(pair_labels)
            if missing:
                raise LabelingError(
                    f"pair {pair.as_tuple()} is missing labels for intents "
                    f"{sorted(missing)}"
                )
            candidates.add(
                LabeledPair(pair=pair, labels={intent: pair_labels[intent] for intent in intents})
            )
        if lookup is not None and lookup and matched == 0:
            # Every blocked pair missed the mapping: almost certainly a
            # record-id mismatch, and training on all-default labels would
            # silently succeed on meaningless data.
            sample = next(iter(lookup)).as_tuple()
            raise LabelingError(
                f"none of the {len(pairs)} blocked pairs matched the "
                f"{len(lookup)} entries of the labels mapping (e.g. key "
                f"{sample!r}); check that its record ids match the dataset's"
            )
        return candidates

    # ---------------------------------------------------------------- resolve

    def _prepare(
        self,
        data: Dataset | CandidateSet | DatasetSplit,
        *,
        intents: Sequence[str] | None = None,
        labels: PairLabels | None = None,
        labeler: PairLabeler | None = None,
        default_label: int = 0,
        split_ratio: SplitRatio | None = None,
        split_seed: int = 13,
        max_exhaustive_records: int = 400,
    ) -> tuple[DatasetSplit, tuple[str, ...], CandidateSet | None, BlockingQuality | None]:
        """Shared data preparation of :meth:`resolve` and :meth:`fit`.

        Turns any accepted input into a labeled
        :class:`~repro.data.splits.DatasetSplit`: a raw dataset goes
        through blocking → labeling → splitting, a labeled candidate set
        through splitting only, and a pre-built split passes through.
        """
        blocking: BlockingQuality | None = None
        candidates: CandidateSet | None = None

        if isinstance(data, DatasetSplit):
            split = data
            resolved_intents = _resolve_intents(intents, split.train.intents)
        elif isinstance(data, CandidateSet):
            candidates = data
            resolved_intents = _resolve_intents(intents, candidates.intents)
            split = split_candidates(
                candidates,
                ratio=split_ratio,
                stratify_intent=resolved_intents[0],
                seed=split_seed,
            )
        elif isinstance(data, Dataset):
            pairs = self.block(data)
            resolved_intents = _infer_intents(data, pairs, intents, labels, labeler)
            candidates = self.label_candidates(
                data,
                pairs,
                resolved_intents,
                labels=labels,
                labeler=labeler,
                default_label=default_label,
            )
            blocking = self._blocking_quality(
                data, pairs, resolved_intents, labels, labeler, max_exhaustive_records
            )
            split = split_candidates(
                candidates,
                ratio=split_ratio,
                stratify_intent=resolved_intents[0],
                seed=split_seed,
            )
        else:
            raise TypeError(
                f"resolve() accepts Dataset, CandidateSet, or DatasetSplit, "
                f"got {type(data).__name__}"
            )
        return split, resolved_intents, candidates, blocking

    def resolve(
        self,
        data: Dataset | CandidateSet | DatasetSplit,
        *,
        intents: Sequence[str] | None = None,
        labels: PairLabels | None = None,
        labeler: PairLabeler | None = None,
        default_label: int = 0,
        split_ratio: SplitRatio | None = None,
        split_seed: int = 13,
        intent_subset: Sequence[str] | None = None,
        target_intents: Sequence[str] | None = None,
        max_exhaustive_records: int = 400,
    ) -> ResolverResult:
        """Resolve ``data`` end to end and return a :class:`ResolverResult`.

        This is the one-shot fit+predict convenience: for the
        train-once / serve-many lifecycle use :meth:`fit`, which returns
        a persistable :class:`~repro.model.ResolverModel` with an online
        ``query()`` path.

        Parameters
        ----------
        data:
            A raw :class:`Dataset` (full pipeline: blocking → labeling →
            split → staged FlexER), a labeled :class:`CandidateSet`
            (split → staged FlexER), or a pre-built
            :class:`DatasetSplit` (staged FlexER only).
        intents:
            Intent names to resolve.  Defaults to the candidate set's
            intents, the first entry of ``labels``, or one probe call of
            ``labeler`` — in that order.
        labels, labeler, default_label:
            Ground truth for the raw-records path; see
            :meth:`label_candidates`.
        split_ratio, split_seed:
            Candidate splitting (paper default 3:1:1, stratified on the
            first intent).
        intent_subset, target_intents:
            Forwarded to the staged pipeline (graph layers / predicted
            intents).
        max_exhaustive_records:
            When only a ``labeler`` is given, blocking recall needs the
            golden pairs of the *full* cross product; it is enumerated
            exhaustively up to this many records and skipped beyond.
        """
        split, resolved_intents, candidates, blocking = self._prepare(
            data,
            intents=intents,
            labels=labels,
            labeler=labeler,
            default_label=default_label,
            split_ratio=split_ratio,
            split_seed=split_seed,
            max_exhaustive_records=max_exhaustive_records,
        )
        pipeline_result = self.runner.run(
            split,
            resolved_intents,
            config=self.config,
            intent_subset=intent_subset,
            target_intents=target_intents,
        )
        return ResolverResult(
            solution=pipeline_result.solution,
            pipeline=pipeline_result,
            split=split,
            intents=resolved_intents,
            candidates=candidates,
            blocking=blocking,
        )

    # -------------------------------------------------------------------- fit

    def fit(
        self,
        data: Dataset | CandidateSet | DatasetSplit,
        *,
        intents: Sequence[str] | None = None,
        labels: PairLabels | None = None,
        labeler: PairLabeler | None = None,
        default_label: int = 0,
        split_ratio: SplitRatio | None = None,
        split_seed: int = 13,
        retriever: object = "ann_knn",
        max_exhaustive_records: int = 400,
    ):
        """Fit on ``data`` and return a persistable ``ResolverModel``.

        The model bundles every fitted component — per-intent matcher
        ``state_dict``s, corpus representations, the multiplex graph
        payload, trained per-intent GNNs, a fitted candidate retriever,
        and this resolver's :class:`~repro.config.FlexERConfig` — and
        serves new records online via ``model.query(records, k=...)``
        without re-fitting anything.  Persist it with
        ``model.save(path)`` / ``repro.load_model(path)``.

        ``retriever`` names the online candidate-retrieval component
        (:data:`repro.registry.CANDIDATE_RETRIEVERS`): ``"ann_knn"``
        (nearest corpus records over hashed n-gram vectors, the default)
        or ``"blocker"`` (probe the fitted blocker's inverted index).
        The corpus resolution of the fit is attached as
        ``model.fit_result`` (a :class:`ResolverResult`).
        """
        split, resolved_intents, candidates, blocking = self._prepare(
            data,
            intents=intents,
            labels=labels,
            labeler=labeler,
            default_label=default_label,
            split_ratio=split_ratio,
            split_seed=split_seed,
            max_exhaustive_records=max_exhaustive_records,
        )
        fit = self.runner.fit_model(
            split, resolved_intents, config=self.config, retriever=retriever
        )
        fit.model.fit_result = ResolverResult(
            solution=fit.pipeline.solution,
            pipeline=fit.pipeline,
            split=split,
            intents=resolved_intents,
            candidates=candidates,
            blocking=blocking,
        )
        return fit.model

    # -------------------------------------------------------------- internals

    def _blocking_quality(
        self,
        dataset: Dataset,
        pairs: Sequence[RecordPair],
        intents: tuple[str, ...],
        labels: PairLabels | None,
        labeler: PairLabeler | None,
        max_exhaustive_records: int,
    ) -> BlockingQuality:
        """Blocking-quality profile, when a golden standard is derivable.

        With a ``labels`` mapping the golden positives are its positive
        entries; with only a ``labeler`` they are enumerated over the
        full cross product for datasets up to
        ``max_exhaustive_records`` records.  Otherwise only the
        reduction ratio is reported.  Both golden sources are filtered
        by the blocker's pair-admissibility rule, so a cross-source-only
        blocker is never penalized for same-source positives it is
        configured to exclude.
        """
        cross_source_only = self.make_blocker().cross_source_only
        golden: dict[str, set[RecordPair]] | None = None
        if labels is not None:
            golden = {intent: set() for intent in intents}
            for pair, pair_labels in _normalize_label_mapping(labels).items():
                if pair.left_id not in dataset or pair.right_id not in dataset:
                    continue
                if not Blocker.allow_pair(dataset, pair.left_id, pair.right_id, cross_source_only):
                    continue
                for intent in intents:
                    if pair_labels.get(intent) == 1:
                        golden[intent].add(pair)
        elif labeler is not None and len(dataset) <= max_exhaustive_records:
            golden = {intent: set() for intent in intents}
            enumerator = FullBlocker(cross_source_only=cross_source_only, max_records=None)
            for pair in enumerator.block(dataset):
                pair_labels = labeler(dataset[pair.left_id], dataset[pair.right_id])
                for intent in intents:
                    if pair_labels.get(intent) == 1:
                        golden[intent].add(pair)
        return evaluate_blocking(
            dataset, pairs, golden_positive=golden, cross_source_only=cross_source_only
        )


def resolve(
    data: Dataset | CandidateSet | DatasetSplit,
    *,
    intents: Sequence[str] | None = None,
    config: FlexERConfig | None = None,
    labels: PairLabels | None = None,
    labeler: PairLabeler | None = None,
    cache: ArtifactCache | None = None,
    executor: object = None,
    workers: int | None = None,
    **kwargs,
) -> ResolverResult:
    """Resolve ``data`` end to end with a one-shot :class:`Resolver`.

    Convenience wrapper: ``repro.resolve(dataset, intents=...,
    labeler=...)`` is the library's quickstart entry point.
    ``executor``/``workers`` select the sharded-execution backend (e.g.
    ``repro.resolve(dataset, ..., executor="processes", workers=4)``)
    without changing results.  Keyword arguments beyond ``config``,
    ``cache``, ``executor``, and ``workers`` are forwarded to
    :meth:`Resolver.resolve`.
    """
    resolver = Resolver(config=config, cache=cache, executor=executor, workers=workers)
    return resolver.resolve(data, intents=intents, labels=labels, labeler=labeler, **kwargs)


def fit(
    data: Dataset | CandidateSet | DatasetSplit,
    *,
    intents: Sequence[str] | None = None,
    config: FlexERConfig | None = None,
    labels: PairLabels | None = None,
    labeler: PairLabeler | None = None,
    cache: ArtifactCache | None = None,
    retriever: object = "ann_knn",
    executor: object = None,
    workers: int | None = None,
    save: object = None,
    **kwargs,
):
    """Fit a one-shot :class:`Resolver` and return its ``ResolverModel``.

    The "fit once, query many" entry point::

        model = repro.fit(dataset, labeler=label_pair, config=config)
        model.save("resolver_model.npz")
        ...
        model = repro.load_model("resolver_model.npz")
        result = model.query(new_records, k=5)

    ``save`` optionally persists the model in the same call.  Keyword
    arguments beyond the ones named here are forwarded to
    :meth:`Resolver.fit`.
    """
    resolver = Resolver(config=config, cache=cache, executor=executor, workers=workers)
    model = resolver.fit(
        data, intents=intents, labels=labels, labeler=labeler, retriever=retriever, **kwargs
    )
    if save is not None:
        model.save(save)
    return model


# ------------------------------------------------------------------- helpers


def _normalize_label_mapping(labels: PairLabels) -> dict[RecordPair, Mapping[str, int]]:
    """Normalize label-mapping keys to canonical :class:`RecordPair`."""
    normalized: dict[RecordPair, Mapping[str, int]] = {}
    for key, value in labels.items():
        if isinstance(key, RecordPair):
            pair = key
        elif isinstance(key, tuple) and len(key) == 2:
            pair = RecordPair(str(key[0]), str(key[1]))
        else:
            raise LabelingError(
                f"label keys must be RecordPair or (left_id, right_id) tuples, "
                f"got {key!r}"
            )
        if pair in normalized:
            raise LabelingError(f"duplicate label entry for pair {pair.as_tuple()}")
        normalized[pair] = value
    return normalized


def _resolve_intents(requested: Sequence[str] | None, available: Sequence[str]) -> tuple[str, ...]:
    """Validate a requested intent list against the labeled intents."""
    if requested is None:
        if not available:
            raise LabelingError("candidate data carries no intents")
        return tuple(available)
    unknown = set(requested) - set(available)
    if unknown:
        raise LabelingError(
            f"requested intents {sorted(unknown)} are not labeled on the data "
            f"(available: {sorted(available)})"
        )
    return tuple(requested)


def _infer_intents(
    dataset: Dataset,
    pairs: Sequence[RecordPair],
    intents: Sequence[str] | None,
    labels: PairLabels | None,
    labeler: PairLabeler | None,
) -> tuple[str, ...]:
    """Determine the intent set for the raw-records path."""
    if intents is not None:
        if not intents:
            raise LabelingError("intents must be non-empty when given")
        return tuple(intents)
    if labels is not None:
        for value in labels.values():
            return tuple(value)
        raise LabelingError("cannot infer intents from an empty labels mapping")
    if labeler is not None:
        probe = pairs[0]
        return tuple(labeler(dataset[probe.left_id], dataset[probe.right_id]))
    raise LabelingError("provide 'intents', 'labels', or 'labeler' to name the intents")
