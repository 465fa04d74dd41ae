"""The staged FlexER runner with content-addressed artifact caching.

:class:`PipelineRunner` is the one implementation of FlexER's phases on
a dataset split.  It runs them as four addressable stages:

1. ``matcher-fit`` — train the per-intent matchers on the training pairs;
2. ``representation`` — encode every candidate pair (train + valid +
   test) into per-intent latent representations;
3. ``graph-build`` — construct the multiplex intent graph;
4. ``gnn:<intent>`` — train one GraphSAGE model per target intent and
   score its layer.

Each stage's output is fingerprinted by its configuration plus the
fingerprints of its inputs and stored in an :class:`ArtifactCache`, so a
re-run whose upstream stages are unchanged — e.g. sweeping the
intra-layer ``k`` (Table 8) or adding a target intent (Figure 6) — skips
matcher training and representation entirely and only recomputes the
stages downstream of the change.

All stage computations are seeded and deterministic, therefore a cached
run is byte-identical to the cold run that populated the cache.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from ..config import FlexERConfig
from ..core.flexer import FlexERTimings, combine_candidate_sets, compute_representations
from ..core.mier import MIERSolution
from ..data.pairs import CandidateSet
from ..data.splits import DatasetSplit
from ..exceptions import IntentError
from ..exec import Executor, executor_spec, make_executor, run_classifier_jobs
from ..graph.multiplex import MultiplexGraph
from ..graph.sage import ClassifierJob
from ..matching.features import PairFeatureConfig
from ..registry import GRAPH_BUILDERS, INTENT_CLASSIFIERS, SOLVERS
from .cache import Artifact, ArtifactCache, stage_artifact
from .fingerprint import canonical_json, digest, fingerprint_candidates

#: Stage names used for cache addressing and progress events.
STAGE_MATCHER_FIT = "matcher-fit"
STAGE_REPRESENTATION = "representation"
STAGE_GRAPH_BUILD = "graph-build"
STAGE_GNN = "gnn"
STAGE_MODEL = "model-build"

#: Array-key prefix of trained GNN parameters inside gnn stage artifacts.
_GNN_STATE_PREFIX = "state::"

#: Event statuses.
STATUS_HIT = "hit"
STATUS_COMPUTED = "computed"


@dataclass(frozen=True)
class StageEvent:
    """What happened to one stage during a pipeline run.

    ``elapsed_seconds`` is the stage's *original* compute time: on a
    cache hit it is read back from the artifact metadata, so run-time
    analyses (Table 9) see the cost of producing the artifact rather
    than the near-zero cost of loading it.
    """

    stage: str
    key: str
    status: str
    elapsed_seconds: float

    @property
    def cached(self) -> bool:
        """Whether the stage was served from the cache."""
        return self.status == STATUS_HIT


@dataclass
class PipelineResult:
    """Outcome of a staged run.

    Attributes
    ----------
    solution:
        The MIER solution over the test pairs.
    graph:
        The multiplex intent graph the run predicted over.
    events:
        One :class:`StageEvent` per stage, in run order: the run's only
        record of where its time went.
    """

    solution: MIERSolution
    graph: MultiplexGraph
    events: list[StageEvent] = field(default_factory=list)

    @property
    def timings(self) -> FlexERTimings:
        """The Table 9 view of :attr:`events` (original compute times).

        ``model-build`` is not one of FlexER's phases and stays out.
        """
        seconds: dict[str, float] = {}
        gnn_seconds: dict[str, float] = {}
        for event in self.events:
            stage, _, intent = event.stage.partition(":")
            if stage == STAGE_GNN:
                gnn_seconds[intent] = event.elapsed_seconds
            else:
                seconds[stage] = event.elapsed_seconds
        return FlexERTimings(
            matcher_training_seconds=seconds.get(STAGE_MATCHER_FIT, 0.0),
            representation_seconds=seconds.get(STAGE_REPRESENTATION, 0.0),
            graph_build_seconds=seconds.get(STAGE_GRAPH_BUILD, 0.0),
            gnn_seconds_per_intent=gnn_seconds,
        )

    def event(self, stage: str) -> StageEvent:
        """The event of ``stage`` (raises ``KeyError`` for unknown stages)."""
        for event in self.events:
            if event.stage == stage:
                return event
        raise KeyError(f"no event recorded for stage {stage!r}")

    def stage_status(self) -> dict[str, str]:
        """Mapping from stage name to ``hit`` / ``computed``."""
        return {event.stage: event.status for event in self.events}

    @property
    def cached_stages(self) -> tuple[str, ...]:
        """Stages that were served from the cache."""
        return tuple(event.stage for event in self.events if event.cached)

    @property
    def computed_stages(self) -> tuple[str, ...]:
        """Stages that had to be recomputed."""
        return tuple(event.stage for event in self.events if not event.cached)


@dataclass
class ModelFitResult:
    """Outcome of :meth:`PipelineRunner.fit_model`.

    Attributes
    ----------
    model:
        The assembled, persistable :class:`~repro.model.ResolverModel`.
    pipeline:
        The staged run that produced it (corpus solution over the test
        split, stage events including the ``model-build`` stage).
    """

    model: object
    pipeline: PipelineResult

    @property
    def solution(self) -> MIERSolution:
        """The corpus MIER solution (over the split's test pairs)."""
        return self.pipeline.solution


class PipelineRunner:
    """Execute FlexER as cached, addressable stages.

    All components are constructed through :mod:`repro.registry` from
    the specs carried by the run's :class:`~repro.config.FlexERConfig`
    (``config.solver``, ``config.graph_builder``, ``config.classifier``),
    and the normalized specs participate in every stage fingerprint — so
    two runs of the same registry-spec'd configuration address the same
    artifacts and warm re-runs are byte-identical cache hits.

    Parameters
    ----------
    cache:
        Shared artifact cache; ``None`` creates a private in-memory one.
    augment_with_scores:
        Concatenate matcher likelihoods onto the latent representations
        (Section 4.1.1; on by default).
    feature_config:
        Optional pair-feature encoding override shared by all matchers.
    executor:
        Sharded-execution backend override: an
        :class:`~repro.exec.Executor`, a registry spec, or ``None`` to
        follow each run's ``config.executor``.  Executors fan out the
        embarrassingly parallel stages (pair encoding, per-intent
        matcher and GNN training) without changing results, so they
        deliberately do not participate in stage fingerprints — cached
        artifacts stay valid across executor choices.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        augment_with_scores: bool = True,
        feature_config: PairFeatureConfig | None = None,
        executor: object = None,
    ) -> None:
        self.cache = cache or ArtifactCache()
        self.augment_with_scores = augment_with_scores
        self.feature_config = feature_config
        self.executor_override = executor
        # Executor instances memoized by canonical spec, so a batch grid
        # over one runner reuses one worker pool across scenarios
        # instead of paying pool start-up per run.
        self._executors: dict[str, Executor] = {}

    # -------------------------------------------------------------- factories

    def _make_solver(
        self, solver_spec: dict[str, object], intents: tuple[str, ...], config: FlexERConfig
    ):
        return SOLVERS.create(
            solver_spec,
            intents=intents,
            matcher_config=config.matcher,
            feature_config=self.feature_config,
        )

    def _feature_fingerprint(self) -> object:
        return asdict(self.feature_config or PairFeatureConfig())

    def executor_for(self, config: FlexERConfig) -> Executor:
        """The executor of a run: the runner override or the config spec.

        Instances are memoized by canonical spec so repeated runs (batch
        grids, warm re-runs) share one worker pool.
        """
        source = self.executor_override if self.executor_override is not None else config.executor
        if isinstance(source, Executor):
            if config.retry is not None:
                source.retry = config.retry
            return source
        key = canonical_json(executor_spec(source))
        executor = self._executors.get(key)
        if executor is None:
            executor = make_executor(source)
            self._executors[key] = executor
        # Retry is carried outside the spec (it never changes results,
        # so it must not perturb memoization keys or fingerprints); a
        # memoized executor picks up the current config's policy.
        executor.retry = config.retry
        return executor

    # ------------------------------------------------------------------- run

    def run(
        self,
        split: DatasetSplit,
        intents: Sequence[str],
        config: FlexERConfig | None = None,
        intent_subset: Sequence[str] | None = None,
        target_intents: Sequence[str] | None = None,
    ) -> PipelineResult:
        """Run the staged pipeline over a dataset split.

        The matchers train on ``split.train``; the validation part (when
        non-empty) selects each GNN's best epoch; the solution covers
        ``split.test``.  ``intent_subset`` restricts the graph layers
        (Figure 6) and ``target_intents`` restricts which intents get a
        GNN (defaults to the graph's layers).  Runs sharing one runner
        share its cache, so e.g. a second run over the same training
        pairs restores the fitted matchers instead of re-training them.
        """
        result, _ = self._execute(split, intents, config, intent_subset, target_intents)
        return result

    def _execute(
        self,
        split: DatasetSplit,
        intents: Sequence[str],
        config: FlexERConfig | None = None,
        intent_subset: Sequence[str] | None = None,
        target_intents: Sequence[str] | None = None,
    ) -> tuple[PipelineResult, dict[str, object]]:
        """Run the stages and return the result plus fitted internals.

        The internals dict (fitted solver, combined representations, the
        graph, per-intent trained GNN states) is what
        :meth:`fit_model` assembles into a persistable
        :class:`~repro.model.ResolverModel`; :meth:`run` discards it.
        """
        intents = tuple(intents)
        if not intents:
            raise IntentError("the pipeline requires at least one intent")
        config = config or FlexERConfig()
        layer_intents = self._resolve_layers(intents, intent_subset)
        targets = tuple(target_intents) if target_intents is not None else layer_intents
        outside = set(targets) - set(layer_intents)
        if outside:
            raise IntentError(
                f"target intents {sorted(outside)} are not part of the graph layers"
            )

        train = split.train
        valid = split.valid if len(split.valid) > 0 else None
        test = split.test
        events: list[StageEvent] = []
        solver_spec = SOLVERS.normalize(config.solver)
        executor = self.executor_for(config)

        fingerprint_train = fingerprint_candidates(train)
        fingerprint_valid = fingerprint_candidates(valid)
        fingerprint_test = fingerprint_candidates(test)

        # Stage 1 — matcher-fit.
        solver, matcher_event = self._run_matcher_fit(
            train, intents, config, fingerprint_train, solver_spec, executor
        )
        events.append(matcher_event)

        # Canonical candidate order shared by every downstream stage.
        parts: list[CandidateSet] = [train]
        if valid is not None:
            parts.append(valid)
        parts.append(test)
        combined, ranges = combine_candidate_sets(parts)
        train_index = ranges[0]
        valid_index = ranges[1] if valid is not None else None
        test_index = ranges[-1]

        # Stage 2 — representation.
        representations, representation_event = self._run_representation(
            solver,
            combined,
            intents,
            matcher_event.key,
            [fingerprint_train, fingerprint_valid, fingerprint_test],
        )
        events.append(representation_event)

        # Stage 3 — graph-build.
        graph, graph_event = self._run_graph_build(
            representations, layer_intents, config, representation_event.key
        )
        events.append(graph_event)

        # Stage 4 — one GNN per target intent.
        predictions: dict[str, np.ndarray] = {}
        probabilities: dict[str, np.ndarray] = {}
        gnn_states: dict[str, dict[str, np.ndarray]] = {}
        gnn_outcomes = self._run_gnn_stage(
            graph,
            targets,
            config,
            graph_event.key,
            train,
            valid,
            train_index,
            valid_index,
            executor,
        )
        for intent in targets:
            layer_probabilities, gnn_event, state = gnn_outcomes[intent]
            events.append(gnn_event)
            test_probabilities = layer_probabilities[test_index]
            probabilities[intent] = test_probabilities
            predictions[intent] = (test_probabilities >= 0.5).astype(np.int64)
            gnn_states[intent] = state

        solution = MIERSolution(
            candidates=test,
            predictions=predictions,
            probabilities=probabilities,
            solver_name=f"FlexER[{solver_spec['type']}]",
        )
        internals: dict[str, object] = {
            "solver": solver,
            "representations": representations,
            "graph": graph,
            "gnn_states": gnn_states,
            "layer_intents": layer_intents,
            "targets": targets,
        }
        return PipelineResult(solution=solution, graph=graph, events=events), internals

    # ------------------------------------------------------------------- fit

    def fit_model(
        self,
        split: DatasetSplit,
        intents: Sequence[str],
        config: FlexERConfig | None = None,
        retriever: object = "ann_knn",
    ) -> ModelFitResult:
        """Run the staged pipeline and assemble a :class:`ResolverModel`.

        Executes all four stages over ``split`` (sharing the runner's
        artifact cache), then bundles the fitted solver state, corpus
        representations, multiplex-graph payload, per-intent trained GNN
        parameters (plus their per-convolution corpus hidden states for
        frozen online inference), and a fitted candidate retriever into
        one persistable model.  The assembled model is itself a
        cacheable stage output (``model-build``): re-fitting the same
        configuration over the same data restores the model from the
        cache.
        """
        # Imported lazily: repro.model imports this module at start-up.
        from ..model import MODEL_SCHEMA_VERSION, ResolverModel, fingerprint_corpus
        from ..registry import CANDIDATE_RETRIEVERS

        intents = tuple(intents)
        config = config or FlexERConfig()
        retriever_spec = CANDIDATE_RETRIEVERS.normalize(retriever)
        # Built before any stage runs, so an invalid retriever argument
        # fails at once rather than after every matcher and GNN trained.
        candidate_retriever = CANDIDATE_RETRIEVERS.create(retriever_spec)
        result, internals = self._execute(split, intents, config)
        corpus = split.train.dataset
        key = digest(
            STAGE_MODEL,
            [(event.stage, event.key) for event in result.events],
            retriever_spec,
            fingerprint_corpus(corpus),
            MODEL_SCHEMA_VERSION,
        )
        artifact = self.cache.get(STAGE_MODEL, key)
        if artifact is not None:
            model = ResolverModel.from_payload(artifact.arrays, artifact.metadata)
            result.events.append(
                StageEvent(STAGE_MODEL, key, STATUS_HIT, artifact.elapsed_seconds)
            )
            return ModelFitResult(model=model, pipeline=result)

        start = time.perf_counter()
        model = ResolverModel.from_fit(
            config=config,
            intents=intents,
            split=split,
            solver=internals["solver"],
            representations=internals["representations"],
            graph=internals["graph"],
            gnn_states=internals["gnn_states"],
            retriever=candidate_retriever,
            retriever_spec=retriever_spec,
            augment_with_scores=self.augment_with_scores,
            feature_config=self.feature_config,
        )
        elapsed = time.perf_counter() - start
        arrays, metadata = model.to_payload()
        self.cache.put(STAGE_MODEL, key, stage_artifact(arrays, elapsed, **metadata))
        result.events.append(StageEvent(STAGE_MODEL, key, STATUS_COMPUTED, elapsed))
        return ModelFitResult(model=model, pipeline=result)

    # ----------------------------------------------------------------- stages

    @staticmethod
    def _resolve_layers(
        intents: tuple[str, ...], intent_subset: Sequence[str] | None
    ) -> tuple[str, ...]:
        if intent_subset is None:
            return intents
        unknown = set(intent_subset) - set(intents)
        if unknown:
            raise IntentError(
                f"intent subset contains unknown intents: {sorted(unknown)}"
            )
        return tuple(intent_subset)

    def matcher_fit_key(
        self,
        train: CandidateSet,
        intents: Sequence[str],
        config: FlexERConfig,
    ) -> str:
        """The matcher-fit stage key of a run over ``train``.

        Exposed so a fitted :class:`~repro.model.ResolverModel` can seed
        a query-time cache with its solver state: the online exact path
        then *hits* this stage instead of re-fitting matchers.
        """
        # The executor is deliberately absent from the stage key:
        # sharded training and encoding are bit-identical to serial, so
        # artifacts cached under any executor serve every other one.
        return digest(
            STAGE_MATCHER_FIT,
            SOLVERS.normalize(config.solver),
            list(tuple(intents)),
            config.matcher,
            self._feature_fingerprint(),
            fingerprint_candidates(train),
        )

    def seed_matcher_artifact(
        self,
        train: CandidateSet,
        intents: Sequence[str],
        config: FlexERConfig,
        state: Mapping[str, np.ndarray],
        elapsed_seconds: float = 0.0,
    ) -> str:
        """Pre-populate the matcher-fit stage with already-fitted state.

        Returns the seeded stage key.  Subsequent runs over a split whose
        training part fingerprints identically restore the solver from
        this artifact (a cache *hit*) rather than re-fitting it.
        """
        key = self.matcher_fit_key(train, intents, config)
        self.cache.put(
            STAGE_MATCHER_FIT,
            key,
            stage_artifact(
                dict(state),
                elapsed_seconds,
                solver=str(SOLVERS.normalize(config.solver)["type"]),
                num_train_pairs=len(train),
            ),
        )
        return key

    def _run_matcher_fit(
        self,
        train: CandidateSet,
        intents: tuple[str, ...],
        config: FlexERConfig,
        fingerprint_train: str,
        solver_spec: dict[str, object],
        executor: Executor | None = None,
    ):
        key = digest(
            STAGE_MATCHER_FIT,
            solver_spec,
            list(intents),
            config.matcher,
            self._feature_fingerprint(),
            fingerprint_train,
        )
        solver = self._make_solver(solver_spec, intents, config)
        if executor is not None:
            # Runtime fan-out wiring for per-intent training and batch
            # encoding (both no-ops under the serial executor).
            solver.executor = executor
            solver.encoder.executor = executor
        artifact = self.cache.get(STAGE_MATCHER_FIT, key)
        if artifact is not None:
            solver.load_state_dict(artifact.arrays)
            event = StageEvent(
                STAGE_MATCHER_FIT, key, STATUS_HIT, artifact.elapsed_seconds
            )
            return solver, event
        start = time.perf_counter()
        solver.fit(train)
        elapsed = time.perf_counter() - start
        self.cache.put(
            STAGE_MATCHER_FIT,
            key,
            stage_artifact(
                solver.state_dict(),
                elapsed,
                solver=str(solver_spec["type"]),
                num_train_pairs=len(train),
            ),
        )
        return solver, StageEvent(STAGE_MATCHER_FIT, key, STATUS_COMPUTED, elapsed)

    def _run_representation(
        self,
        solver,
        combined: CandidateSet,
        intents: tuple[str, ...],
        matcher_key: str,
        data_fingerprints: list[str],
    ):
        key = digest(
            STAGE_REPRESENTATION,
            matcher_key,
            self.augment_with_scores,
            data_fingerprints,
        )
        artifact = self.cache.get(STAGE_REPRESENTATION, key)
        if artifact is not None:
            representations = {intent: artifact.arrays[intent] for intent in intents}
            event = StageEvent(
                STAGE_REPRESENTATION, key, STATUS_HIT, artifact.elapsed_seconds
            )
            return representations, event
        start = time.perf_counter()
        representations = compute_representations(
            solver, combined, self.augment_with_scores
        )
        elapsed = time.perf_counter() - start
        self.cache.put(
            STAGE_REPRESENTATION,
            key,
            stage_artifact(
                representations,
                elapsed,
                augment_with_scores=self.augment_with_scores,
                num_pairs=len(combined),
            ),
        )
        return representations, StageEvent(
            STAGE_REPRESENTATION, key, STATUS_COMPUTED, elapsed
        )

    def _run_graph_build(
        self,
        representations: dict[str, np.ndarray],
        layer_intents: tuple[str, ...],
        config: FlexERConfig,
        representation_key: str,
    ):
        builder_spec = GRAPH_BUILDERS.normalize(config.graph_builder)
        key = digest(
            STAGE_GRAPH_BUILD,
            builder_spec,
            representation_key,
            config.graph,
            list(layer_intents),
        )
        artifact = self.cache.get(STAGE_GRAPH_BUILD, key)
        if artifact is not None:
            graph = _graph_from_artifact(artifact)
            event = StageEvent(
                STAGE_GRAPH_BUILD, key, STATUS_HIT, artifact.elapsed_seconds
            )
            return graph, event
        start = time.perf_counter()
        builder = GRAPH_BUILDERS.create(builder_spec, config=config.graph)
        graph = builder.build(representations, intents=layer_intents)
        elapsed = time.perf_counter() - start
        self.cache.put(STAGE_GRAPH_BUILD, key, _graph_to_artifact(graph, elapsed))
        return graph, StageEvent(STAGE_GRAPH_BUILD, key, STATUS_COMPUTED, elapsed)

    def _gnn_key(
        self,
        classifier_spec: dict[str, object],
        graph_key: str,
        config: FlexERConfig,
        intent: str,
        train_index: np.ndarray,
        valid_index: np.ndarray | None,
    ) -> str:
        # The graph key already pins the representations, layer set, and
        # (through the data fingerprints) every label matrix; adding the
        # classifier spec, GNN config, and split sizes pins the model and
        # its supervision.  The executor stays out of the key: sharded
        # GNN training is bit-identical to serial.
        return digest(
            STAGE_GNN,
            classifier_spec,
            graph_key,
            config.gnn,
            intent,
            int(train_index.shape[0]),
            int(valid_index.shape[0]) if valid_index is not None else 0,
        )

    def _store_gnn_artifact(
        self,
        stage: str,
        key: str,
        probabilities: np.ndarray,
        best_f1: float,
        elapsed: float,
        intent: str,
        state: Mapping[str, np.ndarray],
    ) -> None:
        arrays: dict[str, np.ndarray] = {
            "probabilities": probabilities,
            "best_validation_f1": np.array([best_f1]),
        }
        # Trained parameters ride along under a reserved prefix so a
        # model fit over a warm cache restores the intent's GNN weights
        # without retraining.
        for name, array in state.items():
            arrays[f"{_GNN_STATE_PREFIX}{name}"] = array
        self.cache.put(stage, key, stage_artifact(arrays, elapsed, intent=intent))

    @staticmethod
    def _gnn_state_from_artifact(artifact: Artifact) -> dict[str, np.ndarray]:
        """Extract the trained-parameter arrays of a cached gnn artifact."""
        return {
            key[len(_GNN_STATE_PREFIX) :]: array
            for key, array in artifact.arrays.items()
            if key.startswith(_GNN_STATE_PREFIX)
        }

    def _run_gnn_stage(
        self,
        graph: MultiplexGraph,
        targets: tuple[str, ...],
        config: FlexERConfig,
        graph_key: str,
        train: CandidateSet,
        valid: CandidateSet | None,
        train_index: np.ndarray,
        valid_index: np.ndarray | None,
        executor: Executor | None,
    ) -> dict[str, tuple[np.ndarray, StageEvent, dict[str, np.ndarray]]]:
        """Run (or restore) one GNN per target intent; parallel across intents.

        Cache lookups and stores stay in the calling process; only the
        cache-missing trainings fan out — with a parallel executor, one
        task per intent, each shipping the graph payload plus that
        intent's supervision arrays and returning layer probabilities
        that are bit-identical to the serial training.  Each outcome is
        ``(layer_probabilities, event, state)``: the state holds the
        trained parameter arrays for model assembly; a cached
        artifact without them (written before they were persisted) counts
        as a miss and is replaced by a retrained one.
        """
        classifier_spec = INTENT_CLASSIFIERS.normalize(config.classifier)
        valid_labels_of = (
            (lambda intent: valid.labels(intent))
            if valid is not None and valid_index is not None
            else (lambda intent: None)
        )
        outcomes: dict[str, tuple[np.ndarray, StageEvent, dict[str, np.ndarray]]] = {}
        pending: list[tuple[str, str, str]] = []
        for intent in targets:
            stage = f"{STAGE_GNN}:{intent}"
            key = self._gnn_key(
                classifier_spec, graph_key, config, intent, train_index, valid_index
            )
            artifact = self.cache.get(
                stage, key, require=lambda found: bool(self._gnn_state_from_artifact(found))
            )
            if artifact is not None:
                outcomes[intent] = (
                    artifact.arrays["probabilities"],
                    StageEvent(stage, key, STATUS_HIT, artifact.elapsed_seconds),
                    self._gnn_state_from_artifact(artifact),
                )
                continue
            pending.append((intent, stage, key))
        if not pending:
            return outcomes

        if executor is not None and executor.is_parallel and len(pending) > 1:
            jobs = [
                ClassifierJob(
                    intent=intent,
                    train_index=train_index,
                    train_labels=train.labels(intent),
                    valid_index=valid_index,
                    valid_labels=valid_labels_of(intent),
                )
                for intent, _, _ in pending
            ]
            results = run_classifier_jobs(graph, classifier_spec, config.gnn, jobs, executor)
            for (intent, stage, key), (layer_probabilities, best_f1, elapsed, state) in zip(
                pending, results
            ):
                self._store_gnn_artifact(
                    stage, key, layer_probabilities, best_f1, elapsed, intent, state
                )
                outcomes[intent] = (
                    layer_probabilities,
                    StageEvent(stage, key, STATUS_COMPUTED, elapsed),
                    state,
                )
            return outcomes

        for intent, stage, key in pending:
            start = time.perf_counter()
            classifier = INTENT_CLASSIFIERS.create(classifier_spec, config=config.gnn)
            result = classifier.fit_predict(
                graph,
                target_intent=intent,
                train_index=train_index,
                train_labels=train.labels(intent),
                valid_index=valid_index,
                valid_labels=valid_labels_of(intent),
            )
            elapsed = time.perf_counter() - start
            state = classifier.model_state()
            self._store_gnn_artifact(
                stage, key, result.probabilities, result.best_validation_f1, elapsed, intent, state
            )
            outcomes[intent] = (
                result.probabilities,
                StageEvent(stage, key, STATUS_COMPUTED, elapsed),
                state,
            )
        return outcomes


# ------------------------------------------------------------ graph artifacts


def _graph_to_artifact(graph: MultiplexGraph, elapsed_seconds: float) -> Artifact:
    """Serialize a multiplex graph into a cacheable artifact.

    Uses the graph's :meth:`~repro.graph.multiplex.MultiplexGraph.to_payload`
    round-trip — the same arrays the process executor ships to GNN
    workers — so cached graphs and shipped graphs rebuild identically.
    """
    payload = graph.to_payload()
    return stage_artifact(
        {
            "features": payload["features"],
            "sources": payload["sources"],
            "targets": payload["targets"],
        },
        elapsed_seconds,
        intents=payload["intents"],
        num_pairs=payload["num_pairs"],
        intra_edge_count=payload["intra_edge_count"],
        inter_edge_count=payload["inter_edge_count"],
    )


def _graph_from_artifact(artifact: Artifact) -> MultiplexGraph:
    """Rebuild a multiplex graph from a cached artifact.

    ``to_payload`` exports edges grouped by target with per-target
    insertion order preserved, so the reconstruction is edge-for-edge
    identical to the original graph and GNN training over it is
    byte-identical.
    """
    metadata = artifact.metadata
    return MultiplexGraph.from_payload(
        {
            "intents": metadata["intents"],
            "num_pairs": metadata["num_pairs"],
            "features": artifact.arrays["features"],
            "sources": artifact.arrays["sources"],
            "targets": artifact.arrays["targets"],
            "intra_edge_count": metadata["intra_edge_count"],
            "inter_edge_count": metadata["inter_edge_count"],
        }
    )
