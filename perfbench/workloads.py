"""The benchmark's four workloads, built from the library's public API only.

Each workload makes its inputs from the run seed, sets itself up (input
generation, any model fit, one untimed warm-up op), runs ops until a
deadline, and afterwards checks its outputs.  Ops run one at a time
except in ``serve``, whose op is one request of a closed loop of
concurrent callers.

Training seeds are fixed, so a fit's outcome depends only on its corpus.
The fit workloads draw their corpora from a fixed pool whose per-intent
test F1 tables and pair counts are stored under ``expected/``
(``record_expected.py`` rewrites them); the run seed picks which pool
corpora the ops fit.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import Dataset, FlexERConfig, GNNConfig, GraphConfig, MatcherConfig, Record
from repro.datasets import BENCHMARK_LABELERS, TitlePerturber
from repro.model import ResolverModel
from repro.serve import AsyncResolverServer

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Training and split seed of every fit (the run seed only picks data).
FIT_SEED = 42

#: Query width of serve and update-stream requests.
QUERY_K = 5


def fit_config(matcher_epochs: int, gnn_epochs: int) -> FlexERConfig:
    return FlexERConfig(
        matcher=MatcherConfig(
            hidden_dims=(64, 32), n_features=256, epochs=matcher_epochs, seed=FIT_SEED
        ),
        graph=GraphConfig(k_neighbors=6),
        gnn=GNNConfig(hidden_dim=48, epochs=gnn_epochs, seed=FIT_SEED),
    )


class CountingLabeler:
    """The benchmark's ground-truth pair labeler, counting its calls."""

    def __init__(self, benchmark) -> None:
        self.rule = BENCHMARK_LABELERS[benchmark.name]
        self.products = benchmark.record_products
        self.calls = 0

    @property
    def intents(self) -> tuple[str, ...]:
        return tuple(self.rule.intent_names)

    def __call__(self, left: Record, right: Record) -> dict[str, int]:
        self.calls += 1
        return self.rule.label_pair(self.products[left.record_id], self.products[right.record_id])


def head_corpus(benchmark, size: int) -> Dataset:
    """The first ``size`` records of a generated benchmark as a corpus."""
    dataset = benchmark.dataset
    return Dataset(
        records=list(dataset.records)[:size], name=dataset.name, attributes=dataset.attributes
    )


def same_answer(left, right) -> bool:
    """Whether two query results are byte-identical."""
    return (
        left.pairs == right.pairs
        and left.candidates_per_record == right.candidates_per_record
        and left.intents == right.intents
        and all(
            left.probabilities[intent].dtype == right.probabilities[intent].dtype
            and left.probabilities[intent].tobytes() == right.probabilities[intent].tobytes()
            and left.predictions[intent].tobytes() == right.predictions[intent].tobytes()
            for intent in left.intents
        )
    )


@dataclass
class Timed:
    """What a run of ops produced: per-op latencies (s) and failures."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    #: The benchmark labeler's call count of each op (fit workloads).
    labeler_calls: list[int] = field(default_factory=list)


class Workload:
    """Base class: subclasses implement ``setup``, ``op`` and ``check``."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> object:
        """Run one op; what it returns goes to :meth:`record`."""
        raise NotImplementedError

    def record(self, outcome: object, timed: Timed) -> None:
        """Keep what the output check needs from a finished op (untimed)."""

    def timed_op(self, timed: Timed, tracer=None) -> None:
        start = time.perf_counter()
        try:
            with tracer.op() if tracer is not None else contextlib.nullcontext():
                outcome = self.op()
        except Exception:  # a failed op counts against error_rate; the run goes on
            traceback.print_exc()
            timed.failed += 1
            return
        timed.latencies.append(time.perf_counter() - start)
        self.record(outcome, timed)

    def run(self, deadline: float) -> Timed:
        """Run ops until ``deadline`` (a ``perf_counter`` reading)."""
        timed = Timed()
        while time.perf_counter() < deadline:
            self.timed_op(timed)
        return timed

    def run_traced(self, deadline: float, tracer, wrapped) -> tuple[Timed, Timed]:
        """Run pairs of one untraced and one traced op until ``deadline``.

        ``wrapped()`` is the context that installs the tracer's wrappers.
        Pairs alternate which op runs first, so an order effect cancels
        out of the overhead estimate.  Returns the untraced and the
        traced ops.
        """
        untraced, traced = Timed(), Timed()
        pairs = 0
        while time.perf_counter() < deadline:
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for position, tracing in enumerate(order):
                if position:
                    self.repeat_input()
                if tracing:
                    with wrapped():
                        self.timed_op(traced, tracer)
                else:
                    self.timed_op(untraced)
            pairs += 1
        return untraced, traced

    def repeat_input(self) -> None:
        """Make the next op reuse the previous op's inputs, where it can."""

    def check(self) -> int:
        """Check the outputs of the timed ops; returns how many ops failed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started."""

    def server_stats(self) -> dict | None:
        """The serving workload's ``ServeStats`` snapshot; ``None`` elsewhere."""
        return None


async def _gather(coroutines) -> None:
    await asyncio.gather(*coroutines)


# ----------------------------------------------------------------- fits


class FitWorkload(Workload):
    """Cold ``repro.fit`` of raw records, one pool corpus per op.

    Fit time follows a corpus's candidate-pair count, which varies by a
    third across the pool.  So that a run's median does not depend on
    which corpora its seed happens to pick, the pool is cut into strata
    of similar pair count; each round of ops fits one seed-chosen corpus
    per stratum, visiting the strata in an order whose every prefix is
    balanced around the pool median.
    """

    dataset = ""
    products_per_domain = 0
    records = 0
    matcher_epochs = 0
    gnn_epochs = 0
    #: Size of the corpus pool the stored F1 tables cover.
    pool_size = 48
    #: Stratum visiting order of one round (strata sorted by pair count).
    stratum_order = (3, 4, 2, 5, 1, 6, 0, 7)

    def pool_corpus(self, index: int) -> tuple[Dataset, CountingLabeler]:
        benchmark = repro.load_benchmark(
            self.dataset,
            products_per_domain=self.products_per_domain,
            num_pairs=10,  # only the records are used
            seed=1000 + index,
        )
        return head_corpus(benchmark, self.records), CountingLabeler(benchmark)

    def fit(self, corpus: Dataset, labeler: CountingLabeler):
        return repro.fit(
            corpus,
            intents=labeler.intents,
            labeler=labeler,
            config=fit_config(self.matcher_epochs, self.gnn_epochs),
            split_seed=FIT_SEED,
        )

    @staticmethod
    def f1_table(model) -> dict[str, str]:
        return {
            intent: f"{evaluation.f1:.6f}"
            for intent, evaluation in model.fit_result.intent_evaluations().items()
        }

    def setup(self) -> None:
        stored = json.loads((EXPECTED_DIR / f"{self.name}.json").read_text())
        self.expected = stored["f1"]
        by_size = sorted(range(self.pool_size), key=lambda index: stored["pairs"][str(index)])
        strata = len(self.stratum_order)
        width = self.pool_size // strata
        members = [by_size[stratum * width:(stratum + 1) * width] for stratum in range(strata)]
        picks = np.random.default_rng(self.seed).integers(width, size=(64, strata))
        self.sequence = [
            members[stratum][picks[round_, stratum]]
            for round_ in range(len(picks))
            for stratum in self.stratum_order
        ]
        self.corpora = {index: self.pool_corpus(index) for index in self.sequence[: 2 * strata]}
        self.tables: list[tuple[int, dict[str, str]]] = []
        self.position = 0
        # Warm-up op: the pool's median-size corpus, the same for every seed.
        self.fit(*self.pool_corpus(by_size[self.pool_size // 2]))

    def op(self):
        index = self.sequence[self.position % len(self.sequence)]
        self.position += 1
        if index not in self.corpora:
            self.corpora[index] = self.pool_corpus(index)
        corpus, labeler = self.corpora[index]
        labeler.calls = 0
        return index, labeler, self.fit(corpus, labeler)

    def record(self, outcome, timed: Timed) -> None:
        index, labeler, model = outcome
        timed.labeler_calls.append(labeler.calls)
        self.tables.append((index, self.f1_table(model)))
        # A fit leaves hundreds of MB of autograd reference cycles to the
        # cyclic collector; collecting them after the op's clock stopped
        # keeps one op's garbage out of the next op's peak RSS.
        del model, outcome
        gc.collect()

    def repeat_input(self) -> None:
        # The second op of a traced pair refits the first op's corpus, so
        # the overhead estimate compares like with like.
        self.position -= 1

    def check(self) -> int:
        return sum(table != self.expected.get(str(index)) for index, table in self.tables)


class FitDeep(FitWorkload):
    name = "fit-deep"
    dataset = "amazon_mi"
    products_per_domain = 10
    records = 30
    matcher_epochs = 5
    gnn_epochs = 20


class FitWide(FitWorkload):
    name = "fit-wide"
    dataset = "walmart_amazon"
    products_per_domain = 20
    records = 60
    matcher_epochs = 1
    gnn_epochs = 2


# ------------------------------------------------------ serving workloads


class ServedModel(Workload):
    """Shared set-up of serve and update-stream: a model over 40 records.

    The model trains briefly (the fit-wide epochs): query and update cost
    depend on the model's shapes, not on how long it trained, and a short
    fit keeps the repeated set-ups cheap.
    """

    corpus_records = 40

    def fit_served_model(self) -> None:
        benchmark = repro.load_benchmark("amazon_mi", products_per_domain=80, seed=self.seed)
        labeler = CountingLabeler(benchmark)
        self.model = repro.fit(
            head_corpus(benchmark, self.corpus_records),
            intents=labeler.intents,
            labeler=labeler,
            config=fit_config(1, 2),
            split_seed=FIT_SEED,
        )
        self.pool = list(benchmark.dataset.records)[self.corpus_records:]
        self.perturber = TitlePerturber(rng=np.random.default_rng(self.seed))
        self.issued = 0

    def variant(self, record: Record, prefix: str) -> Record:
        """A fresh record: a perturbed title under a never-used id."""
        self.issued += 1
        return Record(
            record_id=f"{prefix}{self.issued:07d}",
            values={"title": self.perturber.perturb(record.values["title"])},
            source=record.source,
        )


class Serve(ServedModel):
    """A closed loop of concurrent callers against an in-process server."""

    name = "serve"
    callers = 16
    #: Every n-th request is replayed serially by the output check.
    check_every = 16
    #: Alternating untraced/traced slices of a traced run.
    trace_slices = 8

    def setup(self) -> None:
        self.fit_served_model()
        self.loop = asyncio.new_event_loop()
        self.server = AsyncResolverServer(self.model)
        self.loop.run_until_complete(self.server.start())
        self.requests = 0
        self.samples: list[tuple[Record, object]] = []
        # Warm-up op: one full batch builds the session's kNN indexes and
        # frozen GNN states.
        warm_up = [self._request(None, Timed()) for _ in range(self.callers)]
        self.loop.run_until_complete(_gather(warm_up))
        self.samples.clear()

    def server_stats(self) -> dict:
        return self.server.stats.snapshot()

    async def _request(self, tracer, timed: Timed) -> None:
        record = self.variant(self.pool[self.requests % len(self.pool)], "q")
        sampled = self.requests % self.check_every == 0
        self.requests += 1
        start = time.perf_counter()
        try:
            with tracer.op() if tracer is not None else contextlib.nullcontext():
                result = await self.server.query([record], k=QUERY_K, mode="online")
        except Exception:  # a failed request counts against error_rate
            traceback.print_exc()
            timed.failed += 1
            return
        timed.latencies.append(time.perf_counter() - start)
        if sampled:
            self.samples.append((record, result))

    async def _caller(self, deadline: float, tracer, timed: Timed) -> None:
        # At least one request each, so every traced slice sees a batch.
        await self._request(tracer, timed)
        while time.perf_counter() < deadline:
            await self._request(tracer, timed)

    def _load(self, deadline: float, timed: Timed, tracer=None) -> None:
        callers = [self._caller(deadline, tracer, timed) for _ in range(self.callers)]
        self.loop.run_until_complete(_gather(callers))

    def run(self, deadline: float) -> Timed:
        timed = Timed()
        self._load(deadline, timed)
        return timed

    def run_traced(self, deadline: float, tracer, wrapped) -> tuple[Timed, Timed]:
        # Requests overlap, so tracing switches between time slices, each
        # drained before the next starts.
        untraced, traced = Timed(), Timed()
        start = time.perf_counter()
        for index in range(1, self.trace_slices + 1):
            slice_end = start + (deadline - start) * index / self.trace_slices
            if index % 2:
                self._load(slice_end, untraced)
            else:
                with wrapped():
                    self._load(slice_end, traced, tracer)
        return untraced, traced

    def check(self) -> int:
        session = self.model.session()
        return sum(
            not same_answer(
                session.query([record], k=QUERY_K, mode="online"), served
            )
            for record, served in self.samples
        )

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


class UpdateStream(ServedModel):
    """Write cycles (update, save) interleaved with single-record reads.

    Each cycle edits one record of the fitted corpus (a fresh perturbation
    of its original title), adds new records and deletes the oldest
    record an earlier cycle added.  Editing a fitted record refreshes its
    ~40 corpus pairs while an added record has a handful, so always
    editing fitted records keeps the cycle cost from drifting with the
    corpus mix.
    """

    name = "update-stream"
    new_per_cycle = 3
    probes_per_cycle = 2

    def setup(self) -> None:
        self.fit_served_model()
        self.rng = np.random.default_rng(self.seed)
        self.fitted = list(self.model.corpus.records)
        self.added: deque[str] = deque()
        self.path = self.workdir / "model.npz"
        self.model.save(self.path)
        self.session = self.model.session()
        self.op()  # warm-up op (the only cycle with nothing to delete)

    def op(self) -> None:
        edited = self.fitted[self.rng.integers(len(self.fitted))]
        upserts = [
            Record(
                edited.record_id,
                {"title": self.perturber.perturb(edited.values["title"])},
                edited.source,
            )
        ]
        for _ in range(self.new_per_cycle):
            self.issued += 1
            source = self.pool[self.issued % len(self.pool)]
            upserts.append(Record(f"u{self.issued:07d}", dict(source.values), source.source))
        deletes = [self.added.popleft()] if self.added else []
        self.model.update(upserts=upserts, deletes=deletes, compact="never")
        self.added.extend(record.record_id for record in upserts[1:])
        self.model.save(self.path)
        probes = [self.variant(record, "p") for record in upserts[1 : 1 + self.probes_per_cycle]]
        self.last_probes = [
            (probe, self.session.query([probe], k=QUERY_K, mode="online")) for probe in probes
        ]

    def check(self) -> int:
        loaded = ResolverModel.load(self.path)
        session = loaded.session()
        same = loaded.fingerprint() == self.model.fingerprint() and all(
            same_answer(session.query([probe], k=QUERY_K, mode="online"), answer)
            for probe, answer in self.last_probes
        )
        return 0 if same else 1


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (FitDeep, FitWide, Serve, UpdateStream)
}
