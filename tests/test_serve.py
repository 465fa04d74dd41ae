"""Tests for the ``repro.serve`` micro-batched asyncio serving layer.

Covers the serving correctness contract: coalesced micro-batches are
bit-identical to per-request serial queries, exact mode is never
coalesced, backpressure rejects fast, deadlines cancel cleanly,
client disconnects do not poison in-flight batches, and memory-mapped
tenants answer byte-identically to eagerly loaded ones.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import shutil

import numpy as np
import pytest

import repro
from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.data.records import Dataset, Record
from repro.datasets import BENCHMARK_LABELERS, load_benchmark
from repro.exceptions import (
    ConfigurationError,
    QueryError,
    QueryTimeoutError,
    ReloadError,
    ServeError,
    ServerOverloadedError,
)
from repro.model import ResolverModel
from repro.serve import (
    DEFAULT_MODEL,
    AsyncResolverServer,
    ModelRegistry,
    ServeClient,
    ServeConfig,
)


@pytest.fixture(scope="module")
def serve_world(tmp_path_factory):
    """A fitted model, its saved artifact, and held-out query records."""
    benchmark = load_benchmark("amazon_mi", num_pairs=80, products_per_domain=8, seed=11)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    holdout = records[-6:]
    corpus = Dataset(
        records=records[:-6],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=2),
        gnn=GNNConfig(hidden_dim=16, epochs=4, seed=5),
    )
    model = repro.fit(
        corpus, intents=labeler.intent_names, labeler=label_pair, config=config
    )
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    model.save(path)
    return model, holdout, path


def run(coro):
    """Drive one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


def assert_results_identical(left, right):
    """Assert two QueryResults are bit-identical through ``as_arrays``."""
    left_arrays, left_meta = left.as_arrays()
    right_arrays, right_meta = right.as_arrays()
    assert left_meta == right_meta
    assert sorted(left_arrays) == sorted(right_arrays)
    for name, array in left_arrays.items():
        other = right_arrays[name]
        assert array.dtype == other.dtype, name
        assert array.shape == other.shape, name
        assert np.asarray(array).tobytes() == np.asarray(other).tobytes(), name


def serial_results(model, records, k=5, mode="online"):
    """Per-request ground truth: one session, one query per record."""
    session = model.session()
    return [session.query([record], k=k, mode=mode) for record in records]


class TestCoalescing:
    def test_coalesced_results_bit_identical_to_serial(self, serve_world):
        model, holdout, _ = serve_world
        requests = [holdout[i % len(holdout)] for i in range(12)]
        config = ServeConfig(max_batch_size=6, max_wait_us=200_000, min_wait_us=200_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                results = await asyncio.gather(
                    *(server.query([record], k=5, mode="online") for record in requests)
                )
            return results, server.stats

        served, stats = run(fire())
        assert stats.max_batch_observed > 1, "coalescing never happened"
        assert stats.requests_completed == len(requests)
        assert stats.requests_failed == 0
        for result, expected in zip(served, serial_results(model, requests)):
            assert_results_identical(result, expected)

    def test_exact_mode_is_never_coalesced(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(max_batch_size=8, max_wait_us=200_000, min_wait_us=200_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                results = await asyncio.gather(
                    *(
                        server.query([record], k=5, mode="exact")
                        for record in holdout[:2]
                    )
                )
            return results, server.stats

        served, stats = run(fire())
        assert stats.exact_queries == 2
        assert stats.max_batch_observed <= 1  # exact requests never join a batch
        for result, expected in zip(
            served, serial_results(model, holdout[:2], mode="exact")
        ):
            assert result.mode == "exact"
            assert_results_identical(result, expected)

    def test_conflicting_record_ids_split_into_disjoint_batches(self, serve_world):
        model, holdout, _ = serve_world
        record = holdout[0]
        config = ServeConfig(max_batch_size=8, max_wait_us=100_000, min_wait_us=100_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                return await asyncio.gather(
                    *(server.query([record], k=5, mode="online") for _ in range(3))
                )

        served = run(fire())
        expected = serial_results(model, [record])[0]
        for result in served:
            assert_results_identical(result, expected)

    def test_multi_record_requests_coalesce_too(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(max_batch_size=6, max_wait_us=200_000, min_wait_us=200_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                return await asyncio.gather(
                    server.query(holdout[:2], k=5, mode="online"),
                    server.query(holdout[2:4], k=5, mode="online"),
                )

        first, second = run(fire())
        session = model.session()
        assert_results_identical(first, session.query(holdout[:2], k=5, mode="online"))
        assert_results_identical(second, session.query(holdout[2:4], k=5, mode="online"))


class TestBackpressure:
    def test_queue_full_rejects_immediately(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(
            max_batch_size=16, max_wait_us=500_000, min_wait_us=500_000, max_queue=2
        )

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                pending = [
                    asyncio.ensure_future(server.query([record], mode="online"))
                    for record in holdout[:2]
                ]
                await asyncio.sleep(0.05)  # let both enter the batch group
                with pytest.raises(ServerOverloadedError):
                    await server.query([holdout[2]], mode="online")
                rejected = server.stats.requests_rejected
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                return rejected

        assert run(fire()) == 1

    def test_timeout_mid_batch_raises_and_batch_survives(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(max_batch_size=16, max_wait_us=300_000, min_wait_us=300_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                with pytest.raises(QueryTimeoutError):
                    await server.query([holdout[0]], mode="online", timeout=0.02)
                assert server.stats.requests_timed_out == 1
                # The abandoned request must not poison later traffic.
                await asyncio.sleep(0.35)
                result = await server.query([holdout[1]], mode="online", timeout=5.0)
            return result

        result = run(fire())
        expected = serial_results(model, [holdout[1]])[0]
        assert_results_identical(result, expected)

    def test_abandoned_request_holds_its_slot_until_flush(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(
            max_batch_size=16, max_wait_us=400_000, min_wait_us=400_000, max_queue=1
        )

        async def fire():
            server = AsyncResolverServer(model, config)
            async with server:
                with pytest.raises(QueryTimeoutError):
                    await server.query([holdout[0]], mode="online", timeout=0.02)
                # The timed-out request's records still sit in the batch
                # window: its admission slot must stay held so max_queue
                # keeps bounding real outstanding work.
                with pytest.raises(ServerOverloadedError):
                    await server.query([holdout[1]], mode="online")
                await asyncio.sleep(0.5)  # window elapses, dropped item frees slot
                assert server.stats.queue_depth == 0
                result = await server.query([holdout[1]], mode="online", timeout=5.0)
            return result

        result = run(fire())
        expected = serial_results(model, [holdout[1]])[0]
        assert_results_identical(result, expected)

    def test_query_on_stopped_server_raises(self, serve_world):
        model, holdout, _ = serve_world

        async def fire():
            server = AsyncResolverServer(model)
            with pytest.raises(ServeError):
                await server.query([holdout[0]])

        run(fire())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(min_wait_us=5000, max_wait_us=100)
        with pytest.raises(ConfigurationError):
            ServeConfig(max_queue=0)


class TestQueryArguments:
    """A bad ``k`` is one client's input error, never the model's failure."""

    def test_bad_k_never_reaches_the_breaker(self, serve_world):
        model, holdout, _ = serve_world

        async def fire():
            server = AsyncResolverServer(model)
            async with server:
                # One more than the default breaker threshold of five.
                for _ in range(6):
                    with pytest.raises(QueryError, match="k must be an integer"):
                        await server.query([holdout[0]], k=0)
                result = await server.query([holdout[0]], k=3)
                health = server.registry.entry(DEFAULT_MODEL).health.snapshot()
            return result, health, server.stats

        result, health, stats = run(fire())
        assert health["consecutive_failures"] == 0
        assert health["state"] == "closed"
        assert stats.batches_flushed == 1  # only the valid request ran
        assert_results_identical(result, serial_results(model, [holdout[0]], k=3)[0])

    @pytest.mark.parametrize("k", [2.7, "abc", True])
    def test_non_integer_k_is_rejected_not_coerced(self, serve_world, k):
        model, holdout, _ = serve_world

        async def fire():
            async with AsyncResolverServer(model) as server:
                with pytest.raises(QueryError, match="k must be an integer"):
                    await server.query([holdout[0]], k=k)

        run(fire())

    def test_rejected_half_open_probe_frees_the_probe_slot(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(breaker_failures=1, breaker_reset_seconds=0.05)

        async def fire():
            async with AsyncResolverServer(model, config) as server:
                health = server.registry.entry(DEFAULT_MODEL).health
                health.configure(config.breaker_failures, config.breaker_reset_seconds)
                health.record_failure()  # a sick backend opened the breaker
                await asyncio.sleep(0.1)  # cooldown over: the next request probes
                with pytest.raises(QueryError):
                    await server.query([holdout[0]], k=0)
                result = await server.query([holdout[0]], k=3)
                return result, health.state

        result, state = run(fire())
        assert state == "closed"
        assert_results_identical(result, serial_results(model, [holdout[0]], k=3)[0])


class TestRegistryAndMmap:
    def test_path_backed_tenant_loads_lazily(self, serve_world):
        _, holdout, path = serve_world
        registry = ModelRegistry()
        registry.add("products", path=path, mmap=True)
        entry = registry.entry("products")
        assert not entry.loaded

        async def fire():
            async with AsyncResolverServer(registry) as server:
                return await server.query([holdout[0]], model="products")

        run(fire())
        assert entry.loaded

    def test_mmap_results_byte_identical_to_eager(self, serve_world):
        model, holdout, path = serve_world
        registry = ModelRegistry()
        registry.add("mapped", path=path, mmap=True)
        registry.add("eager", path=path, mmap=False)

        async def fire():
            async with AsyncResolverServer(registry) as server:
                mapped = await asyncio.gather(
                    *(server.query([r], model="mapped", k=5) for r in holdout)
                )
                eager = await asyncio.gather(
                    *(server.query([r], model="eager", k=5) for r in holdout)
                )
            return mapped, eager

        mapped, eager = run(fire())
        expected = serial_results(model, holdout)
        for m, e, x in zip(mapped, eager, expected):
            assert_results_identical(m, e)
            assert_results_identical(m, x)

    def test_two_tenants_with_different_configs(self, serve_world):
        model, holdout, path = serve_world
        registry = ModelRegistry()
        registry.add("inmem", model=model)
        registry.add("ondisk", path=path, mmap=True)
        names = {d["name"] for d in registry.describe()}
        assert names == {"inmem", "ondisk"}

        async def fire():
            async with AsyncResolverServer(registry) as server:
                first = await server.query([holdout[0]], model="inmem")
                second = await server.query([holdout[0]], model="ondisk")
                with pytest.raises(ServeError):
                    await server.query([holdout[0]], model="missing")
            return first, second

        first, second = run(fire())
        assert_results_identical(first, second)

    def test_evict_reloads_on_next_use(self, serve_world):
        _, holdout, path = serve_world
        registry = ModelRegistry()
        registry.add("products", path=path, mmap=True)
        registry.get("products")
        assert registry.evict("products")
        entry = registry.entry("products")
        assert not entry.loaded
        assert registry.get("products") is not None

    def test_session_borrowed_before_evict_is_not_pooled_again(self, serve_world):
        _, _, path = serve_world
        registry = ModelRegistry()
        registry.add("products", path=path, mmap=True)
        entry = registry.entry("products")
        stale = entry.session()  # borrowed, e.g. mid-batch
        assert registry.evict("products")
        entry.release(stale)  # released after the eviction: must be dropped
        fresh = entry.session()
        assert fresh is not stale, "evicted-generation session re-entered the pool"
        # Current-generation sessions still pool normally.
        entry.release(fresh)
        assert entry.session() is fresh


class TestReload:
    def test_registry_reload_picks_up_appended_segments(self, serve_world, tmp_path):
        _, holdout, path = serve_world
        staged = tmp_path / "model.npz"
        shutil.copyfile(path, staged)

        registry = ModelRegistry()
        registry.add("products", path=staged, mmap=True)
        before = registry.get("products")
        base_count = len(before.corpus)

        # Another process appends a delta segment to the artifact.
        offline = ResolverModel.load(staged, mmap=False)
        offline.update(upserts=holdout[:2], compact="never")
        offline.save(staged)

        # Same instance until reload; fresh, segment-replayed one after.
        assert registry.get("products") is before
        assert registry.reload("products")
        after = registry.get("products")
        assert after is not before
        assert len(after.corpus) == base_count + 2
        assert after.fingerprint() == offline.fingerprint()

    def test_reload_of_instance_backed_entry_is_typed_error(self, serve_world):
        model, _, _ = serve_world
        registry = ModelRegistry()
        registry.add("pinned", model=model)
        with pytest.raises(ReloadError, match="instance-backed"):
            registry.reload("pinned")
        # The entry itself stays usable after the refused reload.
        assert registry.get("pinned") is model

    def test_reload_over_tcp_serves_updated_corpus(self, serve_world, tmp_path):
        model, holdout, path = serve_world
        staged = tmp_path / "model.npz"
        shutil.copyfile(path, staged)
        probe = holdout[-1]

        registry = ModelRegistry()
        registry.add(DEFAULT_MODEL, path=staged, mmap=True)
        registry.add("pinned", model=model)

        def corpus_records(listing):
            (entry,) = [d for d in listing if d["name"] == DEFAULT_MODEL]
            return entry["corpus_records"]

        async def fire():
            server = AsyncResolverServer(registry)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with ServeClient("127.0.0.1", port) as client:
                    await client.query([probe], k=3)
                    base_count = corpus_records(await client.models())

                    offline = ResolverModel.load(staged, mmap=False)
                    offline.update(upserts=holdout[:2], compact="never")
                    offline.save(staged)

                    reply = await client.reload()
                    assert reply["reloaded"] and reply["dropped"]
                    served = await client.query([probe], k=3)
                    assert corpus_records(await client.models()) == base_count + 2

                    with pytest.raises(ReloadError, match="instance-backed"):
                        await client.reload("pinned")
                    with pytest.raises(ServeError):
                        await client.reload("missing-entry")
            finally:
                await server.stop()
            return served, offline

        served, offline = run(fire())
        expected = offline.session().query([probe], k=3, mode="online")
        assert_results_identical(served, expected)


class TestRetrievalDedupe:
    def test_duplicate_content_in_one_batch_retrieves_once(self, serve_world):
        model, holdout, _ = serve_world

        class CountingRetriever:
            """Delegate that records the record ids of each retrieve call."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = []

            def retrieve(self, records, k):
                self.calls.append([record.record_id for record in records])
                return self.inner.retrieve(records, k)

        template = holdout[0]
        twins = [
            Record(record_id=f"twin-{i}", values=dict(template.values), source=template.source)
            for i in range(3)
        ]
        counting = CountingRetriever(model.retriever)
        original = model.retriever
        model.retriever = counting
        try:
            session = model.session()
            result = session.query(twins, k=5, mode="online")
        finally:
            model.retriever = original
        # One batch, three identical-content records: one ranking pass
        # over exactly one unique record.
        assert counting.calls == [["twin-0"]]
        per_record = result.candidates_per_record
        assert per_record["twin-0"] == per_record["twin-1"] == per_record["twin-2"]
        for intent in result.intents:
            probabilities = result.probabilities[intent]
            span = len(per_record["twin-0"])
            first = probabilities[:span]
            assert np.array_equal(probabilities[span : 2 * span], first)
            assert np.array_equal(probabilities[2 * span :], first)


class TestTcpProtocol:
    def test_round_trip_matches_serial(self, serve_world):
        model, holdout, _ = serve_world

        async def fire():
            server = AsyncResolverServer(model)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with ServeClient("127.0.0.1", port) as client:
                    assert await client.ping() == "pong"
                    listing = await client.models()
                    assert listing[0]["name"] == DEFAULT_MODEL
                    results = await asyncio.gather(
                        *(client.query([r], k=5, mode="online") for r in holdout[:4])
                    )
                    stats = await client.stats()
                    assert stats["requests_total"] >= 4
            finally:
                await server.stop()
            return results

        served = run(fire())
        for result, expected in zip(served, serial_results(model, holdout[:4])):
            assert_results_identical(result, expected)

    def test_wire_errors_surface_as_typed_exceptions(self, serve_world):
        model, holdout, _ = serve_world

        async def fire():
            server = AsyncResolverServer(model)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with ServeClient("127.0.0.1", port) as client:
                    with pytest.raises(ServeError):
                        await client.query([holdout[0]], model="missing")
            finally:
                await server.stop()

        run(fire())

    def test_bad_k_over_the_wire_is_a_query_error(self, serve_world):
        model, holdout, _ = serve_world
        request = {
            "op": "query",
            "id": 1,
            "records": [
                {
                    "record_id": holdout[0].record_id,
                    "values": dict(holdout[0].values),
                    "source": holdout[0].source,
                }
            ],
            "k": "abc",
            "mode": "online",
        }

        async def fire():
            server = AsyncResolverServer(model)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                response = json.loads(await asyncio.wait_for(reader.readline(), 30))
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                # The bundled client sends a float as given, not truncated.
                async with ServeClient("127.0.0.1", port) as client:
                    with pytest.raises(QueryError, match="k must be an integer"):
                        await client.query([holdout[0]], k=2.5)
            finally:
                await server.stop()
            return response

        response = run(fire())
        assert response["ok"] is False
        assert response["error"]["type"] == "QueryError"

    def test_lines_beyond_default_stream_limit_round_trip(self, serve_world):
        """Request and response lines over 64 KiB must be served, not hang.

        asyncio streams default to a 64 KiB readline limit; both sides
        must raise it to the protocol's MAX_LINE_BYTES or a modest batch
        kills the connection (and, pre-fix, hung every pending caller).
        """
        model, holdout, _ = serve_world
        template = holdout[0]
        # Identical-content twins: retrieval dedupes to one ranking pass,
        # while the shared padding pushes the request line past 64 KiB.
        values = dict(template.values)
        attribute = next(iter(values))
        values[attribute] = (values[attribute] or "") + "x" * 400
        twins = [
            Record(record_id=f"big-{i}", values=dict(values), source=template.source)
            for i in range(300)
        ]
        request = {
            "op": "query",
            "id": 1,
            "records": [
                {"record_id": r.record_id, "values": dict(r.values), "source": r.source}
                for r in twins
            ],
            "k": 5,
            "mode": "online",
        }
        line = json.dumps(request).encode() + b"\n"
        assert len(line) > 64 * 1024  # the request side exceeds the default limit

        async def fire():
            from repro.serve.protocol import MAX_LINE_BYTES

            server = AsyncResolverServer(model)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                # Raw connection first: prove the server both reads and
                # writes single lines larger than 64 KiB.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=MAX_LINE_BYTES
                )
                writer.write(line)
                await writer.drain()
                response_line = await asyncio.wait_for(reader.readline(), 60)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                assert len(response_line) > 64 * 1024
                response = json.loads(response_line)
                assert response["ok"], response.get("error")
                # Then the bundled client, whose reader must survive the
                # same oversized response line.
                async with ServeClient("127.0.0.1", port) as client:
                    result = await asyncio.wait_for(
                        client.query(twins, k=5, mode="online"), 60
                    )
            finally:
                await server.stop()
            return result

        result = run(fire())
        session = model.session()
        expected = session.query(twins, k=5, mode="online")
        assert_results_identical(result, expected)

    def test_client_disconnect_during_flush_does_not_poison_server(self, serve_world):
        model, holdout, _ = serve_world
        config = ServeConfig(max_batch_size=16, max_wait_us=200_000, min_wait_us=200_000)

        async def fire():
            server = AsyncResolverServer(model, config)
            tcp = await server.serve_tcp(host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                # Raw connection: fire a query, then vanish while it is
                # still waiting in the batch window.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = {
                    "op": "query",
                    "id": 1,
                    "records": [
                        {
                            "record_id": holdout[0].record_id,
                            "values": dict(holdout[0].values),
                            "source": holdout[0].source,
                        }
                    ],
                    "mode": "online",
                }
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                await asyncio.sleep(0.02)  # request admitted, batch pending
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                await asyncio.sleep(0.35)  # batch window elapses after the drop
                # The server must still answer new, well-behaved clients.
                async with ServeClient("127.0.0.1", port) as client:
                    result = await client.query(
                        [holdout[1]], k=5, mode="online", timeout=5.0
                    )
            finally:
                await server.stop()
            return result

        result = run(fire())
        expected = serial_results(model, [holdout[1]])[0]
        assert_results_identical(result, expected)


class TestLazyImport:
    def test_repro_serve_is_lazily_importable(self):
        import repro as top

        serve = top.serve
        assert serve.AsyncResolverServer is AsyncResolverServer
        assert "serve" in top.__all__

    def test_single_model_server_wraps_default_registry(self, serve_world):
        model, _, _ = serve_world
        server = AsyncResolverServer(model)
        assert isinstance(server.registry, ModelRegistry)
        assert server.registry.get(DEFAULT_MODEL) is model
