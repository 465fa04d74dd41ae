"""Asyncio serving core: micro-batching, backpressure, timeouts.

:class:`AsyncResolverServer` turns the fit-once/query-many
:class:`~repro.model.QuerySession` API into something that holds
traffic.  Concurrent ``await server.query(...)`` calls targeting the
same *(model, intents, k)* group are coalesced into one micro-batch and
executed as a single session query; the per-request results are sliced
back out of the batch result.  Coalescing is semantics-free because
``"online"`` inference is per-record independent (PR 5's
batch-independence guarantee, re-asserted bit-for-bit by the serve
tests and the ``serve-smoke`` CI job).

Scheduling model
----------------
Each batch group keeps a pending-request list.  The first arrival arms
a flush timer for the group's current *wait window*; the batch flushes
when either the window elapses or the pending record count reaches
``max_batch_size``, whichever comes first.  The window adapts between
``min_wait_us`` and ``max_wait_us`` from an exponential moving average
of batch fill: heavy traffic (batches filling up) earns the full
window, sparse traffic decays toward ``min_wait_us`` so lone requests
are not held hostage by an empty batch.

``"exact"`` mode queries are *never* coalesced — exact replay is
transductive (every pair in the batch lands in the replayed test
split), so batching would change results.  They still get queueing,
backpressure, timeouts, and session pooling.

Backpressure is a bounded admission counter: when
``max_queue`` requests are already waiting or executing, new ones are
rejected immediately with
:class:`~repro.exceptions.ServerOverloadedError` instead of growing an
unbounded queue.  Every request also carries a deadline that covers its
whole lifetime — batching wait, session queueing, and execution —
enforced with :class:`~repro.exceptions.QueryTimeoutError`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..data.records import Record
from ..exceptions import (
    ConfigurationError,
    IntentError,
    ModelUnavailableError,
    QueryError,
    QueryTimeoutError,
    ServeError,
    ServerOverloadedError,
)
from ..faults import inject
from ..model import QueryResult, QuerySession
from .registry import DEFAULT_MODEL, ModelRegistry

__all__ = ["AsyncResolverServer", "ServeConfig", "ServeStats"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of :class:`AsyncResolverServer`.

    Attributes
    ----------
    max_batch_size:
        Flush a micro-batch as soon as it holds this many records.
    max_wait_us:
        Upper bound of the adaptive batching window, in microseconds:
        the longest a request waits for companions before its batch
        flushes anyway.
    min_wait_us:
        Lower bound of the adaptive window; the window decays here
        under sparse traffic.
    max_queue:
        Admission bound — the number of requests allowed to be waiting
        or executing at once before new ones are rejected with
        :class:`~repro.exceptions.ServerOverloadedError`.
    sessions_per_model:
        Size of each tenant's :class:`~repro.model.QuerySession` pool,
        i.e. how many batches of one model may execute concurrently.
    default_timeout_seconds:
        Per-request deadline applied when ``query()`` is called without
        an explicit ``timeout`` (``None`` disables the default).
    default_k:
        Candidates retrieved per record when a request does not say.
    default_mode:
        Query mode when a request does not say (``"online"`` coalesces;
        ``"exact"`` never does).
    breaker_failures:
        Consecutive backend failures that trip a model's circuit
        breaker (:class:`~repro.serve.registry.ModelHealth`); while
        open, requests for that model shed immediately with
        :class:`~repro.exceptions.ModelUnavailableError` and a
        retry-after hint.  ``0`` disables the breaker.
    breaker_reset_seconds:
        Cooldown before an open breaker admits a half-open probe; also
        the retry-after hint shed requests carry.
    """

    max_batch_size: int = 16
    max_wait_us: int = 2000
    min_wait_us: int = 100
    max_queue: int = 256
    sessions_per_model: int = 1
    default_timeout_seconds: float | None = 30.0
    default_k: int = 5
    default_mode: str = "online"
    breaker_failures: int = 5
    breaker_reset_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.min_wait_us < 0 or self.max_wait_us < self.min_wait_us:
            raise ConfigurationError(
                "wait window must satisfy 0 <= min_wait_us <= max_wait_us"
            )
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.sessions_per_model < 1:
            raise ConfigurationError("sessions_per_model must be >= 1")
        if self.default_mode not in ("online", "exact"):
            raise ConfigurationError("default_mode must be 'online' or 'exact'")
        if self.breaker_failures < 0:
            raise ConfigurationError("breaker_failures must be >= 0 (0 disables)")
        if self.breaker_reset_seconds <= 0:
            raise ConfigurationError("breaker_reset_seconds must be positive")


@dataclass
class ServeStats:
    """Mutable serving counters (reported by the ``stats`` protocol op).

    ``max_batch_observed`` is the load-bearing one for correctness
    checks: a concurrency test that saw ``max_batch_observed > 1``
    proved requests were actually coalesced, not just serialized.
    """

    requests_total: int = 0
    requests_rejected: int = 0
    requests_shed: int = 0
    requests_timed_out: int = 0
    requests_failed: int = 0
    requests_completed: int = 0
    batches_flushed: int = 0
    records_batched: int = 0
    flushes_on_size: int = 0
    flushes_on_timer: int = 0
    max_batch_observed: int = 0
    exact_queries: int = 0
    wait_window_us: float = 0.0
    queue_depth: int = 0
    _fill_ema: float = field(default=0.0, repr=False)

    def snapshot(self) -> dict[str, object]:
        """A JSON-safe copy of the public counters."""
        return {
            name: getattr(self, name)
            for name in (
                "requests_total",
                "requests_rejected",
                "requests_shed",
                "requests_timed_out",
                "requests_failed",
                "requests_completed",
                "batches_flushed",
                "records_batched",
                "flushes_on_size",
                "flushes_on_timer",
                "max_batch_observed",
                "exact_queries",
                "wait_window_us",
                "queue_depth",
            )
        }


class _Pending:
    """One admitted request waiting in a batch group.

    ``release`` is the request's one-shot admission release: the slot it
    claimed under ``max_queue`` stays held until the request's work is
    actually finished (batch executed, or the request dropped from its
    batch), not merely until the caller stops waiting — so abandoned
    requests cannot let queued work grow past the admission bound.
    """

    __slots__ = ("records", "intents", "k", "future", "release", "started")

    def __init__(self, records, intents, k, future, release):
        self.records = records
        self.intents = intents
        self.k = k
        self.future = future
        self.release = release
        self.started = time.perf_counter()


class _BatchGroup:
    """Pending requests coalescible with each other.

    One group exists per ``(model, intents, k)`` key; requests in a
    group concatenate into a single ``session.query`` call.
    """

    __slots__ = ("key", "pending", "records", "timer", "window_us")

    def __init__(self, key, window_us: float):
        self.key = key
        self.pending: list[_Pending] = []
        self.records = 0
        self.timer: asyncio.TimerHandle | None = None
        self.window_us = window_us


#: Smoothing factor of the batch-fill EMA driving the adaptive window.
_FILL_EMA_ALPHA = 0.2


class AsyncResolverServer:
    """Micro-batched asyncio front end over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        The models to serve.  A convenience: passing a
        :class:`~repro.model.ResolverModel` instead wraps it in a
        single-tenant registry under the name ``"default"``.
    config:
        Scheduling and backpressure knobs (default :class:`ServeConfig`).

    Example
    -------
    >>> server = AsyncResolverServer(model)        # doctest: +SKIP
    >>> async with server:                         # doctest: +SKIP
    ...     result = await server.query([record])
    """

    def __init__(self, registry, config: ServeConfig | None = None) -> None:
        if not isinstance(registry, ModelRegistry):
            model = registry
            registry = ModelRegistry()
            registry.add(DEFAULT_MODEL, model=model)
        self.registry = registry
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.stats.wait_window_us = float(self.config.max_wait_us)
        self._groups: dict[tuple, _BatchGroup] = {}
        self._admitted = 0
        self._session_slots: dict[str, asyncio.Semaphore] = {}
        self._running = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tcp_server: asyncio.base_events.Server | None = None

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Mark the server as accepting requests (idempotent)."""
        self._loop = asyncio.get_running_loop()
        self._running = True

    async def stop(self) -> None:
        """Stop accepting requests and fail everything still pending."""
        self._running = False
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for group in list(self._groups.values()):
            if group.timer is not None:
                group.timer.cancel()
                group.timer = None
            for item in group.pending:
                if not item.future.done():
                    item.future.set_exception(ServeError("server stopped"))
                item.release()
            group.pending.clear()
            group.records = 0
        self._groups.clear()

    async def __aenter__(self) -> "AsyncResolverServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Expose the server over the NDJSON TCP protocol.

        Returns the listening :class:`asyncio.Server`; the bound port is
        ``server.sockets[0].getsockname()[1]`` (useful with ``port=0``).
        """
        from .protocol import MAX_LINE_BYTES, connection_handler

        await self.start()
        # Raise the stream limit to the protocol's line bound; the
        # default 64 KiB would make readline() raise on modest batches.
        self._tcp_server = await asyncio.start_server(
            connection_handler(self), host=host, port=port, limit=MAX_LINE_BYTES
        )
        return self._tcp_server

    # ------------------------------------------------------------------- query

    async def query(
        self,
        records: Sequence[Record],
        model: str = DEFAULT_MODEL,
        intents: Sequence[str] | None = None,
        k: int | None = None,
        mode: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Resolve ``records`` against ``model``'s corpus, coalescing with
        concurrent callers.

        Parameters
        ----------
        records:
            The new records to resolve (a micro-request; often one).
        model:
            Registry name of the tenant to query (default ``"default"``).
        intents:
            Intents to predict (default: all the model's intents).
        k:
            Candidates per record (default
            :attr:`ServeConfig.default_k`).
        mode:
            ``"online"`` (coalesced) or ``"exact"`` (never coalesced);
            default :attr:`ServeConfig.default_mode`.
        timeout:
            Deadline in seconds covering batching wait + execution
            (default :attr:`ServeConfig.default_timeout_seconds`).

        Returns
        -------
        QueryResult
            Bit-identical to a serial ``session.query(records, ...)``
            call for the same records.

        Raises
        ------
        ServeError
            If the server is not running or arguments are invalid.
        ServerOverloadedError
            When ``max_queue`` requests are already admitted.
        QueryTimeoutError
            When the deadline passes before the result is ready.
        QueryError
            When the records themselves are invalid (bad schema,
            duplicate ids within the request) or ``k`` is not an
            integer >= 1.
        IntentError
            When ``intents`` names an intent the model lacks.
        """
        if not self._running:
            raise ServeError("server is not running (use 'async with' or start())")
        records = list(records)
        if not records:
            raise ServeError("query requires at least one record")
        config = self.config
        k = config.default_k if k is None else k
        mode = config.default_mode if mode is None else mode
        if mode not in ("online", "exact"):
            raise ServeError(f"unknown query mode {mode!r}")
        if timeout is None:
            timeout = config.default_timeout_seconds
        self.stats.requests_total += 1
        if self._admitted >= config.max_queue:
            self.stats.requests_rejected += 1
            raise ServerOverloadedError(
                f"request queue is full ({config.max_queue} in flight)"
            )
        entry = self.registry.entry(model)
        health = entry.health
        health.configure(config.breaker_failures, config.breaker_reset_seconds)
        retry_after = health.allow()
        if retry_after is not None:
            self.stats.requests_shed += 1
            raise ModelUnavailableError(
                f"model {model!r} is shedding load (circuit breaker "
                f"{health.state}); retry in {retry_after:.2f}s",
                retry_after=retry_after,
            )
        if not entry.loaded:
            # First use of a path-registered tenant: materialize the
            # artifact in a worker thread so the event loop (and every
            # pending batch timer) is not stalled for the load duration.
            try:
                await asyncio.get_running_loop().run_in_executor(None, entry.get)
            except Exception:
                # A model that cannot load is the sickest backend of
                # all — repeated failures must trip the breaker.
                health.record_failure()
                raise
        # Validate on the caller's coroutine so one bad request fails
        # alone instead of poisoning the batch it would have joined.
        session = entry.session()
        try:
            records = session.validate(records, intents, k)
        except (QueryError, IntentError):
            # Rejected input never reaches the backend, so it says
            # nothing about the model's health.
            health.release()
            raise
        finally:
            entry.release(session)

        release = self._admit()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            if mode == "exact":
                self.stats.exact_queries += 1
                task = asyncio.ensure_future(
                    self._run_exact(entry, records, intents, k)
                )
                task.add_done_callback(_transfer(future))
                task.add_done_callback(lambda _task: release())
            else:
                self._enqueue(entry, records, intents, k, future, release)
        except BaseException:
            # Ownership of the admission slot was never handed off.
            release()
            raise
        try:
            try:
                if timeout is None:
                    return await asyncio.shield(future)
                return await asyncio.wait_for(asyncio.shield(future), timeout)
            except asyncio.TimeoutError:
                future.cancel()
                self.stats.requests_timed_out += 1
                raise QueryTimeoutError(
                    f"query missed its {timeout:g}s deadline"
                ) from None
            except asyncio.CancelledError:
                # Caller went away (e.g. client disconnect): abandon the
                # request so an in-flight batch skips it on completion.
                # Its admission slot stays held until the batch task
                # drops or finishes it, keeping max_queue a bound on
                # real outstanding work.
                future.cancel()
                raise
        finally:
            if future.done() and not future.cancelled():
                if future.exception() is None:
                    self.stats.requests_completed += 1
                elif not isinstance(future.exception(), QueryTimeoutError):
                    self.stats.requests_failed += 1

    def _admit(self):
        """Claim one ``max_queue`` admission slot; returns its one-shot release.

        The slot counts *outstanding work*, so it is released when the
        request's execution finishes or the request is dropped from its
        batch — not when the caller stops waiting.
        """
        self._admitted += 1
        self.stats.queue_depth = self._admitted
        released = False

        def release() -> None:
            nonlocal released
            if released:
                return
            released = True
            self._admitted -= 1
            self.stats.queue_depth = self._admitted

        return release

    # -------------------------------------------------------------- exact path

    async def _run_exact(self, entry, records, intents, k) -> QueryResult:
        """Run one non-coalescible exact-mode request on a pooled session."""
        async with self._slot(entry.name):
            session = entry.session()

            def run_query() -> QueryResult:
                inject("serve.backend")
                return session.query(records, intents=intents, k=k, mode="exact")

            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, run_query
                )
            except QueryError:
                # Rejecting bad input is the backend *working*.
                entry.health.record_success()
                raise
            except Exception:
                entry.health.record_failure()
                raise
            else:
                entry.health.record_success()
                return result
            finally:
                entry.release(session)

    # ---------------------------------------------------------------- batching

    def _enqueue(self, entry, records, intents, k, future, release) -> None:
        """Add an online request to its batch group and arm/advance flushing."""
        key = (entry.name, None if intents is None else tuple(intents), k)
        group = self._groups.get(key)
        if group is None:
            group = _BatchGroup(key, window_us=self.stats.wait_window_us)
            self._groups[key] = group
        group.pending.append(_Pending(records, intents, k, future, release))
        group.records += len(records)
        if group.records >= self.config.max_batch_size:
            self._flush(group, entry, reason="size")
        elif group.timer is None:
            delay = max(group.window_us, self.config.min_wait_us) / 1e6
            group.timer = asyncio.get_running_loop().call_later(
                delay, self._flush, group, entry, "timer"
            )

    def _flush(self, group: _BatchGroup, entry, reason: str) -> None:
        """Close the group's current batch and hand it to an executor task."""
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        pending: list[_Pending] = []
        for item in group.pending:
            if item.future.done():
                item.release()  # abandoned while queued: free its slot now
            else:
                pending.append(item)
        group.pending = []
        group.records = 0
        if not pending:
            return
        batch_records = sum(len(item.records) for item in pending)
        stats = self.stats
        stats.batches_flushed += 1
        stats.records_batched += batch_records
        stats.flushes_on_size += reason == "size"
        stats.flushes_on_timer += reason == "timer"
        stats.max_batch_observed = max(stats.max_batch_observed, batch_records)
        self._adapt_window(batch_records)
        for sub_batch in _partition_disjoint(pending):
            asyncio.ensure_future(self._run_batch(entry, group.key, sub_batch))

    def _adapt_window(self, batch_records: int) -> None:
        """Track batch fill and steer the wait window between its bounds."""
        config = self.config
        fill = min(batch_records / config.max_batch_size, 1.0)
        stats = self.stats
        stats._fill_ema += _FILL_EMA_ALPHA * (fill - stats._fill_ema)
        stats.wait_window_us = config.min_wait_us + stats._fill_ema * (
            config.max_wait_us - config.min_wait_us
        )
        for group in self._groups.values():
            group.window_us = stats.wait_window_us

    async def _run_batch(self, entry, key, sub_batch: list[_Pending]) -> None:
        """Execute one coalesced sub-batch and split results per request."""
        _, intents, k = key
        try:
            async with self._slot(entry.name):
                # Requests abandoned (timed out / disconnected) while
                # waiting on the session slot are dropped here, so their
                # records never reach the executor.
                live = [item for item in sub_batch if not item.future.done()]
                if not live:
                    return
                records: list[Record] = []
                for item in live:
                    records.extend(item.records)
                session = entry.session()

                def run_query() -> QueryResult:
                    inject("serve.backend")
                    return session.query(records, intents=intents, k=k, mode="online")

                try:
                    result = await asyncio.get_running_loop().run_in_executor(
                        None, run_query
                    )
                except QueryError:
                    entry.health.record_success()
                    raise
                except Exception:
                    entry.health.record_failure()
                    raise
                else:
                    entry.health.record_success()
                finally:
                    entry.release(session)
                for item, part in zip(live, _split_result(result, live)):
                    if not item.future.done():
                        part.elapsed_seconds = time.perf_counter() - item.started
                        item.future.set_result(part)
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for item in sub_batch:
                if not item.future.done():
                    item.future.set_exception(error)
        finally:
            for item in sub_batch:
                item.release()

    def _slot(self, model_name: str) -> asyncio.Semaphore:
        """The tenant's concurrency gate (one permit per pooled session)."""
        slots = self._session_slots.get(model_name)
        if slots is None:
            slots = asyncio.Semaphore(self.config.sessions_per_model)
            self._session_slots[model_name] = slots
        return slots


def _transfer(future: asyncio.Future):
    """Copy a task's outcome onto ``future`` unless it already settled."""

    def done(task: asyncio.Task) -> None:
        """Mirror the finished task's result/exception onto the future."""
        if future.done():
            if not task.cancelled():
                task.exception()  # retrieve it so asyncio does not warn
            return
        if task.cancelled():
            future.cancel()
        elif task.exception() is not None:
            future.set_exception(task.exception())
        else:
            future.set_result(task.result())

    return done


def _partition_disjoint(pending: list[_Pending]) -> list[list[_Pending]]:
    """Split requests into sub-batches with disjoint record-id sets.

    Two concurrent requests may legitimately name the same record id;
    one ``session.query`` batch cannot (duplicate ids are a validation
    error).  First-fit partitioning keeps every request whole while
    packing non-conflicting requests together — usually one sub-batch.
    """
    batches: list[tuple[set[str], list[_Pending]]] = []
    for item in pending:
        ids = {record.record_id for record in item.records}
        for seen, batch in batches:
            if not (seen & ids):
                seen |= ids
                batch.append(item)
                break
        else:
            batches.append((set(ids), [item]))
    return [batch for _, batch in batches]


def _split_result(result: QueryResult, sub_batch: list[_Pending]) -> list[QueryResult]:
    """Slice one coalesced batch result back into per-request results.

    Pairs are emitted in query-record order with each record
    contributing ``len(candidates_per_record[id])`` consecutive rows,
    so per-request views are contiguous slices of the batch arrays —
    and byte-identical to what a solo query would have produced.
    """
    parts: list[QueryResult] = []
    offset = 0
    for item in sub_batch:
        ids = tuple(record.record_id for record in item.records)
        per_record = {rid: result.candidates_per_record[rid] for rid in ids}
        width = sum(len(candidates) for candidates in per_record.values())
        stop = offset + width
        parts.append(
            QueryResult(
                pairs=result.pairs[offset:stop],
                record_ids=ids,
                intents=result.intents,
                probabilities={
                    intent: np.ascontiguousarray(array[offset:stop])
                    for intent, array in result.probabilities.items()
                },
                predictions={
                    intent: np.ascontiguousarray(array[offset:stop])
                    for intent, array in result.predictions.items()
                },
                candidates_per_record=per_record,
                mode=result.mode,
            )
        )
        offset = stop
    return parts
