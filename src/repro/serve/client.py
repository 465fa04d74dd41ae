"""Asyncio client for the NDJSON serving protocol.

:class:`ServeClient` multiplexes many concurrent requests over one TCP
connection: each request gets a monotonically increasing ``id``, a
background reader task matches response lines back to the pending
futures, and callers simply ``await client.query(...)``.

Example
-------
>>> async with ServeClient("127.0.0.1", 7171) as client:   # doctest: +SKIP
...     result = await client.query([record])
...     print(result.predictions)
"""

from __future__ import annotations

import asyncio
import itertools
import json
import numbers
from collections.abc import Sequence

from ..data.records import Record
from ..exceptions import (
    ConnectionLostError,
    ModelUnavailableError,
    QueryError,
    QueryTimeoutError,
    ReloadError,
    ReproError,
    ServeError,
    ServerOverloadedError,
)
from ..faults import RetryPolicy
from ..model import QueryResult
from .protocol import MAX_LINE_BYTES, record_to_json, result_from_json

__all__ = ["ServeClient"]

#: Wire error ``type`` values mapped back to library exception classes.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    "ServeError": ServeError,
    "ReloadError": ReloadError,
    "ServerOverloadedError": ServerOverloadedError,
    "QueryTimeoutError": QueryTimeoutError,
    "QueryError": QueryError,
    "ModelUnavailableError": ModelUnavailableError,
}

#: Operations safe to resend when the connection dies mid-request: the
#: failure may have struck before *or after* server-side execution, so
#: only requests whose double execution is indistinguishable from a
#: single one qualify.  Every current op is a read or an idempotent
#: evict — but the gate is explicit so future mutating ops default to
#: fail-fast.
_IDEMPOTENT_OPS = frozenset({"query", "ping", "models", "stats", "reload"})

#: Transport failures worth a reconnect-and-resend.
_RETRYABLE_ERRORS = (ConnectionLostError, ConnectionError, OSError)


class ServeClient:
    """One multiplexed NDJSON connection to an :class:`AsyncResolverServer`.

    Parameters
    ----------
    host, port:
        The server's TCP endpoint.
    retry:
        Optional :class:`~repro.faults.RetryPolicy` for transparent
        reconnect-and-resend when the connection dies mid-request.
        Only idempotent operations are retried (every current op is);
        each resend opens a fresh connection if needed, uses a fresh
        request id, and backs off with the policy's jittered delays.
        ``None`` (the default) fails fast with
        :class:`~repro.exceptions.ConnectionLostError`.

    Use as an async context manager (``async with ServeClient(...)``),
    or call :meth:`connect` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7171,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.retry = retry
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()
        self._conn_lock = asyncio.Lock()
        # Bumped on every (re)connect; a failed request remembers the
        # generation it failed on so concurrent retries reconnect once,
        # not once each.
        self._generation = 0
        self._closed = False

    async def connect(self) -> "ServeClient":
        """Open the connection and start the response-reader task."""
        # The protocol allows response lines up to MAX_LINE_BYTES; the
        # default 64 KiB stream limit would make readline() raise on
        # any large batch response.
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._reader_task = asyncio.ensure_future(self._read_responses())
        self._generation += 1
        self._closed = False
        return self

    async def _reconnect(self, failed_generation: int) -> None:
        """Re-open the connection unless another retry already did."""
        async with self._conn_lock:
            if self._closed:
                raise ServeError("client is closed")
            if self._generation != failed_generation:
                return
            await self._teardown(ConnectionLostError("connection lost"))
            await self.connect()

    async def _teardown(self, error: Exception) -> None:
        """Stop the reader, close the transport, fail anything pending."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._reader = None
        self._fail_pending(error)

    async def close(self) -> None:
        """Close the connection; outstanding requests fail with ServeError."""
        self._closed = True
        # A deliberate close is not a transport fault: pending requests
        # fail with a plain (non-retryable) ServeError.
        await self._teardown(ServeError("connection closed"))

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ---------------------------------------------------------------- requests

    async def query(
        self,
        records: Sequence[Record],
        model: str | None = None,
        intents: Sequence[str] | None = None,
        k: int | None = None,
        mode: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Resolve ``records`` remotely; mirrors
        :meth:`~repro.serve.server.AsyncResolverServer.query`.

        Returns a rebuilt :class:`~repro.model.QueryResult` whose arrays
        are byte-identical to the server-side result (JSON numbers
        round-trip IEEE doubles exactly).

        Raises the library exception matching the server's error
        (:class:`~repro.exceptions.ServerOverloadedError`,
        :class:`~repro.exceptions.QueryTimeoutError`, ...).
        """
        payload: dict[str, object] = {
            "op": "query",
            "records": [record_to_json(record) for record in records],
        }
        if model is not None:
            payload["model"] = model
        if intents is not None:
            payload["intents"] = list(intents)
        if k is not None:
            # Anything but an integer goes as given, for the server to
            # reject instead of this client truncating it.
            integral = isinstance(k, numbers.Integral) and not isinstance(k, bool)
            payload["k"] = int(k) if integral else k
        if mode is not None:
            payload["mode"] = mode
        if timeout is not None:
            payload["timeout"] = float(timeout)
        return result_from_json(await self._request(payload))

    async def ping(self) -> str:
        """Liveness probe; returns ``"pong"``."""
        return await self._request({"op": "ping"})

    async def models(self) -> list[dict[str, object]]:
        """The server's registry listing."""
        return await self._request({"op": "models"})

    async def stats(self) -> dict[str, object]:
        """The server's serving counters."""
        return await self._request({"op": "stats"})

    async def reload(self, model: str | None = None) -> dict[str, object]:
        """Ask the server to re-read ``model``'s artifact from disk.

        The server evicts the entry (in-flight queries finish on the old
        instance) and lazily re-loads on the next query, picking up any
        update segments appended by ``python -m repro.pipeline update``.
        Returns ``{"model": ..., "reloaded": True, "dropped": bool}``.

        Raises :class:`~repro.exceptions.ReloadError` when the entry is
        instance-backed (nothing on disk to re-read).
        """
        payload: dict[str, object] = {"op": "reload"}
        if model is not None:
            payload["model"] = model
        return await self._request(payload)

    # ---------------------------------------------------------------- plumbing

    async def _request(self, payload: dict[str, object]) -> object:
        policy = self.retry
        retryable = policy is not None and payload.get("op") in _IDEMPOTENT_OPS
        attempts = policy.attempts if retryable else 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(policy.delay(attempt))
            generation = self._generation
            try:
                return await self._send_once(payload)
            except _RETRYABLE_ERRORS as error:
                last_error = error
                if attempt + 1 >= attempts:
                    raise
                try:
                    await self._reconnect(generation)
                except _RETRYABLE_ERRORS as reconnect_error:
                    # The endpoint may still be coming back; keep the
                    # remaining attempts (and their backoff) alive.
                    last_error = reconnect_error
        raise last_error

    async def _send_once(self, payload: dict[str, object]) -> object:
        """Send one request line (fresh id) and await its response."""
        writer = self._writer
        if writer is None:
            if self._closed or self._generation == 0:
                raise ServeError("client is not connected (use 'async with')")
            raise ConnectionLostError("connection lost")
        request_id = next(self._ids)
        payload = dict(payload)
        payload["id"] = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        try:
            async with self._write_lock:
                writer.write(data)
                await writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_responses(self) -> None:
        reader = self._reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    self._fail_pending(
                        ConnectionLostError("server closed the connection")
                    )
                    return
                try:
                    response = json.loads(line)
                except ValueError:
                    continue
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue
                if response.get("ok"):
                    future.set_result(response.get("result"))
                else:
                    error = response.get("error") or {}
                    cls = _ERROR_TYPES.get(str(error.get("type")), ServeError)
                    message = str(error.get("message", "error"))
                    if cls is ModelUnavailableError:
                        future.set_exception(
                            cls(message, retry_after=error.get("retry_after"))
                        )
                    else:
                        future.set_exception(cls(message))
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # readline() raises it past the stream limit
        ) as error:
            self._fail_pending(ConnectionLostError(f"connection lost: {error}"))
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - a dead reader must not hang callers
            self._fail_pending(ConnectionLostError(f"response reader failed: {error}"))

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
