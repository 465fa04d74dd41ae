"""Multi-tenant model registry for the serving layer.

A :class:`ModelRegistry` names the :class:`~repro.model.ResolverModel`s
one server process exposes.  Models registered by *path* are loaded
lazily — on the first query that names them — and memory-mapped by
default (``mmap=True``), so a registry holding many tenants keeps
resident memory bounded by the models actually in use, not by the sum
of all artifact sizes.  Each entry also owns a small pool of
:class:`~repro.model.QuerySession`s so concurrent micro-batches never
share mutable session state.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator, Mapping
from pathlib import Path

from ..exceptions import ReloadError, ServeError
from ..model import QuerySession, ResolverModel

__all__ = ["DEFAULT_MODEL", "ModelEntry", "ModelHealth", "ModelRegistry"]

#: Name a single-model registry serves under when none is given.
DEFAULT_MODEL = "default"


class ModelHealth:
    """Consecutive-failure circuit breaker for one registry entry.

    Tracks backend execution outcomes per model and sheds load when the
    backend looks sick, so a broken tenant fails fast with a typed
    :class:`~repro.exceptions.ModelUnavailableError` instead of queueing
    doomed work behind every healthy tenant.

    States
    ------
    ``closed``
        Healthy; every request is admitted.  ``threshold`` consecutive
        failures trip the breaker to ``open``.
    ``open``
        Shedding; :meth:`allow` returns a retry-after hint (seconds
        until the cooldown elapses).  After ``reset_seconds`` the next
        request is admitted as a probe (``half_open``).
    ``half_open``
        Exactly one probe request is in flight; its success closes the
        breaker, its failure re-opens it for another cooldown.  Other
        requests keep shedding while the probe runs.

    A ``threshold`` of 0 disables the breaker entirely.  Input errors
    (:class:`~repro.exceptions.QueryError`) must be recorded as
    *successes* — a backend that rejects bad records is working.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 5,
        reset_seconds: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.threshold = int(threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self.failures_total = 0
        self.successes_total = 0
        self.opens_total = 0
        self.shed_total = 0

    def configure(self, threshold: int, reset_seconds: float) -> None:
        """Adopt the serving config's breaker settings (idempotent)."""
        self.threshold = int(threshold)
        self.reset_seconds = float(reset_seconds)

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> float | None:
        """Admit (``None``) or shed (seconds until the next probe slot).

        Must be called once per request *before* backend work; an open
        breaker counts the request as shed and returns the retry-after
        hint callers surface to clients.
        """
        with self._lock:
            if self.threshold <= 0 or self._state == self.CLOSED:
                return None
            if self._state == self.OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.reset_seconds:
                    self.shed_total += 1
                    return max(self.reset_seconds - elapsed, 0.0)
                self._state = self.HALF_OPEN
                self._probing = True
                return None
            # half_open: admit exactly one probe at a time.
            if self._probing:
                self.shed_total += 1
                return self.reset_seconds
            self._probing = True
            return None

    def release(self) -> None:
        """An admitted request ended before reaching the backend.

        Frees a half-open probe slot it may hold, so the next request
        probes instead of the breaker shedding until a restart.
        """
        with self._lock:
            self._probing = False

    def record_success(self) -> None:
        """Backend executed a request: close the breaker."""
        with self._lock:
            self.successes_total += 1
            self._consecutive_failures = 0
            self._probing = False
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        """Backend failed a request: count it, trip when over threshold."""
        with self._lock:
            self.failures_total += 1
            self._consecutive_failures += 1
            was_probe, self._probing = self._probing, False
            if self.threshold <= 0:
                return
            if was_probe or self._consecutive_failures >= self.threshold:
                if self._state != self.OPEN:
                    self.opens_total += 1
                self._state = self.OPEN
                self._opened_at = self._clock()

    def snapshot(self) -> dict[str, object]:
        """JSON-safe view of the breaker (part of ``describe()``)."""
        with self._lock:
            return {
                "state": self._state,
                "threshold": self.threshold,
                "reset_seconds": self.reset_seconds,
                "consecutive_failures": self._consecutive_failures,
                "failures_total": self.failures_total,
                "successes_total": self.successes_total,
                "opens_total": self.opens_total,
                "shed_total": self.shed_total,
            }


class ModelEntry:
    """One named model slot: a path or instance plus its session pool.

    Parameters
    ----------
    name:
        Registry name of the tenant.
    path:
        Artifact path for lazy loading (exclusive with ``model``).
    model:
        An already-loaded model to serve as-is (exclusive with ``path``).
    mmap:
        Memory-map the payload arrays when loading from ``path``.
    """

    def __init__(
        self,
        name: str,
        path: str | Path | None = None,
        model: ResolverModel | None = None,
        mmap: bool = True,
    ) -> None:
        if (path is None) == (model is None):
            raise ServeError(
                f"model {name!r} needs exactly one of path= or model="
            )
        self.name = name
        self.path = None if path is None else Path(path)
        self.mmap = bool(mmap)
        #: Per-tenant circuit breaker; the server stamps its configured
        #: threshold/cooldown here and consults it before every query.
        self.health = ModelHealth()
        self._model = model
        self._sessions: list[QuerySession] = []
        self._lock = threading.Lock()
        # Bumped by evict(); sessions borrowed before an eviction carry
        # an older generation and are dropped on release instead of
        # re-entering the pool still wrapping the evicted model.
        self._generation = 0

    @property
    def loaded(self) -> bool:
        """Whether the model artifact has been materialized."""
        return self._model is not None

    def get(self) -> ResolverModel:
        """The model, loading it from ``path`` on first use (thread-safe)."""
        if self._model is None:
            with self._lock:
                if self._model is None:
                    self._model = ResolverModel.load(self.path, mmap=self.mmap)
        return self._model

    def session(self) -> QuerySession:
        """Borrow a session from the pool (create one when empty).

        Sessions carry warm per-query state (frozen GNNs, layer
        indexes, the exact-mode runner), so borrowing/returning beats
        constructing a fresh session per batch.
        """
        with self._lock:
            if self._sessions:
                return self._sessions.pop()
            generation = self._generation
        session = QuerySession(self.get())
        session._registry_generation = generation
        return session

    def release(self, session: QuerySession) -> None:
        """Return a borrowed session to the pool.

        A session borrowed before an :meth:`evict` is stale — it still
        wraps the evicted model instance — and is silently dropped
        instead of being pooled for reuse.
        """
        with self._lock:
            if getattr(session, "_registry_generation", None) == self._generation:
                self._sessions.append(session)

    def evict(self) -> bool:
        """Drop the loaded model and its sessions; keep the registration.

        Returns ``True`` when a loaded model was actually dropped.
        Only path-backed entries can be evicted — an instance-backed
        entry has nothing to reload from.
        """
        if self.path is None:
            return False
        with self._lock:
            dropped = self._model is not None
            self._model = None
            self._sessions.clear()
            self._generation += 1
        return dropped

    def reload(self) -> bool:
        """Pick up an updated artifact: evict now, re-load lazily.

        The serving pattern behind ``python -m repro.pipeline update``:
        an offline process appends update segments (or rewrites the
        artifact) next to the served path, then asks the server to
        reload.  Eviction bumps the entry generation, so sessions
        borrowed before the reload finish their in-flight queries
        against the old instance and are dropped on release — no query
        is interrupted, and the next borrowed session wraps the freshly
        loaded state.

        Returns whether a loaded model instance was actually dropped
        (``False`` means the entry was not loaded yet, so the next use
        picks up the new bytes anyway).  Raises
        :class:`~repro.exceptions.ReloadError` for instance-backed
        entries, which have no artifact to re-read.
        """
        if self.path is None:
            raise ReloadError(
                f"model {self.name!r} is instance-backed (no artifact path); "
                f"re-register it to serve updated state"
            )
        return self.evict()

    def describe(self) -> dict[str, object]:
        """Summary of the entry for the ``models`` protocol op."""
        info: dict[str, object] = {
            "name": self.name,
            "loaded": self.loaded,
            "mmap": self.mmap,
            "path": None if self.path is None else str(self.path),
            "health": self.health.snapshot(),
        }
        if self.loaded:
            model = self.get()
            info["intents"] = list(model.intents)
            info["corpus_records"] = len(model.corpus)
            info["fingerprint"] = model.fingerprint()
        return info


class ModelRegistry(Mapping):
    """Named collection of servable models (a :class:`Mapping` of entries).

    Example
    -------
    >>> registry = ModelRegistry()                      # doctest: +SKIP
    >>> registry.add("products", path="products.npz")   # doctest: +SKIP
    >>> registry.get("products")                        # doctest: +SKIP
    <repro.model.ResolverModel ...>
    """

    def __init__(self) -> None:
        self._entries: dict[str, ModelEntry] = {}
        self._lock = threading.Lock()

    def add(
        self,
        name: str = DEFAULT_MODEL,
        path: str | Path | None = None,
        model: ResolverModel | None = None,
        mmap: bool = True,
    ) -> ModelEntry:
        """Register a model under ``name``.

        Parameters
        ----------
        name:
            Tenant name clients address the model by.
        path:
            Artifact to load lazily on first use (exclusive with
            ``model``).
        model:
            An already-loaded model (exclusive with ``path``).
        mmap:
            Memory-map path-backed artifacts (default ``True``).

        Raises
        ------
        ServeError
            If ``name`` is already registered or neither/both of
            ``path`` and ``model`` are given.
        """
        entry = ModelEntry(name, path=path, model=model, mmap=mmap)
        with self._lock:
            if name in self._entries:
                raise ServeError(f"model {name!r} is already registered")
            self._entries[name] = entry
        return entry

    def entry(self, name: str) -> ModelEntry:
        """The :class:`ModelEntry` registered under ``name``.

        Raises :class:`~repro.exceptions.ServeError` for unknown names,
        listing the registered ones.
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "none"
            raise ServeError(
                f"unknown model {name!r} (registered: {known})"
            ) from None

    def get(self, name: str = DEFAULT_MODEL) -> ResolverModel:
        """The loaded model registered under ``name`` (loads lazily)."""
        return self.entry(name).get()

    def evict(self, name: str) -> bool:
        """Drop ``name``'s loaded model to reclaim memory (stays registered)."""
        return self.entry(name).evict()

    def reload(self, name: str = DEFAULT_MODEL) -> bool:
        """Re-read ``name``'s artifact (evict + lazy load on next use).

        Raises :class:`~repro.exceptions.ReloadError` when the entry is
        instance-backed, and :class:`~repro.exceptions.ServeError` for
        unknown names.
        """
        return self.entry(name).reload()

    def describe(self) -> list[dict[str, object]]:
        """Per-entry summaries, sorted by name (the ``models`` op payload)."""
        return [self._entries[name].describe() for name in sorted(self._entries)]

    def __getitem__(self, name: str) -> ModelEntry:
        return self.entry(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
