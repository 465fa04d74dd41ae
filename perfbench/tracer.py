"""Outside-in span tracing: time the library's layers without changing it.

A :class:`Tracer` replaces named public functions and methods of the
library with timing wrappers for the length of a traced phase and puts
the originals back afterwards.  Every wrapped call records one
:class:`Span` (name, parent, start, end, item count, attributes).  The
active span travels in a :mod:`contextvars` variable, so nested calls on
one thread (or one asyncio task) form a tree whose root is an *op* span
opened by the benchmark with :meth:`Tracer.op`.  Work that runs on
another thread without the caller's context (serve batches on the
executor thread) starts a tree of its own; the benchmark links such
trees back to the ops they served.

A wrap target is patched at the name its caller looks up: a method on
its class, or a function in every module that imported it by name.  A
target that does not exist raises :class:`WrapTargetMissing` before
anything is patched, so a renamed library function fails the traced run
instead of silently reporting zero.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

#: ``(span id, root id)`` of the innermost open span of this context.
_ACTIVE: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_active_span", default=None
)

#: Attribute set on every wrapper; its value is the span name.
WRAPPER_MARK = "__perfbench_span__"

#: Span name of the op roots the benchmark opens.
OP_SPAN = "op"

#: ``describe(args, kwargs, result) -> (items, attrs)`` of a wrapped call.
Describe = Callable[[tuple, dict, object], tuple[int | None, dict | None]]


class WrapTargetMissing(RuntimeError):
    """A wrap target names a module, class or function that does not exist."""


@dataclass(frozen=True)
class Target:
    """One library callable to wrap.

    ``attr`` is a function name or ``"Class.method"`` inside ``module``;
    ``describe`` turns a finished call into its item count and
    attributes.
    """

    span: str
    module: str
    attr: str
    describe: Describe | None = None

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(slots=True)
class Span:
    """One finished call; times are ``perf_counter_ns`` readings."""

    id: int
    parent: int | None
    root: int
    name: str
    start_ns: int
    end_ns: int
    thread: int
    items: int | None = None
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def resolve(target: Target) -> tuple[object, str, object]:
    """``(owner, name, original)`` of ``target``, or :class:`WrapTargetMissing`."""
    try:
        owner: object = importlib.import_module(target.module)
    except ImportError as error:
        raise WrapTargetMissing(f"wrap target {target.where}: {error}") from None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise WrapTargetMissing(f"wrap target {target.where}: no {part!r}")
    # A method must be defined on the named class itself: patching an
    # inherited name would shadow the base for this class only.
    original = vars(owner).get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if original is None:
        raise WrapTargetMissing(f"wrap target {target.where}: no {name!r}")
    return owner, name, original


def is_wrapped(obj: object) -> bool:
    """Whether ``obj`` (a function, classmethod or staticmethod) is a wrapper."""
    return hasattr(getattr(obj, "__func__", obj), WRAPPER_MARK)


def installed_wrappers(targets: Iterable[Target]) -> list[str]:
    """The targets that currently hold a wrapper (an untraced run wants none)."""
    return [target.where for target in targets if is_wrapped(resolve(target)[2])]


class Tracer:
    """Collects spans from wrapped library calls and benchmark op roots."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; nothing is patched if any target is missing."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        resolved = [(target, *resolve(target)) for target in targets]
        for target, owner, name, original in resolved:
            if is_wrapped(original):
                raise RuntimeError(f"{target.where} is already wrapped")
            setattr(owner, name, self._wrap(target, original))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched original."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, target: Target, original: object) -> object:
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap_function(target, original.__func__))
        return self._wrap_function(target, original)

    def _wrap_function(self, target: Target, function: Callable) -> Callable:
        enter, leave = self._enter, self._leave
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                opened = enter()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    leave(target, opened, args, kwargs, result)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                opened = enter()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    leave(target, opened, args, kwargs, result)

        setattr(wrapper, WRAPPER_MARK, target.span)
        return wrapper

    # --------------------------------------------------------------- spans

    def _enter(self):
        parent = _ACTIVE.get()
        span_id = next(self._ids)
        root = parent[1] if parent is not None else span_id
        token = _ACTIVE.set((span_id, root))
        return span_id, parent, root, token, time.perf_counter_ns()

    def _leave(self, target: Target, opened, args, kwargs, result) -> None:
        end = time.perf_counter_ns()
        span_id, parent, root, token, start = opened
        _ACTIVE.reset(token)
        items = attrs = None
        if result is not None and target.describe is not None:
            items, attrs = target.describe(args, kwargs, result)
        self.spans.append(
            Span(
                span_id,
                parent[0] if parent is not None else None,
                root,
                target.span,
                start,
                end,
                threading.get_ident(),
                items,
                attrs,
            )
        )

    @contextlib.contextmanager
    def op(self):
        """Open an op root span around one benchmark op."""
        if _ACTIVE.get() is not None:
            raise RuntimeError("op spans cannot nest")
        span_id = next(self._ids)
        token = _ACTIVE.set((span_id, span_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _ACTIVE.reset(token)
            self.spans.append(
                Span(span_id, None, span_id, OP_SPAN, start, end, threading.get_ident())
            )

    # -------------------------------------------------------------- export

    def write_chrome_trace(self, path: Path, links: Iterable[tuple[Span, Span]] = ()) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto).

        ``links`` are ``(request span, batch span)`` pairs drawn as flow
        arrows from a served request to the batch that answered it.
        """
        origin = min((span.start_ns for span in self.spans), default=0)

        def micros(ns: int) -> float:
            return (ns - origin) / 1e3

        events: list[dict] = []
        for span in self.spans:
            args = {"span": span.id, "parent": span.parent, "op": span.root}
            if span.items is not None:
                args["items"] = span.items
            if span.attrs:
                args.update(span.attrs)
            events.append({
                "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
                "ts": micros(span.start_ns), "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1, "tid": span.thread, "args": args,
            })
        for flow, (request, batch) in enumerate(links):
            common = {"name": "serve.link", "cat": "serve", "id": flow, "pid": 1}
            events.append({**common, "ph": "s", "ts": micros(request.start_ns),
                           "tid": request.thread})
            events.append({**common, "ph": "f", "bp": "e", "ts": micros(batch.start_ns),
                           "tid": batch.thread})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
