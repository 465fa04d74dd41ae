"""Timer and memory instrumentation for the performance subsystem.

A :class:`PerfSession` is a local list of :class:`StageRecord` entries —
wall-clock plus resident-set-size readings — for named stages of a run.
Its owner times each stage with :meth:`PerfSession.stage`, or adds one
already measured elsewhere (such as a pipeline
:class:`~repro.pipeline.StageEvent`) with :meth:`PerfSession.record`;
nothing outside the owner writes to it.

The module is dependency-free (stdlib only) so any layer of the library
can import it without cycles.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

__all__ = [
    "StageRecord",
    "PerfSession",
    "rss_bytes",
]


def rss_bytes() -> int:
    """Peak resident set size of this process in bytes.

    ``ru_maxrss`` is reported in kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class StageRecord:
    """One timed stage: wall seconds, peak RSS around the stage, items."""

    name: str
    wall_seconds: float
    rss_before_bytes: int = 0
    rss_after_bytes: int = 0
    items: int | None = None

    @property
    def throughput_items_per_second(self) -> float | None:
        """Items processed per wall second (``None`` without an item count)."""
        if self.items is None or self.wall_seconds <= 0:
            return None
        return self.items / self.wall_seconds

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view used by the ``BENCH_perf.json`` report."""
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "rss_before_bytes": self.rss_before_bytes,
            "rss_after_bytes": self.rss_after_bytes,
            "items": self.items,
            "throughput_items_per_second": self.throughput_items_per_second,
        }


@dataclass
class PerfSession:
    """The stage records of one measured run, in recorded order."""

    records: list[StageRecord] = field(default_factory=list)

    def record(self, name: str, wall_seconds: float, items: int | None = None) -> StageRecord:
        """Append an externally timed stage (RSS sampled at call time)."""
        rss = rss_bytes()
        entry = StageRecord(
            name=name,
            wall_seconds=wall_seconds,
            rss_before_bytes=rss,
            rss_after_bytes=rss,
            items=items,
        )
        self.records.append(entry)
        return entry

    @contextmanager
    def stage(self, name: str, items: int | None = None) -> Iterator[None]:
        """Time a ``with`` block as one stage of this session."""
        before = rss_bytes()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.records.append(
                StageRecord(
                    name=name,
                    wall_seconds=elapsed,
                    rss_before_bytes=before,
                    rss_after_bytes=rss_bytes(),
                    items=items,
                )
            )

    def total_seconds(self, name: str | None = None) -> float:
        """Sum of recorded wall seconds, optionally for one stage name."""
        return float(
            sum(r.wall_seconds for r in self.records if name is None or r.name == name)
        )

    def stage_names(self) -> list[str]:
        """Distinct stage names in first-recorded order."""
        return list(dict.fromkeys(record.name for record in self.records))

    def as_dicts(self) -> list[dict[str, object]]:
        """All records as JSON-serializable dictionaries."""
        return [record.as_dict() for record in self.records]
