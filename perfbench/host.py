"""Host facts recorded with every run, so a slow phase of a shared host
can be explained instead of averaged away: CPU count, BLAS thread count,
the CPU steal share during the timed phase, and the time of a fixed
CPU calibration loop before and after it.  Also the peak-RSS probe.

Everything here reads (and, for the peak-RSS reset, writes) the
process's own ``/proc`` entries; a host without them reports ``None``.
"""

from __future__ import annotations

import ctypes
import gc
import os
import statistics
import time
from dataclasses import dataclass, field


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def calibration_ms() -> float:
    """Median of five runs of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return fields[7], sum(fields[:8])


def release_free_memory() -> None:
    """Collect cyclic garbage and hand freed heap pages back to the OS.

    Fits leave hundreds of MB of autograd reference cycles that the
    collector has not reached yet, and glibc keeps freed pages mapped;
    both would otherwise count as the timed phase's resident memory.
    """
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc
        return
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc_trim(0)


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS; ``False`` where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set size since start (or the last reset), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Facts:
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    blas_threads: int | None = field(default_factory=blas_threads)
    calibration_ms_before: float = 0.0
    calibration_ms_after: float = 0.0
    steal_share: float | None = None
    _ticks: tuple[int, int] | None = None

    @classmethod
    def before(cls) -> "Facts":
        facts = cls(calibration_ms_before=calibration_ms())
        facts._ticks = cpu_ticks()
        return facts

    def after(self) -> None:
        ticks = cpu_ticks()
        if ticks is not None and self._ticks is not None and ticks[1] > self._ticks[1]:
            self.steal_share = (ticks[0] - self._ticks[0]) / (ticks[1] - self._ticks[1])
        self.calibration_ms_after = calibration_ms()

    def as_dict(self) -> dict[str, object]:
        return {key: value for key, value in vars(self).items() if not key.startswith("_")}
