"""Content-addressed artifact cache for pipeline stages.

Artifacts are keyed by ``(stage, digest)`` where the digest fingerprints
the stage's configuration and inputs (see
:mod:`repro.pipeline.fingerprint`).  Each artifact is a set of named
numpy arrays plus JSON metadata; persistence goes through the artifact
format of :mod:`repro.data.serialization`, so an on-disk cache can be
shared across processes and runs.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping

import numpy as np

from ..config import CacheConfig
from ..data.serialization import ARTIFACT_SUFFIX, read_artifact, write_artifact
from ..exceptions import DataError


@dataclass
class Artifact:
    """One cached stage output: named arrays plus JSON metadata."""

    arrays: dict[str, np.ndarray]
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds the stage originally took to compute."""
        return float(self.metadata.get("elapsed_seconds", 0.0))


@dataclass
class CacheStats:
    """Lookup counters of an :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """Two-tier (memory + optional disk) content-addressed artifact store.

    Parameters
    ----------
    config:
        Cache behaviour; ``None`` uses the default in-memory-only
        configuration.  A :class:`str`/:class:`~pathlib.Path` is accepted
        as shorthand for an on-disk cache rooted at that directory.
    """

    def __init__(self, config: CacheConfig | str | Path | None = None) -> None:
        if isinstance(config, (str, Path)):
            config = CacheConfig(directory=str(config))
        self.config = config or CacheConfig()
        self._memory: dict[tuple[str, str], Artifact] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------ paths

    @property
    def directory(self) -> Path | None:
        """Root of the on-disk store (``None`` for in-memory caches)."""
        return Path(self.config.directory) if self.config.directory else None

    def artifact_path(self, stage: str, digest: str) -> Path | None:
        """On-disk location of an artifact (``None`` without a directory)."""
        root = self.directory
        if root is None:
            return None
        return root / stage / f"{digest}{ARTIFACT_SUFFIX}"

    # ----------------------------------------------------------------- lookup

    def get(self, stage: str, digest: str) -> Artifact | None:
        """Return the cached artifact for ``(stage, digest)`` or ``None``."""
        if not self.config.enabled:
            self.stats.misses += 1
            return None
        key = (stage, digest)
        artifact = self._memory.get(key)
        if artifact is None:
            path = self.artifact_path(stage, digest)
            if path is not None and path.exists():
                try:
                    arrays, metadata = read_artifact(path)
                except DataError:
                    artifact = None
                else:
                    artifact = Artifact(arrays=arrays, metadata=metadata)
                    if self.config.keep_in_memory:
                        self._memory[key] = artifact
        if artifact is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return artifact

    def put(self, stage: str, digest: str, artifact: Artifact) -> None:
        """Store an artifact under ``(stage, digest)``.

        Disk publication is race-free under concurrent cold starts: the
        artifact lands via :func:`write_artifact`'s atomic tmp+rename
        (a concurrent reader sees the old complete file or the new one,
        never a partial write), and an already-published final file is
        treated as a hit and left untouched — content addressing makes
        both writers' bytes interchangeable, so the first publisher
        wins and the second skips the redundant write.
        """
        if not self.config.enabled:
            return
        self.stats.puts += 1
        if self.config.keep_in_memory:
            self._memory[(stage, digest)] = artifact
        path = self.artifact_path(stage, digest)
        if path is not None and not path.exists():
            write_artifact(path, artifact.arrays, artifact.metadata)

    def discard(self, stage: str, digest: str) -> None:
        """Drop one artifact from memory and disk.

        :meth:`put` never overwrites a published file, so a caller that
        replaces an outdated artifact (e.g. one written in an older
        format) discards it first.
        """
        self._memory.pop((stage, digest), None)
        path = self.artifact_path(stage, digest)
        if path is not None:
            path.unlink(missing_ok=True)

    def contains(self, stage: str, digest: str) -> bool:
        """Whether an artifact exists, without counting a lookup."""
        if not self.config.enabled:
            return False
        if (stage, digest) in self._memory:
            return True
        path = self.artifact_path(stage, digest)
        return path is not None and path.exists()

    # ------------------------------------------------------------- management

    @property
    def memory_artifacts(self) -> int:
        """Number of artifacts currently held in the in-memory tier."""
        return len(self._memory)

    def prune_memory(self, keep_stages: tuple[str, ...] = ()) -> int:
        """Drop in-memory artifacts except those of ``keep_stages``.

        Long-lived cache owners (e.g. a query session serving many
        distinct micro-batches) call this to bound memory growth while
        keeping seeded artifacts alive; the on-disk tier is untouched.
        Returns the number of artifacts dropped.
        """
        keep = set(keep_stages)
        doomed = [key for key in self._memory if key[0] not in keep]
        for key in doomed:
            del self._memory[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop every artifact from memory and disk."""
        self._memory.clear()
        root = self.directory
        if root is not None and root.exists():
            shutil.rmtree(root)

    def describe(self) -> dict[str, object]:
        """Summary of cache contents and counters."""
        disk_artifacts = 0
        root = self.directory
        if root is not None and root.exists():
            disk_artifacts = sum(1 for _ in root.glob(f"*/*{ARTIFACT_SUFFIX}"))
        return {
            "directory": str(root) if root is not None else None,
            "enabled": self.config.enabled,
            "memory_artifacts": len(self._memory),
            "disk_artifacts": disk_artifacts,
            "stats": self.stats.as_dict(),
        }


def stage_artifact(
    arrays: Mapping[str, np.ndarray],
    elapsed_seconds: float,
    **metadata: object,
) -> Artifact:
    """Build a stage artifact stamped with its original compute time."""
    payload = dict(metadata)
    payload["elapsed_seconds"] = float(elapsed_seconds)
    return Artifact(arrays=dict(arrays), metadata=payload)
