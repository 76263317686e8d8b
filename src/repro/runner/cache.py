"""Content-addressed result cache under ``.repro_cache/``.

Entries are pickled (experiment payloads carry numpy scalars and frozen
dataclasses that a JSON round-trip would mangle) and addressed by the hex
SHA-256 key the runner derives from (experiment id, point spec, code
version) — see :mod:`repro.runner.hashing`.  Files are sharded two hex
characters deep (``.repro_cache/ab/abcdef….pkl``) to keep directories small
on a city-scale sweep history.

The cache is *disposable by construction*: a corrupt, truncated or
unreadable entry is treated as a miss and recomputed, never an error, so
``rm -rf .repro_cache`` is always safe and never required.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Tuple

__all__ = ["CacheStats", "ResultCache"]

_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one runner session."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.writes} writes"


@dataclass
class ResultCache:
    """Pickle store keyed by stable content hashes."""

    root: Path = Path(".repro_cache")
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` otherwise."""
        try:
            with self._path(key).open("rb") as f:
                value = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically.

        Each writer pickles into a temp file of its own in the shard
        directory and renames it into place, so concurrent readers see a
        whole entry or none, and concurrent writers of one key never share
        a temp file (the last rename wins).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        """Number of stored entries (walks the shard directories)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if self.root.exists():
            for p in self.root.glob("*/*.pkl"):
                p.unlink(missing_ok=True)
                n += 1
        return n
