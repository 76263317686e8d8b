"""Named, independently seeded random streams.

Every stochastic source in the framework (weather noise, request arrivals, job
sizes, sensor noise, ...) draws from its own named stream derived from a single
experiment seed via ``numpy.random.SeedSequence.spawn`` semantics.  Two
properties follow:

* **reproducibility** — the same experiment seed replays bit-identically;
* **insensitivity** — adding a new stochastic source (a new stream name) does
  not perturb draws of existing streams, because each stream's seed is derived
  from ``(root seed, stream name)``, not from draw order.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator

import numpy as np

__all__ = ["RngRegistry", "StandardNormals"]


class RngRegistry:
    """A factory of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root experiment seed. Any non-negative integer.

    Examples
    --------
    >>> rngs = RngRegistry(42)
    >>> weather = rngs.stream("weather")
    >>> arrivals = rngs.stream("edge-arrivals")
    >>> float(weather.standard_normal()) != float(arrivals.standard_normal())
    True
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always returns the *same generator object*, so sequential
        draws from one logical source advance one state.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Stable across processes/runs: derive a child key from the CRC of
            # the name (not Python's salted hash()).
            child = zlib.crc32(name.encode("utf-8"))
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, child])))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. per replication) with independent streams."""
        child_seed = (self.seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) % (2**63)
        return RngRegistry(child_seed)

    def names(self) -> Iterator[str]:
        """Names of streams created so far."""
        return iter(sorted(self._streams))

    def stream_states(self) -> Dict[str, dict]:
        """Snapshot of every created stream's bit-generator state.

        For stream-isolation regression tests: because each stream's seed
        derives from ``(root seed, name)`` and not draw order, creating or
        consuming a *new* stream must leave every other name's state here
        unchanged — assert the snapshots are equal.
        """
        return {
            name: gen.bit_generator.state
            for name, gen in self._streams.items()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"


class StandardNormals:
    """Standard normal draws from one generator, fetched :attr:`BLOCK` at a time.

    ``rng.standard_normal(n)`` yields the same values, in the same order, as
    ``n`` scalar ``rng.standard_normal()`` draws, and ``rng.normal(0.0, s)``
    is ``0.0 + s * z`` for the next standard normal ``z``.  A consumer that
    is the generator's *only* reader therefore gets bit-identical normals
    from :meth:`next` at a fraction of a numpy call per draw.  The block
    runs ahead of the consumer, so nothing else may draw from ``rng``.
    """

    BLOCK = 256

    __slots__ = ("rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._buf: list = []
        self._pos = 0

    def next(self) -> float:
        """The next standard normal draw of the stream."""
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self.rng.standard_normal(self.BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
