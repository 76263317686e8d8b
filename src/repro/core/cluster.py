"""Worker clusters (paper §III-B).

"Both considered architectures imply to define clusters of nodes that state
what are the workers controlled by the gateways.  To decide on the components
of clusters, we can either use clustering techniques developed in wireless
sensor networks or define clusters as the set of DF servers of a physical
building or district."

A :class:`Cluster` is the unit of scheduling and offloading: the DF servers of
one district (the canonical rule), a subset of which may be *dedicated* to the
edge flow (architecture class 2).  The WSN-style alternative clustering rule
is provided as :meth:`Cluster.partition_wsn` for the ablation called out in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.server import ComputeServer

__all__ = ["ClusterConfig", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Static identity of a cluster."""

    name: str
    district: int = 0
    master_overhead_s: float = 0.002  # master-node request handling time


class Cluster:
    """A named group of DF servers with an optional edge-dedicated subset."""

    def __init__(self, config: ClusterConfig, workers: Optional[Sequence[ComputeServer]] = None):
        self.config = config
        self._workers: Dict[str, ComputeServer] = {}
        #: the workers in insertion order, rebuilt by add_worker only:
        #: placement and queue draining read it on every request
        self._worker_tuple: Tuple[ComputeServer, ...] = ()
        self._dedicated_edge: set[str] = set()
        for w in workers or []:
            self.add_worker(w)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Cluster name."""
        return self.config.name

    def add_worker(self, server: ComputeServer, dedicated_edge: bool = False) -> None:
        """Register a worker; optionally reserve it for the edge flow."""
        if server.name in self._workers:
            raise ValueError(f"worker {server.name!r} already in cluster {self.name}")
        self._workers[server.name] = server
        self._worker_tuple = tuple(self._workers.values())
        if dedicated_edge:
            self._dedicated_edge.add(server.name)

    def dedicate_to_edge(self, server_name: str) -> None:
        """Move an existing worker into the edge-dedicated pool."""
        if server_name not in self._workers:
            raise KeyError(f"no worker {server_name!r} in cluster {self.name}")
        self._dedicated_edge.add(server_name)

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> Tuple[ComputeServer, ...]:
        """All workers, in insertion order (a shared, immutable tuple)."""
        return self._worker_tuple

    @property
    def edge_dedicated_workers(self) -> List[ComputeServer]:
        """Workers reserved for the edge flow (architecture class 2)."""
        return [w for w in self._workers.values() if w.name in self._dedicated_edge]

    @property
    def general_workers(self) -> List[ComputeServer]:
        """Workers available to the DCC flow."""
        return [w for w in self._workers.values() if w.name not in self._dedicated_edge]

    def worker(self, name: str) -> ComputeServer:
        """Look up a worker by name."""
        try:
            return self._workers[name]
        except KeyError:
            raise KeyError(f"no worker {name!r} in cluster {self.name}") from None

    def __len__(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------ #
    def total_cores(self) -> int:
        """Cores across all workers."""
        return sum(w.n_cores for w in self._workers.values())

    def free_cores(self) -> int:
        """Currently free cores across all powered-on workers."""
        return sum(w.free_cores for w in self._workers.values())

    def utilization(self) -> float:
        """Busy-core fraction of the whole cluster."""
        total = self.total_cores()
        return (total - self.free_cores()) / total if total else 0.0

    # ------------------------------------------------------------------ #
    @staticmethod
    def partition_wsn(
        servers: Sequence[ComputeServer],
        positions: Sequence[tuple],
        k: int,
        master_overhead_s: float = 0.002,
    ) -> List["Cluster"]:
        """WSN-style clustering alternative (paper ref [13]).

        A deterministic k-means-like grouping of servers by physical position
        (farthest-point seeding, then nearest-centroid assignment) — the
        "clustering techniques developed in wireless sensor networks" option,
        used by the cluster-formation ablation.
        """
        import numpy as np

        if k < 1 or k > len(servers):
            raise ValueError(f"k must be in 1..{len(servers)}, got {k}")
        if len(positions) != len(servers):
            raise ValueError("one position per server required")
        pts = np.asarray(positions, dtype=float)
        # farthest-point seeding from the centroid-nearest point
        centroid = pts.mean(axis=0)
        seeds = [int(np.argmin(((pts - centroid) ** 2).sum(axis=1)))]
        while len(seeds) < k:
            d = np.min(
                [((pts - pts[s]) ** 2).sum(axis=1) for s in seeds], axis=0
            )
            seeds.append(int(np.argmax(d)))
        centers = pts[seeds]
        for _ in range(10):  # few Lloyd iterations; deterministic
            assign = np.argmin(
                ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
            )
            for j in range(k):
                members = pts[assign == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
        clusters = [
            Cluster(ClusterConfig(name=f"wsn-{j}", district=j,
                                  master_overhead_s=master_overhead_s))
            for j in range(k)
        ]
        for i, srv in enumerate(servers):
            clusters[int(assign[i])].add_worker(srv)
        return [c for c in clusters if len(c) > 0]
