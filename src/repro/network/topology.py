"""City-scale topology on a ``networkx`` graph.

A standalone model: :class:`~repro.core.middleware.DF3Middleware` does not
build one, and ``networkx`` is imported only when a :class:`CityTopology` is
constructed, so simulation processes never load it.

The DF3 deployment shape (paper Figs. 3 and 5): buildings host DF servers,
buildings group into **district clusters** coordinated by a master/gateway,
districts connect to each other and to the remote datacenter over fiber.
Offloading decisions need path delays over this graph:

* *direct* edge request: device → server inside one building (LAN);
* *indirect* edge request: device → master → worker (one extra LAN hop);
* *horizontal* offload: cluster → neighbouring cluster (metro fiber);
* *vertical* offload: cluster → datacenter (national Internet).

Node kinds are tagged so experiments can enumerate servers per district, and
every edge carries a :class:`~repro.network.link.Link`.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.internet import WANProfile
from repro.network.link import Link

__all__ = ["NodeKind", "CityTopology"]


class NodeKind(str, Enum):
    """Roles a topology node can play."""

    DEVICE = "device"
    BUILDING = "building"
    MASTER = "master"
    DISTRICT = "district"
    DATACENTER = "datacenter"


#: in-building LAN (Ethernet between Q.rads, §II-B1)
_LAN = dict(latency_s=0.0005, bandwidth_bps=1e9)
#: building ↔ district master (street-level fiber)
_STREET = dict(latency_s=0.001, bandwidth_bps=1e9)
#: district ↔ district (metro fiber)
_METRO = dict(latency_s=0.004, bandwidth_bps=1e9)


class CityTopology:
    """A city graph of districts, buildings and one datacenter.

    Use :meth:`build` for the canonical layout: ``n_districts`` districts of
    ``buildings_per_district`` buildings each, every district linked to its
    neighbours in a ring and to the datacenter over a WAN profile.
    """

    def __init__(self) -> None:
        import networkx as nx

        self.graph = nx.Graph()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, kind: NodeKind) -> None:
        """Add a node; names must be unique."""
        if name in self.graph:
            raise ValueError(f"node {name!r} already exists")
        self.graph.add_node(name, kind=kind)

    def connect(self, a: str, b: str, link: Link) -> None:
        """Connect two existing nodes with a link."""
        for n in (a, b):
            if n not in self.graph:
                raise KeyError(f"unknown node {n!r}")
        self.graph.add_edge(a, b, link=link, weight=link.latency_s)

    @staticmethod
    def build(
        n_districts: int = 3,
        buildings_per_district: int = 4,
        wan: WANProfile = WANProfile.national_internet(),
        rng: Optional[np.random.Generator] = None,
    ) -> "CityTopology":
        """The canonical DF3 city.

        Layout: each district has a master node and its buildings (star);
        districts form a ring over metro fiber; every district master links
        to the single datacenter over ``wan``.
        """
        if n_districts < 1 or buildings_per_district < 1:
            raise ValueError("need at least one district and one building")
        topo = CityTopology()
        topo.add_node("dc", NodeKind.DATACENTER)
        for d in range(n_districts):
            master = f"district-{d}/master"
            topo.add_node(master, NodeKind.MASTER)
            for b in range(buildings_per_district):
                name = f"district-{d}/building-{b}"
                topo.add_node(name, NodeKind.BUILDING)
                topo.connect(name, master, Link(f"street-{d}-{b}", **_STREET))
            topo.connect(
                master, "dc",
                Link(f"wan-{d}", wan.latency_s, wan.bandwidth_bps,
                     wan.jitter_std_s if rng is not None else 0.0, rng),
            )
        for d in range(n_districts):  # ring of districts
            if n_districts > 1:
                nxt = (d + 1) % n_districts
                if not topo.graph.has_edge(f"district-{d}/master", f"district-{nxt}/master"):
                    topo.connect(
                        f"district-{d}/master",
                        f"district-{nxt}/master",
                        Link(f"metro-{d}-{nxt}", **_METRO),
                    )
        return topo

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def kind(self, name: str) -> NodeKind:
        """Kind tag of a node."""
        try:
            return self.graph.nodes[name]["kind"]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def nodes_of_kind(self, kind: NodeKind) -> List[str]:
        """All node names with the given kind, sorted for determinism."""
        return sorted(n for n, d in self.graph.nodes(data=True) if d["kind"] == kind)

    def buildings_of_district(self, district: int) -> List[str]:
        """Building nodes of one district (canonical layout naming)."""
        prefix = f"district-{district}/building-"
        return sorted(n for n in self.graph.nodes if n.startswith(prefix))

    def path(self, a: str, b: str) -> List[str]:
        """Minimum-latency path between two nodes."""
        import networkx as nx

        return nx.shortest_path(self.graph, a, b, weight="weight")

    def path_links(self, a: str, b: str) -> List[Link]:
        """Links along the minimum-latency path."""
        p = self.path(a, b)
        return [self.graph.edges[u, v]["link"] for u, v in zip(p, p[1:])]

    def path_delay(self, a: str, b: str, size_bytes: float) -> float:
        """Simulated transfer delay of ``size_bytes`` along the best path.

        Jittery links draw jitter; per-hop store-and-forward is assumed
        (delays sum).
        """
        return sum(link.delay(size_bytes) for link in self.path_links(a, b))

    def expected_path_delay(self, a: str, b: str, size_bytes: float) -> float:
        """Deterministic expected delay along the best path."""
        return sum(link.expected_delay(size_bytes) for link in self.path_links(a, b))

    def hops(self, a: str, b: str) -> int:
        """Hop count of the minimum-latency path."""
        return len(self.path(a, b)) - 1

    def iter_links(self) -> Iterator[Tuple[str, str, Link]]:
        """All links with their endpoints."""
        for u, v, d in self.graph.edges(data=True):
            yield u, v, d["link"]
