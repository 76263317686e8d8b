"""Task-DAG model for sweep execution: nodes, dependencies, ready-set order.

Every sweep runs as a task graph.  A :class:`TaskGraph` holds
:class:`TaskNode` instances — each a ``module:function`` cell plus canonical
params, exactly like :class:`~repro.runner.spec.SweepPoint` — wired by
explicit dependencies: ``needs`` maps a *kwarg name* of the cell to the node
whose value feeds it.  Shared work (city construction, workload generation,
warm-up) becomes an upstream ``prefix`` node computed **once** and fanned out
to every downstream ``point`` node, instead of being recomputed inside each
point; a sweep without shared work is a graph of independent point nodes.
:meth:`TaskNode.execute` is the one way a cell runs.

Scheduling is topological by construction: :meth:`TaskGraph.order` is a
deterministic Kahn sort (insertion order breaks ties, so prefixes declared
first run first), :meth:`TaskGraph.ready` yields the runnable frontier for
the backends' ready queues, and a cyclic graph raises :class:`GraphCycleError`
naming the cycle members rather than hanging a worker pool.

Caching is per **node**, not per point: :func:`node_key` folds the experiment
id, the node's own spec, the transitive *digests* of its upstream nodes and
the repo-wide code version into one SHA-256 — so editing a prefix invalidates
its consumers, two sweeps sharing a prefix share its cache entry, and a
point's key no longer buries the cost of work it did not do itself.
"""

from __future__ import annotations

import heapq
import importlib
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.runner.hashing import code_version, kernel_cache_tag, stable_hash
from repro.runner.spec import SweepSpec

__all__ = [
    "GraphCycleError",
    "TaskGraph",
    "TaskNode",
    "graph_of",
    "node_key",
]


class GraphCycleError(ValueError):
    """The task graph contains a dependency cycle (named in ``members``)."""

    def __init__(self, members: List[str]):
        self.members = members
        super().__init__(f"task graph has a dependency cycle among: {members}")


@dataclass(frozen=True)
class TaskNode:
    """One schedulable unit of a sweep's dataflow.

    ``cell`` is a ``"package.module:function"`` reference (pickles by name,
    hashes stably); ``params`` are the cell's own kwargs; ``needs`` maps
    *additional* kwarg names to upstream node ids whose computed values are
    injected at execution time.  ``kind`` is ``"prefix"`` for shared upstream
    stages and ``"point"`` for sweep points whose values reach ``reduce``.
    """

    experiment_id: str
    node_id: str
    cell: str
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    needs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    kind: str = "point"

    def __post_init__(self) -> None:
        if ":" not in self.cell:
            raise ValueError(f"cell must be 'module:function', got {self.cell!r}")
        if self.kind not in ("prefix", "point"):
            raise ValueError(f"kind must be 'prefix' or 'point', got {self.kind!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        object.__setattr__(self, "needs", tuple(sorted(self.needs)))
        kwargs = [k for k, _ in self.params] + [k for k, _ in self.needs]
        if len(set(kwargs)) != len(kwargs):
            raise ValueError(
                f"node {self.node_id!r}: params and needs share kwarg names"
            )

    @property
    def upstream_ids(self) -> Tuple[str, ...]:
        """Ids of the nodes this node consumes, in canonical (kwarg) order."""
        return tuple(nid for _, nid in self.needs)

    def resolve(self) -> Callable[..., Any]:
        """Import and return the cell function this node references."""
        module_name, _, func_name = self.cell.partition(":")
        return getattr(importlib.import_module(module_name), func_name)

    def execute(self, upstream: Mapping[str, Any] | None = None) -> Any:
        """Run the cell with upstream values injected by kwarg name.

        ``upstream`` maps node ids to computed values; every id in ``needs``
        must be present (a missing upstream is a scheduling bug, not a user
        error, hence the hard ``KeyError``).
        """
        kwargs = dict(self.params)
        for kwarg, nid in self.needs:
            if upstream is None or nid not in upstream:
                raise KeyError(
                    f"node {self.node_id!r} needs upstream {nid!r} which was "
                    "not supplied — scheduled before its dependency?"
                )
            kwargs[kwarg] = upstream[nid]
        return self.resolve()(**kwargs)


class TaskGraph:
    """An explicit-dependency task DAG with deterministic scheduling views.

    Nodes may be added in any order; edges are validated lazily so a graph
    under construction can reference a node declared later.  All scheduling
    entry points (:meth:`order`, :meth:`ready`) first :meth:`validate`,
    which rejects dangling edges and raises :class:`GraphCycleError` on
    cycles.
    """

    def __init__(self, nodes: Iterable[TaskNode] = ()):
        self._nodes: Dict[str, TaskNode] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, node: TaskNode) -> TaskNode:
        """Insert one node; ids are unique across prefixes and points."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        return node

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self._nodes.values())

    def __getitem__(self, node_id: str) -> TaskNode:
        return self._nodes[node_id]

    @property
    def node_ids(self) -> List[str]:
        """All node ids in insertion order."""
        return list(self._nodes)

    def points(self) -> List[TaskNode]:
        """The ``kind="point"`` nodes in insertion order."""
        return [n for n in self._nodes.values() if n.kind == "point"]

    def prefixes(self) -> List[TaskNode]:
        """The ``kind="prefix"`` nodes in insertion order."""
        return [n for n in self._nodes.values() if n.kind == "prefix"]

    def consumers(self, node_id: str) -> List[str]:
        """Ids of nodes that consume ``node_id``, in insertion order."""
        return [n.node_id for n in self._nodes.values()
                if node_id in n.upstream_ids]

    def ancestors(self, node_ids: Iterable[str]) -> set:
        """Transitive upstream closure of ``node_ids`` (excluding them)."""
        seen: set = set()
        stack = [nid for nid in node_ids]
        while stack:
            for up in self._nodes[stack.pop()].upstream_ids:
                if up not in seen:
                    seen.add(up)
                    stack.append(up)
        return seen

    # ------------------------------------------------------------------ #
    # validation + scheduling
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject dangling edges; raise :class:`GraphCycleError` on cycles."""
        for node in self._nodes.values():
            for _, nid in node.needs:
                if nid not in self._nodes:
                    raise ValueError(
                        f"node {node.node_id!r} needs unknown node {nid!r}"
                    )
        self.order(_validated=True)

    def order(self, _validated: bool = False) -> List[str]:
        """Deterministic topological order (Kahn; insertion order on ties).

        Prefix nodes declared before their consumers therefore sort before
        them, and two runs of the same graph always schedule identically —
        the property the byte-identity contract leans on.
        """
        if not _validated:
            for node in self._nodes.values():
                for _, nid in node.needs:
                    if nid not in self._nodes:
                        raise ValueError(
                            f"node {node.node_id!r} needs unknown node {nid!r}"
                        )
        indegree = {nid: len(set(n.upstream_ids))
                    for nid, n in self._nodes.items()}
        downstream: Dict[str, List[str]] = {nid: [] for nid in self._nodes}
        for nid, node in self._nodes.items():
            for up in set(node.upstream_ids):
                downstream[up].append(nid)
        # min-heap over insertion index: among ready nodes, earliest declared
        # runs first — stable, deterministic, prefixes-before-consumers
        names = list(self._nodes)
        index = {nid: i for i, nid in enumerate(names)}
        frontier = [index[nid] for nid in names if indegree[nid] == 0]
        heapq.heapify(frontier)
        ordered: List[str] = []
        while frontier:
            nid = names[heapq.heappop(frontier)]
            ordered.append(nid)
            for down in downstream[nid]:
                indegree[down] -= 1
                if indegree[down] == 0:
                    heapq.heappush(frontier, index[down])
        if len(ordered) < len(self._nodes):
            done = set(ordered)
            raise GraphCycleError([nid for nid in names if nid not in done])
        return ordered

    def ready(self, done: AbstractSet[str],
              exclude: AbstractSet[str] = frozenset()) -> List[str]:
        """Runnable frontier: every upstream done, itself neither done nor
        excluded (running/dispatched).  Insertion order, so the backends'
        shared queues fill deterministically."""
        return [
            nid for nid, node in self._nodes.items()
            if nid not in done and nid not in exclude
            and all(up in done for up in node.upstream_ids)
        ]


# --------------------------------------------------------------------------- #
# content-addressed node keys
# --------------------------------------------------------------------------- #
def node_key(graph: TaskGraph, node_id: str,
             _memo: Optional[Dict[str, str]] = None) -> str:
    """Cache key of one graph node: spec + upstream digests + code version.

    Recursively content-addressed: a node's key folds in the *keys* of its
    upstream nodes (not their values, which may not exist yet), so editing a
    prefix's cell or params re-keys every transitive consumer while leaving
    unrelated nodes' entries valid.
    """
    memo = _memo if _memo is not None else {}
    cached = memo.get(node_id)
    if cached is not None:
        return cached
    node = graph[node_id]
    upstream_digests = tuple(
        (kwarg, node_key(graph, nid, memo)) for kwarg, nid in node.needs
    )
    key = stable_hash((
        "node", code_version(), kernel_cache_tag(), node.experiment_id,
        node.kind, node.cell, node.params, upstream_digests,
    ))
    memo[node_id] = key
    return key


def graph_of(spec: SweepSpec, **kwargs: Any) -> TaskGraph:
    """Build the task graph of one sweep run: prefixes first, then points.

    Points' ``needs`` reference prefix ids declared by the spec's
    ``prefixes`` factory; a point naming an undeclared prefix fails here,
    before any process is spawned.  Specs without a prefix stage yield a
    pure fan-out graph — one independent point node per sweep point.
    """
    graph = TaskGraph()
    for prefix in spec.make_prefixes(**kwargs):
        graph.add(TaskNode(
            experiment_id=prefix.experiment_id, node_id=prefix.prefix_id,
            cell=prefix.cell, params=prefix.params, kind="prefix",
        ))
    for point in spec.make_points(**kwargs):
        graph.add(TaskNode(
            experiment_id=point.experiment_id, node_id=point.point_id,
            cell=point.cell, params=point.params, needs=point.needs,
            kind="point",
        ))
    graph.validate()
    return graph
