"""Property-based tests (hypothesis) for the runner's building blocks.

Three properties carry the whole caching/parallelism design:

* **hash stability & separation** — :func:`repro.runner.stable_hash` must be
  a pure function of *value and type* (never of dict insertion order or
  process state), and must keep ``1``, ``1.0``, ``True`` and ``"1"`` apart
  even though Python calls them equal-ish;
* **order-independent reassembly** — whatever order workers finish in,
  :func:`repro.runner.runner.reassemble` hands ``reduce`` the cells in
  points order;
* **cache round-trip fidelity** — any ``ExperimentResult.data`` payload
  comes back from the cache equal to what went in.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentResult
from repro.runner import ResultCache, stable_hash
from repro.runner.hashing import canonical
from repro.runner.graph import TaskGraph, TaskNode, node_key
from repro.runner.runner import reassemble

# JSON-ish payloads of the kind experiment cells actually return
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=20))
payloads = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=25,
)


# --------------------------------------------------------------------------- #
# stable_hash
# --------------------------------------------------------------------------- #
@given(payloads)
def test_hash_is_stable_under_copy(payload):
    assert stable_hash(payload) == stable_hash(copy.deepcopy(payload))


@given(st.dictionaries(st.text(max_size=8), scalars, min_size=2, max_size=6),
       st.randoms())
def test_hash_ignores_dict_insertion_order(d, rnd):
    items = list(d.items())
    rnd.shuffle(items)
    assert stable_hash(dict(items)) == stable_hash(d)


@given(payloads, payloads)
def test_hash_collision_implies_equality(a, b):
    """Soundness: a cache key collision would mean the values really match.

    (``canonical`` is injective on supported types modulo SHA-256, so two
    payloads sharing a hash must share a canonical encoding.)
    """
    if stable_hash(a) == stable_hash(b):
        assert canonical(a) == canonical(b)
        assert a == b


def test_hash_separates_equalish_types():
    values = [1, 1.0, True, "1", None, (1,), [1]]
    hashes = {stable_hash(v) for v in values}
    # 1 vs 1.0 vs True vs "1" vs None all distinct; (1,) and [1] share an
    # encoding deliberately (sequence identity, like JSON)
    assert len(hashes) == len(values) - 1
    assert stable_hash((1,)) == stable_hash([1])


def _key(node: TaskNode) -> str:
    """A node's cache key, read from a one-node graph."""
    return node_key(TaskGraph([node]), node.node_id)


def test_point_key_sensitivity():
    """A point node's cache key moves with every field of its spec but its
    id: keys are content-addressed, so a renamed node keeps its entry."""
    base = TaskNode("E4", "steady/shared",
                    "repro.experiments.e4_architectures:_scenario",
                    params=(("seed", 23), ("burst", False)))
    variants = [
        TaskNode("E4", "steady/shared", base.cell,
                 params=(("seed", 24), ("burst", False))),
        TaskNode("E5", "steady/shared", base.cell, params=base.params),
        TaskNode("E4", "steady/shared",
                 "repro.experiments.e14_scale:_scale_point",
                 params=base.params),
        TaskNode("E4", "steady/shared", base.cell, params=base.params,
                 kind="prefix"),
    ]
    keys = {_key(n) for n in [base, *variants]}
    assert len(keys) == 5
    renamed = TaskNode("E4", "burst/shared", base.cell, params=base.params)
    assert _key(renamed) == _key(base)


def test_point_params_order_is_canonical():
    a = TaskNode("X", "p", "m:f", params=(("a", 1), ("b", 2)))
    b = TaskNode("X", "p", "m:f", params=(("b", 2), ("a", 1)))
    assert a == b
    assert _key(a) == _key(b)


# --------------------------------------------------------------------------- #
# order-independent reassembly
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(n)))))
def test_reassembly_is_completion_order_independent(case):
    n, completion_order = case
    point_ids = [f"p{i}" for i in range(n)]
    outcomes = {}
    for i in completion_order:  # workers finish in arbitrary order
        outcomes[f"p{i}"] = i * 10
    cells = reassemble(point_ids, outcomes)
    assert list(cells) == [f"p{i}" for i in range(n)]       # points order
    assert list(cells.values()) == [i * 10 for i in range(n)]


def test_reassembly_rejects_missing_points():
    with pytest.raises(KeyError, match="p1"):
        reassemble(["p0", "p1"], {"p0": 1})


# --------------------------------------------------------------------------- #
# cache round-trip
# --------------------------------------------------------------------------- #
@settings(max_examples=60)
@given(payloads)
def test_cache_roundtrips_arbitrary_result_data(tmp_path_factory, payload):
    cache = ResultCache(tmp_path_factory.getbasetemp() / "prop_cache")
    result = ExperimentResult(experiment_id="XX", title="prop",
                              text="t", data={"payload": payload})
    key = stable_hash(("prop", payload))
    cache.put(key, result)
    hit, back = cache.get(key)
    assert hit
    assert back == result
    assert back.data["payload"] == payload
