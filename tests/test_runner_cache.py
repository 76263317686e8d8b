"""Unit tests for the content-addressed result cache and the run report."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.common import ExperimentResult
from repro.runner import ResultCache, SweepRunner, code_version, stable_hash
from repro.runner.runner import RunReport, result_key

_CALLS = {"n": 0}


def _fake_experiment(seed: int = 3) -> ExperimentResult:
    _CALLS["n"] += 1
    return ExperimentResult(experiment_id="FX", title="fake",
                            text=f"seed={seed}", data={"seed": seed})


def _other_experiment(seed: int = 3) -> ExperimentResult:
    return ExperimentResult(experiment_id="FY", title="other",
                            text="other", data={})


# --------------------------------------------------------------------------- #
def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("ab" * 32) == (False, None)
    cache.put("ab" * 32, {"x": 1})
    assert "ab" * 32 in cache
    hit, value = cache.get("ab" * 32)
    assert hit and value == {"x": 1}
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.writes == 1
    assert len(cache) == 1


def test_cache_survives_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    key = stable_hash("victim")
    cache.put(key, [1, 2, 3])
    path = cache._path(key)
    path.write_bytes(b"\x80\x04 this is not a pickle")
    hit, value = cache.get(key)
    assert not hit and value is None  # corrupt entry degrades to a miss


def test_corrupt_node_entry_degrades_to_miss_and_recomputes(tmp_path):
    """DAG path: corrupting one per-node cache entry silently recomputes
    just that node (and its prefix ancestor) on the next run."""
    import repro.experiments.e3_seasonal_capacity as e3
    from repro.runner.graph import graph_of, node_key

    cache = ResultCache(tmp_path / "dagcache")
    spec = e3.SWEEP
    kwargs = dict(days_per_month=0.02, seed=5)
    cold = SweepRunner(jobs=1, cache=cache, backend="dag").run_spec(
        spec, **kwargs)
    assert cold.computed == cold.points == 24
    assert cold.computed_nodes == 26        # 24 months + 2 fleet blueprints

    # corrupt exactly one point node's entry on disk
    graph = graph_of(spec, **kwargs)
    victim = graph.points()[0].node_id
    cache._path(node_key(graph, victim)).write_bytes(b"\x00 not a pickle")

    warm = SweepRunner(jobs=1, cache=cache, backend="dag").run_spec(
        spec, **kwargs)
    assert warm.result.text == cold.result.text
    assert warm.computed == 1               # only the corrupted point re-ran
    assert warm.cached == 23
    # its blueprint prefix ancestor was a cache hit, not a recompute
    assert warm.computed_nodes == 1
    assert warm.cached_nodes == 24          # 23 points + the needed prefix


_WRITER = """
import sys
from repro.runner import ResultCache
cache = ResultCache(sys.argv[1])
value = {"payload": bytes(range(256)) * 2048, "n": 7}
for _ in range(int(sys.argv[3])):
    cache.put(sys.argv[2], value)
"""


def test_two_processes_writing_one_key_never_collide(tmp_path):
    """Two ``repro run`` processes sharing a cache dir may store the same
    node at once: neither may raise, and the entry must stay whole."""
    key = stable_hash("shared node")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    writers = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(tmp_path), key, "150"],
        env=env, stderr=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        for proc in writers:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
    finally:
        for proc in writers:
            proc.kill()  # no-op for a writer that has exited
    hit, value = ResultCache(tmp_path).get(key)
    assert hit and value == {"payload": bytes(range(256)) * 2048, "n": 7}
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == \
        [f"{key}.pkl"]


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(5):
        cache.put(stable_hash(i), i)
    assert len(cache) == 5
    assert cache.clear() == 5
    assert len(cache) == 0


def test_cache_shards_by_key_prefix(tmp_path):
    cache = ResultCache(tmp_path)
    key = stable_hash("sharded")
    cache.put(key, 1)
    assert cache._path(key).parent.name == key[:2]


# --------------------------------------------------------------------------- #
def test_whole_result_caching_for_non_sweep_experiments(tmp_path):
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    before = _CALLS["n"]
    first = runner.run_experiment(_fake_experiment, seed=9)
    assert first.computed == 1 and first.cached == 0 and first.points == 0
    second = runner.run_experiment(_fake_experiment, seed=9)
    assert second.cached == 1 and second.computed == 0
    assert second.fully_cached
    assert second.result == first.result
    assert _CALLS["n"] == before + 1  # the second call never executed
    # different kwargs → different key
    third = runner.run_experiment(_fake_experiment, seed=10)
    assert third.computed == 1


def test_whole_result_keys_do_not_collide_across_functions():
    k1 = result_key(f"{_fake_experiment.__module__}:{_fake_experiment.__qualname__}", {})
    k2 = result_key(f"{_other_experiment.__module__}:{_other_experiment.__qualname__}", {})
    assert k1 != k2


def test_no_cache_means_always_computed():
    runner = SweepRunner(jobs=1, cache=None)
    before = _CALLS["n"]
    runner.run_experiment(_fake_experiment)
    runner.run_experiment(_fake_experiment)
    assert _CALLS["n"] == before + 2


def test_code_version_is_stable_within_process():
    assert code_version() == code_version()
    assert len(code_version()) == 64


def test_run_report_fully_cached_flag():
    assert RunReport(result=None, points=3, computed=0, cached=3).fully_cached
    assert not RunReport(result=None, points=3, computed=1, cached=2).fully_cached
