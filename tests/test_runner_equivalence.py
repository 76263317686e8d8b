"""Serial vs parallel vs cached: byte-identical output, always.

The runner's determinism contract (DESIGN.md, "Sweep runner"): for a fixed
seed, ``jobs=1``, ``jobs=N``, and a warm cache hit all produce the same
``ExperimentResult.text``, byte for byte.  These tests drive the ported
sweep experiments through all three paths; the fast tier uses the quick
sweeps (E4, E14, A4 and a reduced-fidelity E3), the full tier adds A6 at
full fidelity and a whole ``run all`` warm-cache pass.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import (
    a4_demand_response,
    a6_churn,
    e3_seasonal_capacity,
    e4_architectures,
    e14_scale,
)
from repro.runner import ResultCache, SweepRunner, graph_of

FAST_SWEEPS = [
    pytest.param(e4_architectures, {}, id="E4"),
    pytest.param(e14_scale, {}, id="E14"),
    pytest.param(a4_demand_response, {}, id="A4"),
    pytest.param(e3_seasonal_capacity, {"days_per_month": 0.1}, id="E3-reduced"),
]


@pytest.mark.parametrize("mod,kwargs", FAST_SWEEPS)
def test_serial_parallel_cached_equivalence(tmp_path, mod, kwargs):
    serial = SweepRunner(jobs=1).run_spec(mod.SWEEP, **kwargs)
    assert serial.computed == serial.points > 0

    cache = ResultCache(tmp_path / "cache")
    parallel = SweepRunner(jobs=2, cache=cache).run_spec(mod.SWEEP, **kwargs)
    assert parallel.result.text == serial.result.text
    assert parallel.computed == parallel.points  # cold cache: all executed

    warm = SweepRunner(jobs=1, cache=cache).run_spec(mod.SWEEP, **kwargs)
    assert warm.fully_cached
    assert warm.cached == warm.points
    assert warm.result.text == serial.result.text


@pytest.mark.dag
def test_dag_backend_deduplicates_shared_prefixes():
    """E3's two fleet blueprints each run once for their twelve months."""
    report = SweepRunner(jobs=1, backend="dag").run_spec(
        e3_seasonal_capacity.SWEEP, days_per_month=0.05)
    assert report.points == 24
    assert report.nodes == 26               # + 2 per-flavour blueprints
    assert report.computed_nodes == 26      # each prefix computed exactly once


def test_sweep_runner_accepts_only_the_dag_backend():
    """The task-DAG executor is the one sweep backend; ``backend`` stays a
    field so callers that name it keep working, and rejects anything else."""
    assert SweepRunner().backend == "dag"
    assert SweepRunner(backend="dag").backend == "dag"
    with pytest.raises(ValueError, match="backend must be 'dag'"):
        SweepRunner(backend="flat")


@pytest.mark.dag
@pytest.mark.parametrize("mod,kwargs", FAST_SWEEPS)
def test_cells_without_injected_prefix_reduce_identically(mod, kwargs):
    """A cell called directly, outside any graph, leaves its prefix kwarg at
    ``None`` and recomputes the prefix inline.  Tests, A5 (through E3's
    capacity cell) and the step-wise A6 driver call cells that way, so those
    cells must reduce to the text of the runner's injected-prefix run."""
    graph = graph_of(mod.SWEEP, **kwargs)
    assert all(node.needs for node in graph.points())
    cells = {node.node_id: replace(node, needs=()).execute()
             for node in graph.points()}
    reference = SweepRunner(jobs=1).run_spec(mod.SWEEP, **kwargs).result.text
    assert mod.SWEEP.reduce(cells, **kwargs).text == reference


@pytest.mark.parametrize("mod,kwargs", FAST_SWEEPS)
def test_cache_key_depends_on_kwargs(tmp_path, mod, kwargs):
    """A different seed must never hit the other seed's cache entries."""
    cache = ResultCache(tmp_path / "cache")
    SweepRunner(jobs=1, cache=cache).run_spec(mod.SWEEP, **kwargs, seed=1)
    other = SweepRunner(jobs=1, cache=cache).run_spec(mod.SWEEP, **kwargs, seed=2)
    assert other.cached == 0


def test_surrogate_kernel_serial_parallel_cached_equivalence(
        tmp_path, monkeypatch):
    """The determinism contract holds under the surrogate tier too: jobs=1,
    jobs=2 and a warm cache hit all emit one text byte for byte when
    ``REPRO_KERNEL=surrogate`` (workers inherit the env var)."""
    monkeypatch.setenv("REPRO_KERNEL", "surrogate")
    reference = SweepRunner(jobs=1).run_spec(e14_scale.SWEEP).result.text

    cache = ResultCache(tmp_path / "cache")
    runs = {
        "jobs=2": SweepRunner(jobs=2, cache=cache),
        "warm": SweepRunner(jobs=1, cache=cache),
    }
    for label, runner in runs.items():
        report = runner.run_spec(e14_scale.SWEEP)
        assert report.result.text == reference, f"{label} diverged"
        if label.endswith("warm"):
            assert report.fully_cached, f"{label} recomputed something"


def test_surrogate_kernel_namespaces_the_cache(tmp_path, monkeypatch):
    """A vector-warmed cache must never serve surrogate runs (the outputs
    legitimately differ within the tolerance budget), and vice versa — the
    kernel tag is part of every point/result/node key."""
    cache = ResultCache(tmp_path / "cache")
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    SweepRunner(jobs=1, cache=cache).run_spec(e14_scale.SWEEP)

    monkeypatch.setenv("REPRO_KERNEL", "surrogate")
    cold = SweepRunner(jobs=1, cache=cache).run_spec(e14_scale.SWEEP)
    assert cold.cached == 0                  # vector entries invisible
    warm = SweepRunner(jobs=1, cache=cache).run_spec(e14_scale.SWEEP)
    assert warm.fully_cached                 # surrogate entries round-trip

    monkeypatch.delenv("REPRO_KERNEL")
    back = SweepRunner(jobs=1, cache=cache).run_spec(e14_scale.SWEEP)
    assert back.fully_cached                 # vector entries still intact


def _completion_lines(out: str):
    """[(experiment id, detail)] from the CLI's per-experiment status lines."""
    return re.findall(r"\((\w+) completed in [\d.]+s(.*?)\)", out)


def test_cli_jobs_byte_identical(tmp_path, capsys):
    """`run E14 --jobs 2` prints the same result block as `--jobs 1`."""
    assert main(["run", "E14", "--jobs", "1", "--no-cache"]) == 0
    serial = capsys.readouterr().out.split("(E14 completed")[0]
    assert main(["run", "E14", "--jobs", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr().out.split("(E14 completed")[0]
    assert parallel == serial


def test_parallel_trace_merge_byte_identical():
    """--trace with --jobs N loses nothing: worker records merge back into
    the parent tracer deterministically, so the trace is record-for-record
    identical to a serial run (satellite of the causal-tracing PR)."""
    from repro import obs as O

    def traced_run(jobs):
        tracer = O.Tracer()
        with O.obs_session(O.Observability(tracer=tracer)) as obs:
            report = SweepRunner(jobs=jobs, obs=obs).run_spec(e14_scale.SWEEP)
        return report.result.text, [r.to_dict() for r in tracer.iter_records()]

    text1, trace1 = traced_run(1)
    text2, trace2 = traced_run(2)
    assert trace1, "traced sweep produced no records"
    assert text2 == text1
    assert trace2 == trace1          # same records, same order — nothing lost


def test_cli_warm_cache_skips_all_points(tmp_path, capsys):
    """A warm re-run recomputes nothing, sweep and non-sweep alike."""
    ids = ["E14", "E4", "A4", "E2"]
    for eid in ids:
        assert main(["run", eid, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for eid in ids:
        assert main(["run", eid, "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = dict(_completion_lines(out))
    assert set(lines) == set(ids)
    for eid in ("E14", "E4", "A4"):  # sweep-shaped: every point cached
        assert re.search(r": 0 computed, \d+ cached", lines[eid]), lines[eid]
    assert lines["E2"] == "; result cached"  # non-sweep: whole result cached


def test_cli_no_cache_flag(tmp_path, capsys):
    """--no-cache ignores a warm cache and recomputes every point."""
    assert main(["run", "E14", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["run", "E14", "--no-cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "3 points: 3 computed, 0 cached" in out
    assert "cache " not in out  # no cache session summary when disabled


def test_cli_rejects_bad_jobs(capsys):
    assert main(["run", "E14", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# full tier: the acceptance-criteria runs at full fidelity
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_cli_a6_jobs4_byte_identical(capsys):
    """`python -m repro run a6 --jobs 4` ≡ `--jobs 1` (acceptance criterion)."""
    assert main(["run", "a6", "--jobs", "1", "--no-cache"]) == 0
    serial = capsys.readouterr().out.split("(A6 completed")[0]
    assert main(["run", "a6", "--jobs", "4", "--no-cache"]) == 0
    parallel = capsys.readouterr().out.split("(A6 completed")[0]
    assert parallel == serial


@pytest.mark.slow
def test_run_all_warm_cache_skips_every_point(tmp_path, capsys):
    """A warm `run all` executes nothing at all (acceptance criterion)."""
    assert main(["run", "all", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["run", "all", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = _completion_lines(out)
    assert len(lines) == 22
    for eid, detail in lines:
        assert re.search(r": 0 computed, \d+ cached", detail) \
            or detail == "; result cached", (eid, detail)
