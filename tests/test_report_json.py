"""RunReport JSON export and the ``repro diff`` perf-regression radar.

Two halves of the same acceptance criterion: ``repro run --report-json``
persists everything a later session needs to compare against (including
``result_digest`` and the backend's wall-clock telemetry), and ``repro
diff`` classifies the comparison — two identical runs report zero
regressions, a perturbed run is flagged, scheduling detail is
informational, and undersized-box sentinels neither pass nor fail.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import e14_scale
from repro.obs.diff import (
    classify_key,
    diff_artifacts,
    diff_files,
    load_artifact,
)
from repro.runner import RunReport, SweepRunner


# --------------------------------------------------------------------------- #
# RunReport.to_dict / from_dict
# --------------------------------------------------------------------------- #
def test_run_report_round_trips_through_dict():
    report = SweepRunner(jobs=1, backend="dag").run_spec(e14_scale.SWEEP)
    d = report.to_dict()
    assert d["experiment"] == "E14"
    assert d["backend"] == "dag"
    assert d["jobs"] == 1
    assert d["points"] == report.points
    assert d["computed_nodes"] == report.computed_nodes
    assert d["fully_cached"] is False
    assert d["wall_s"] > 0.0
    # digest of the rendered result text: the diffable outcome fingerprint
    assert len(d["result_digest"]) == 64
    assert set(d["result_digest"]) <= set("0123456789abcdef")
    assert d["backend_stats"]["executed"] == report.computed_nodes
    restored = RunReport.from_dict(d)
    assert restored.result is None           # the result does not round-trip
    assert restored.to_dict() == d


def test_result_digest_is_deterministic():
    d1 = SweepRunner(jobs=1).run_spec(e14_scale.SWEEP).to_dict()
    d2 = SweepRunner(jobs=2).run_spec(e14_scale.SWEEP).to_dict()
    assert d1["result_digest"] == d2["result_digest"]


def test_cli_run_report_json(tmp_path, capsys):
    out = tmp_path / "e14.json"
    assert main(["run", "E14", "--no-cache", "--jobs", "2",
                 "--report-json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["experiment"] == "E14"
    assert payload["jobs"] == 2
    assert payload["computed"] == payload["points"] > 0
    assert payload["backend_stats"] is not None
    timeline = payload["backend_stats"]["timeline"]
    assert len(timeline) == payload["computed_nodes"]
    assert {"node", "kind", "worker", "attempts", "wall_s"} <= set(timeline[0])


# --------------------------------------------------------------------------- #
# diff classification
# --------------------------------------------------------------------------- #
def test_classify_key():
    assert classify_key("serial_s") == "lower_better"
    assert classify_key("inject_rtt_ms_p50") == "lower_better"
    assert classify_key("steady_state_rss_mib") == "lower_better"
    assert classify_key("heartbeat_max_staleness_s") == "lower_better"
    assert classify_key("parallel_speedup") == "higher_better"
    assert classify_key("sse_events_per_s") == "higher_better"
    assert classify_key("points") == "exact"
    assert classify_key("result_digest") == "exact"
    assert classify_key("served_in_deadline_rate") == "exact"


def test_identical_artifacts_report_zero_regressions():
    doc = {"points": 3, "wall_s": 1.5, "result_digest": "ab" * 32,
           "backend_stats": {"chunk_steals": 4, "executed": 5}}
    report = diff_artifacts(doc, json.loads(json.dumps(doc)))
    assert report.ok
    assert report.regressions == []
    assert all(e.status == "ok" for e in report.entries)


def test_exact_key_change_is_a_regression_at_any_delta():
    report = diff_artifacts({"result_digest": "aa", "points": 3},
                            {"result_digest": "bb", "points": 3})
    assert not report.ok
    assert [e.path for e in report.regressions] == ["result_digest"]


def test_timing_band_and_absolute_floor():
    base = {"wall_s": 10.0, "warm_s": 0.1}
    # +10% on a 10s timing: inside the ±20% band → ok
    assert diff_artifacts(base, {"wall_s": 11.0, "warm_s": 0.1}).ok
    # +50% and > abs floor → regression
    worse = diff_artifacts(base, {"wall_s": 15.0, "warm_s": 0.1})
    assert [e.path for e in worse.regressions] == ["wall_s"]
    assert worse.regressions[0].kind == "lower_better"
    # 0.1s → 0.3s is 200% worse but under the 0.25s floor: jitter, ok
    assert diff_artifacts(base, {"wall_s": 10.0, "warm_s": 0.3}).ok
    # big speedup drop is a regression on a higher-better key
    slower = diff_artifacts({"speedup": 3.0}, {"speedup": 1.5})
    assert [e.path for e in slower.regressions] == ["speedup"]
    # big improvement is reported, not flagged
    faster = diff_artifacts(base, {"wall_s": 5.0, "warm_s": 0.1})
    assert faster.ok
    assert [e.path for e in faster.improvements] == ["wall_s"]


def test_scheduling_detail_is_info_never_regression():
    base = {"backend_stats": {"chunk_steals": 4, "queue_depth_peak": 2,
                              "nodes_per_worker": {"0": 3, "1": 2},
                              "last_heartbeat": {"0": 100.0},
                              "timeline": [{"node": "a", "worker": 0,
                                            "attempts": 1}]}}
    cand = {"backend_stats": {"chunk_steals": 9, "queue_depth_peak": 5,
                              "nodes_per_worker": {"0": 5},
                              "last_heartbeat": {"0": 200.0, "1": 201.0},
                              "timeline": [{"node": "a", "worker": 1,
                                            "attempts": 2}]}}
    report = diff_artifacts(base, cand)
    assert report.ok
    statuses = {e.status for e in report.entries if e.status != "ok"}
    assert statuses <= {"info", "added", "missing"}


def test_sentinel_skips_instead_of_failing():
    base = {"parallel_speedup": 2.5}
    cand = {"parallel_speedup": "skipped_insufficient_cores"}
    report = diff_artifacts(base, cand)
    assert report.ok
    assert [e.path for e in report.skipped] == ["parallel_speedup"]


def test_cpu_count_mismatch_downgrades_timings_to_skipped():
    base = {"cpu_count": 16, "wall_s": 1.0, "points": 3}
    cand = {"cpu_count": 2, "wall_s": 9.0, "points": 4}
    report = diff_artifacts(base, cand)
    # the 9x slowdown is not comparable across boxes → skipped…
    assert "wall_s" in [e.path for e in report.skipped]
    # …but outcome drift still counts
    assert [e.path for e in report.regressions] == ["points"]


def _committed_resilience():
    path = (Path(__file__).resolve().parents[1] / "benchmarks" / "results"
            / "BENCH_resilience.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cand_cpus", [None, 64])
def test_bench_rows_compare_by_declared_units(cand_cpus):
    """A simulated-seconds latency declared ``exact`` in the envelope's
    ``units`` map is a regression at +15%, where its ``_s`` suffix alone
    would put it in the wall-clock tolerance band (and skip it when the
    hardware differs)."""
    base = _committed_resilience()
    cand = json.loads(json.dumps(base))
    if cand_cpus is not None:
        cand["cpu_count"] = cand_cpus
    (i, row), = [(i, r) for i, r in enumerate(cand["rows"])
                 if (r["mtbf"], r["policy"]) == ("mtbf=2h", "none")]
    assert row["detection_latency_p99_s"] == pytest.approx(2.4835, abs=1e-4)
    row["detection_latency_p99_s"] = 2.856
    report = diff_artifacts(base, cand)
    path = f"rows.{i}.detection_latency_p99_s"
    assert [(e.path, e.kind) for e in report.regressions] == [(path, "exact")]
    # artifacts without a units map keep the key-name rules
    assert classify_key("detection_latency_p99_s") == "lower_better"
    assert diff_artifacts({"detection_latency_p99_s": 2.4835},
                          {"detection_latency_p99_s": 2.856}).ok


def test_missing_keys():
    report = diff_artifacts({"points": 3, "wall_s": 1.0, "extra_s": 2.0},
                            {"points": 3, "wall_s": 1.0})
    # dropped perf key is "missing" (non-failing); dropped exact key fails
    assert report.ok
    missing = {e.path: e.status for e in report.entries
               if e.status != "ok"}
    assert missing == {"extra_s": "missing"}
    gone = diff_artifacts({"points": 3}, {})
    assert [e.path for e in gone.regressions] == ["points"]


def test_provenance_keys_are_ignored():
    report = diff_artifacts({"commit": "abc", "generated_at": "x", "n": 1},
                            {"commit": "def", "generated_at": "y", "n": 1})
    assert report.ok
    assert all(e.path == "n" for e in report.entries)


def test_diff_render_is_deterministic():
    base = {"wall_s": 1.0, "points": 3}
    cand = {"wall_s": 9.0, "points": 4}
    r1 = diff_artifacts(base, cand).render()
    r2 = diff_artifacts(base, cand).render()
    assert r1 == r2
    assert "regression" in r1


def test_load_artifact_jsonl(tmp_path):
    p = tmp_path / "history.jsonl"
    p.write_text('{"a": 1}\n{"a": 2}\n\n', encoding="utf-8")
    assert load_artifact(p) == [{"a": 1}, {"a": 2}]


# --------------------------------------------------------------------------- #
# CLI: exit codes and the end-to-end identical-vs-perturbed criterion
# --------------------------------------------------------------------------- #
def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_diff_identical_run_reports_exit_zero(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "E14", "--no-cache", "--jobs", "2",
                 "--report-json", str(a)]) == 0
    assert main(["run", "E14", "--no-cache", "--jobs", "2",
                 "--report-json", str(b)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out


def test_cli_diff_flags_perturbed_run(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert main(["run", "E14", "--no-cache",
                 "--report-json", str(a)]) == 0
    capsys.readouterr()
    doc = json.loads(a.read_text(encoding="utf-8"))
    doc["result_digest"] = "0" * 64          # outcome drift
    doc["computed"] += 1
    b = _write(tmp_path / "b.json", doc)
    assert main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "result_digest" in out and "regression" in out


def test_cli_diff_json_output(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"points": 3})
    b = _write(tmp_path / "b.json", {"points": 4})
    out = tmp_path / "diff.json"
    assert main(["diff", str(a), str(b), "--json", str(out)]) == 1
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["ok"] is False
    assert payload["counts"]["regressions"] == 1
    assert payload["entries"][0]["path"] == "points"


def test_cli_diff_rel_tol_flag(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"wall_s": 10.0})
    b = _write(tmp_path / "b.json", {"wall_s": 14.0})
    assert main(["diff", str(a), str(b)]) == 1          # +40% > default 20%
    assert main(["diff", str(a), str(b), "--rel-tol", "0.5"]) == 0
    capsys.readouterr()


def test_cli_diff_bad_file_exits_two(tmp_path, capsys):
    good = _write(tmp_path / "a.json", {"points": 3})
    assert main(["diff", str(good), str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["diff", str(good), str(bad)]) == 2
    capsys.readouterr()


def test_diff_files_names_come_from_paths(tmp_path):
    a = _write(tmp_path / "base.json", {"points": 3})
    b = _write(tmp_path / "cand.json", {"points": 3})
    report = diff_files(a, b)
    assert report.ok
    assert report.base_name.endswith("base.json")
    assert report.cand_name.endswith("cand.json")
