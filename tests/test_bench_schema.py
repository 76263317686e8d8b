"""The shared BENCH_*.json envelope schema (benchmarks/bench_schema.py).

All four bench emitters and the CI perf-regression job agree on one
artifact shape so ``repro diff`` can compare any two captures and
``history.jsonl`` can accumulate the trajectory.  These tests pin the
contract: validation catches every malformed document and every numeric
row key without a unit declaration, section merges are order-independent,
and history entries extract only the values declared lower- or
higher-better.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_schema  # noqa: E402

from repro.obs.diff import classify_key  # noqa: E402

S, N = bench_schema.WALL_S, bench_schema.COUNT


def test_envelope_builds_a_valid_document():
    units = {"serial_s": S, "parallel_speedup": bench_schema.SPEEDUP}
    doc = bench_schema.envelope(
        "runner", [{"serial_s": 1.5, "parallel_speedup": 2.0}],
        context={"seed": 7}, cpu_count=4, commit="abc1234", units=units)
    assert doc["schema_version"] == bench_schema.SCHEMA_VERSION == 1
    assert doc["bench"] == "runner"
    assert doc["commit"] == "abc1234"
    assert doc["cpu_count"] == 4
    assert doc["context"] == {"seed": 7}
    assert doc["units"] == units
    bench_schema.validate(doc)               # idempotent, no raise


def test_envelope_defaults_commit_and_cpu_count():
    doc = bench_schema.envelope("x", [])
    assert doc["commit"]                     # git sha or "unknown"
    assert doc["cpu_count"] >= 1


def test_sentinel_rows_are_allowed():
    doc = bench_schema.envelope(
        "runner", [{"parallel_speedup": "skipped_insufficient_cores"}])
    bench_schema.validate(doc)


@pytest.mark.parametrize("mutation, fragment", [
    ({"schema_version": 2}, "schema_version"),
    ({"bench": ""}, "bench"),
    ({"commit": None}, "commit"),
    ({"cpu_count": 0}, "cpu_count"),
    ({"cpu_count": True}, "cpu_count"),
    ({"rows": {"not": "a list"}}, "rows"),
    ({"rows": [{"nested": {"dict": 1}}]}, "scalar"),
    ({"rows": ["not a dict"]}, "rows[0]"),
    ({"context": None}, "context"),
    ({"surprise": 1}, "unexpected top-level"),
    ({"units": None}, "units must be an object"),
    ({"units": {}}, "without a units declaration: ['a_s']"),
    ({"units": {"a_s": {"unit": "s", "better": "faster"}}}, "units.a_s"),
    ({"units": {"a_s": {"unit": "", "better": "lower"}}}, "units.a_s"),
    ({"units": {"a_s": {"better": "lower"}}}, "units.a_s"),
])
def test_validate_rejects_malformed_documents(mutation, fragment):
    doc = bench_schema.envelope("x", [{"a_s": 1.0}], cpu_count=2,
                                commit="abc", units={"a_s": S})
    doc.update(mutation)
    with pytest.raises(ValueError, match=fragment.replace("[", r"\[")):
        bench_schema.validate(doc)


def test_validate_reports_all_problems_at_once():
    with pytest.raises(ValueError) as err:
        bench_schema.validate({"schema_version": 99, "rows": 3})
    message = str(err.value)
    for fragment in ("schema_version", "bench", "commit", "cpu_count",
                     "rows", "units", "context"):
        assert fragment in message


def test_write_and_validate_file_round_trip(tmp_path):
    path = tmp_path / "BENCH_x.json"
    doc = bench_schema.envelope("x", [{"wall_s": 1.0}], commit="abc",
                                cpu_count=2, units={"wall_s": S})
    bench_schema.write_bench(path, doc)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert bench_schema.validate_file(path) == doc


def test_validate_file_names_the_offender(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text('{"schema_version": 0}', encoding="utf-8")
    with pytest.raises(ValueError, match="BENCH_bad.json"):
        bench_schema.validate_file(path)


def test_merge_section_is_order_independent(tmp_path):
    a = [{"n": 1, "wall_s": 1.0}]
    b = [{"n": 2, "wall_s": 2.0}]
    p1 = tmp_path / "one" / "BENCH_engine.json"
    p1.parent.mkdir()
    ua, ub = {"n": N, "wall_s": S}, {"n": N, "wall_s": S, "x_s": S}
    bench_schema.merge_section(p1, "engine", "sizes", a, {"ka": 1}, ua)
    bench_schema.merge_section(p1, "engine", "surrogate_sizes", b, {"kb": 2},
                               ub)
    p2 = tmp_path / "two" / "BENCH_engine.json"
    p2.parent.mkdir()
    bench_schema.merge_section(p2, "engine", "surrogate_sizes", b, {"kb": 2},
                               ub)
    bench_schema.merge_section(p2, "engine", "sizes", a, {"ka": 1}, ua)

    d1 = bench_schema.validate_file(p1)
    d2 = bench_schema.validate_file(p2)
    assert sorted((r["section"], r["n"]) for r in d1["rows"]) == \
        sorted((r["section"], r["n"]) for r in d2["rows"]) == \
        [("sizes", 1), ("surrogate_sizes", 2)]
    assert d1["context"] == d2["context"] == {"ka": 1, "kb": 2}
    assert d1["units"] == d2["units"] == ub


def test_merge_section_replaces_only_its_own_rows(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    units = {"n": N}
    bench_schema.merge_section(path, "engine", "sizes", [{"n": 1}],
                               units=units)
    bench_schema.merge_section(path, "engine", "other", [{"n": 2}],
                               units=units)
    bench_schema.merge_section(path, "engine", "sizes", [{"n": 3}, {"n": 4}],
                               units=units)
    doc = bench_schema.validate_file(path)
    assert sorted((r["section"], r["n"]) for r in doc["rows"]) == \
        [("other", 2), ("sizes", 3), ("sizes", 4)]


def test_merge_section_recovers_from_pre_schema_artifacts(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text('{"legacy": true}', encoding="utf-8")
    doc = bench_schema.merge_section(path, "engine", "sizes", [{"n": 1}],
                                     units={"n": N})
    assert doc["rows"] == [{"n": 1, "section": "sizes"}]
    bench_schema.validate_file(path)


def test_history_entry_extracts_timing_like_scalars():
    doc = bench_schema.envelope("runner", [{
        "section": "sizes", "serial_s": 2.0, "parallel_speedup": 3.0,
        "points": 9, "byte_identical": True,
        "skipped": "skipped_insufficient_cores",
        "detection_latency_s": 2.5,
    }], commit="abc", cpu_count=4, units={
        "serial_s": S, "parallel_speedup": bench_schema.SPEEDUP,
        "points": N, "skipped": bench_schema.SPEEDUP,
        "detection_latency_s": {"unit": "sim-s", "better": "exact"}})
    entry = bench_schema.history_entry(doc, generated_at="2026-08-08T00:00:00")
    assert entry["bench"] == "runner"
    assert entry["commit"] == "abc"
    assert entry["rows"] == 1
    assert entry["generated_at"] == "2026-08-08T00:00:00"
    # timings carry the perf numbers only — no counts, simulated outcomes
    # declared exact (whatever their suffix), bools or sentinels
    assert entry["timings"] == {"sizes.serial_s": 2.0,
                                "sizes.parallel_speedup": 3.0}


def test_append_history_is_append_only(tmp_path):
    path = tmp_path / "history.jsonl"
    doc = bench_schema.envelope("x", [{"wall_s": 1.0}], commit="abc",
                                cpu_count=2, units={"wall_s": S})
    bench_schema.append_history(bench_schema.history_entry(doc), path)
    bench_schema.append_history(bench_schema.history_entry(doc), path)
    lines = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 2
    assert all(line["bench"] == "x" for line in lines)


# --------------------------------------------------------------------------- #
# the CLI used by CI, and the committed artifacts themselves
# --------------------------------------------------------------------------- #
def test_cli_validates_and_appends_history(tmp_path, capsys):
    good = tmp_path / "BENCH_x.json"
    bench_schema.write_bench(good, bench_schema.envelope(
        "x", [{"wall_s": 1.0}], commit="abc", cpu_count=2,
        units={"wall_s": S}))
    history = tmp_path / "history.jsonl"
    assert bench_schema.main(["--validate", "--append-history", str(history),
                              "--generated-at", "t0", str(good)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "history +=" in out
    entry = json.loads(history.read_text(encoding="utf-8"))
    assert entry["generated_at"] == "t0"

    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert bench_schema.main(["--validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_committed_bench_artifacts_conform():
    results = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
    artifacts = sorted(results.glob("BENCH_*.json"))
    assert len(artifacts) >= 4               # engine, resilience, runner, service
    for path in artifacts:
        doc = bench_schema.validate_file(path)
        assert doc["rows"], f"{path.name} has no rows"


def _committed(bench):
    results = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
    return bench_schema.validate_file(results / f"BENCH_{bench}.json")


@pytest.mark.parametrize("bench", ["runner", "engine"])
def test_runner_and_engine_declarations_keep_the_name_rules(bench):
    """The CI perf gate diffs these two benches: declaring their units
    must not change how any of their row keys compares."""
    kinds = {"lower": "lower_better", "higher": "higher_better",
             "exact": "exact"}
    for key, decl in _committed(bench)["units"].items():
        assert kinds[decl["better"]] == classify_key(key), key


def test_resilience_detection_latencies_are_exact_simulated_seconds():
    units = _committed("resilience")["units"]
    for key in ("detection_latency_p50_s", "detection_latency_p99_s"):
        assert units[key] == {"unit": "sim-s", "better": "exact"}
