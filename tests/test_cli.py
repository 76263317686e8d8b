"""Tests for the CLI experiment runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, main
from repro.obs import get_obs


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("F4", "F3", "E1", "E12", "A1", "A4"):
        assert eid in out


def test_unknown_experiment_errors(capsys):
    assert main(["run", "ZZ"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment(capsys):
    assert main(["run", "A1"]) == 0
    out = capsys.readouterr().out
    assert "[A1]" in out
    assert "completed in" in out


def test_run_case_insensitive(capsys):
    assert main(["run", "a1"]) == 0
    assert "[A1]" in capsys.readouterr().out


def test_run_with_seed_override(capsys):
    assert main(["run", "A1", "--seed", "123"]) == 0
    out1 = capsys.readouterr().out
    assert main(["run", "A1", "--seed", "123"]) == 0
    out2 = capsys.readouterr().out
    assert out1.split("completed")[0] == out2.split("completed")[0]  # deterministic


def test_seeded_run_lets_an_experiment_type_error_propagate(monkeypatch):
    """A TypeError raised inside an experiment is its own failure: the CLI
    must not take it for a missing ``seed`` parameter and rerun the
    experiment at its default seed."""
    calls = []

    def broken_run(seed: int = 101):
        calls.append(seed)
        raise TypeError("broken cell")

    registry = cli._registry

    def patched_registry():
        entries = registry()
        entries["E5"] = (entries["E5"][0], broken_run)
        return entries

    monkeypatch.setattr(cli, "_registry", patched_registry)
    # main() fills the module-level registry: keep the broken entry out of
    # the dict the other tests share
    monkeypatch.setattr(cli, "EXPERIMENTS", {})
    with pytest.raises(TypeError, match="broken cell"):
        main(["run", "E5", "--seed", "7", "--no-cache"])
    assert calls == [7]


def test_seed_is_not_passed_to_an_experiment_without_one(capsys):
    """E6 takes no seed; ``--seed`` leaves it alone, with a note on stderr."""
    assert main(["run", "E6", "--seed", "5", "--no-cache"]) == 0
    out, err = capsys.readouterr()
    assert "[E6]" in out
    assert "ignored" not in out
    assert err == "E6 takes no seed; --seed 5 ignored\n"
    assert main(["run", "E5", "--seed", "7", "--no-cache"]) == 0
    out, err = capsys.readouterr()
    assert "[E5]" in out
    assert err == ""


def test_registry_is_complete():
    main(["list"])  # populate
    assert len(EXPERIMENTS) == 22
    assert set(EXPERIMENTS) >= {f"E{i}" for i in range(1, 13)}


# --------------------------------------------------------------------------- #
# observability / export flags
# --------------------------------------------------------------------------- #
def test_run_with_json_export(tmp_path, capsys):
    out = tmp_path / "a1.json"
    assert main(["run", "A1", "--json", str(out)]) == 0
    back = json.loads(out.read_text())
    assert back["experiment_id"] == "A1"
    assert back["data"]  # raw numbers came along
    assert str(out) in capsys.readouterr().out


def test_run_fully_instrumented(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["run", "F3", "--trace", str(trace), "--chrome-trace",
                 str(chrome), "--profile", "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "profile —" in out
    # JSONL trace: every line parses, several record kinds present
    kinds = set()
    for line in trace.read_text().splitlines():
        kinds.add(json.loads(line)["kind"])
    assert {"request", "regulator", "sample"} <= kinds
    assert "engine" not in kinds  # the engine writes no per-callback records
    # chrome trace parses and carries events
    doc = json.loads(chrome.read_text())
    assert len(doc["traceEvents"]) > 100
    # metrics snapshot is a non-empty mapping
    snap = json.loads(metrics.read_text())
    assert snap and any(k.startswith("requests_completed") for k in snap)


def test_instrumented_output_identical_to_plain(capsys):
    assert main(["run", "A1", "--seed", "5"]) == 0
    plain = capsys.readouterr().out.split("completed")[0]
    assert main(["run", "A1", "--seed", "5", "--profile"]) == 0
    instrumented = capsys.readouterr().out.split("completed")[0]
    assert plain == instrumented


def test_obs_uninstalled_after_run(tmp_path):
    before = get_obs()
    assert main(["run", "A1", "--metrics-out", str(tmp_path / "m.json")]) == 0
    assert get_obs() is before
    assert not get_obs().active


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #
def test_serve_passes_only_the_twin_flags_the_user_set(monkeypatch):
    """TwinConfig holds the twin's defaults: an unset flag leaves its field
    at the default, a set one overrides it."""
    import repro.service as service

    served = []
    monkeypatch.setattr(service, "serve",
                        lambda twin, **kw: served.append(twin.config))
    assert main(["serve", "--days", "0.02"]) == 0
    assert main(["serve", "--days", "0.02", "--slice-s", "120",
                 "--pace", "0.5", "--flight-recorder", "512"]) == 0
    assert served == [
        service.TwinConfig(),
        service.TwinConfig(slice_s=120.0, pace=0.5, ring_capacity=512),
    ]


def test_parser_does_not_import_the_service():
    """Building the parser leaves ``repro.service`` unloaded (checked in a
    fresh interpreter, because this process has imported it)."""
    program = ("import sys, repro.cli\n"
               "repro.cli.main(['list'])\n"
               "assert 'repro.service' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
