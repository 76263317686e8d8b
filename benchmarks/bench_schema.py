"""Shared schema for every ``benchmarks/results/BENCH_*.json`` artifact.

Before this module each bench emitter invented its own JSON shape, which
made ``repro diff`` (the perf-regression radar) and any history tracking
ad-hoc.  All four emitters now write one **envelope**::

    {
      "schema_version": 1,
      "bench": "runner",              # short bench name (file suffix)
      "commit": "<git sha | unknown>",
      "cpu_count": 4,                 # honesty convention: hardware context
      "rows": [ {flat scalars...} ],  # measured quantities, one dict per row
      "units": {"serial_s": {"unit": "s", "better": "lower"}, ...},
      "context": { ... }              # configuration + non-tabular extras
    }

``rows`` hold *measured* numbers; ``units`` declares, for every numeric row
key, its unit and how two captures compare: ``lower`` or ``higher`` is
better (the radar applies its tolerance band), or ``exact`` (a simulated
outcome: any change is a regression, on any hardware).  ``repro diff`` and
:func:`history_entry` read these declarations, not key suffixes.
``context`` holds configuration (seeds, durations, nested summaries) that
must match exactly or is informational.  Undersized boxes keep writing the
string sentinel ``"skipped_insufficient_cores"`` in place of a perf number
— the schema allows it and the differ skips it.

``history.jsonl`` is the append-only bench trajectory: one JSON line per
(bench, commit) capture so regressions are visible over time, not just
against a single baseline.  Run as a script to validate artifacts in CI::

    python benchmarks/bench_schema.py --validate benchmarks/results/BENCH_*.json
    python benchmarks/bench_schema.py --append-history benchmarks/results/history.jsonl \
        benchmarks/results/BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

SCHEMA_VERSION = 1
RESULTS_DIR = Path(__file__).parent / "results"
HISTORY_PATH = RESULTS_DIR / "history.jsonl"

_SCALAR_TYPES = (str, int, float, bool, type(None))
#: how a declared row key compares between two captures
BETTER = ("lower", "higher", "exact")
#: the declarations most rows use
WALL_S = {"unit": "s", "better": "lower"}
SPEEDUP = {"unit": "ratio", "better": "higher"}
COUNT = {"unit": "count", "better": "exact"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def commit_sha() -> str:
    """Current git commit (short), or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def envelope(bench: str, rows: List[Dict[str, Any]],
             context: Optional[Dict[str, Any]] = None,
             cpu_count: Optional[int] = None,
             commit: Optional[str] = None,
             units: Optional[Dict[str, Dict[str, str]]] = None
             ) -> Dict[str, Any]:
    """Build a schema-conforming bench document (validated before return).

    ``units`` maps each numeric row key to ``{"unit": ..., "better": ...}``
    with ``better`` one of :data:`BETTER`.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "commit": commit if commit is not None else commit_sha(),
        "cpu_count": cpu_count if cpu_count is not None
        else (os.cpu_count() or 1),
        "rows": rows,
        "units": dict(units or {}),
        "context": dict(context or {}),
    }
    validate(doc)
    return doc


def validate(doc: Any) -> None:
    """Raise ``ValueError`` listing every way ``doc`` violates the schema."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError("bench artifact must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    if not isinstance(doc.get("commit"), str) or not doc.get("commit"):
        problems.append("commit must be a non-empty string")
    cpus = doc.get("cpu_count")
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
        problems.append(f"cpu_count must be a positive int, got {cpus!r}")
    units = doc.get("units")
    if not isinstance(units, dict):
        problems.append("units must be an object")
        units = {}
    for key, decl in units.items():
        if not (isinstance(decl, dict) and set(decl) == {"unit", "better"}
                and isinstance(decl["unit"], str) and decl["unit"]
                and decl["better"] in BETTER):
            problems.append(f"units.{key} must be {{unit: <non-empty "
                            f"string>, better: one of {list(BETTER)}}}")
    undeclared = set()
    rows = doc.get("rows")
    if not isinstance(rows, list):
        problems.append("rows must be a list")
    else:
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"rows[{i}] must be an object")
                continue
            for key, value in row.items():
                if not isinstance(value, _SCALAR_TYPES):
                    problems.append(
                        f"rows[{i}].{key} must be a scalar, "
                        f"got {type(value).__name__}")
                elif _is_number(value) and key not in units:
                    undeclared.add(key)
    if undeclared:
        problems.append(f"numeric row keys without a units declaration: "
                        f"{sorted(undeclared)}")
    if not isinstance(doc.get("context"), dict):
        problems.append("context must be an object")
    extra = set(doc) - {"schema_version", "bench", "commit", "cpu_count",
                        "rows", "units", "context"}
    if extra:
        problems.append(f"unexpected top-level keys: {sorted(extra)}")
    if problems:
        raise ValueError("; ".join(problems))


def validate_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Load + validate one artifact; returns the parsed document."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        validate(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc


def write_bench(path: Union[str, Path], doc: Dict[str, Any]) -> None:
    """Validate and persist one envelope (sorted keys, trailing newline)."""
    validate(doc)
    Path(path).parent.mkdir(exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def merge_section(path: Union[str, Path], bench: str, section: str,
                  rows: List[Dict[str, Any]],
                  context: Optional[Dict[str, Any]] = None,
                  units: Optional[Dict[str, Dict[str, str]]] = None
                  ) -> Dict[str, Any]:
    """Replace one section's rows in an envelope written by several tests.

    ``BENCH_engine.json`` has two independent emitters (exact-kernel and
    surrogate-tier benches) that may run in either order; each tags its rows
    with ``section`` and this merge keeps the other section's rows intact.
    ``units`` is merged into the envelope's declarations the same way.
    """
    p = Path(path)
    doc: Dict[str, Any]
    if p.exists():
        try:
            doc = validate_file(p)
            if doc["bench"] != bench:
                doc = envelope(bench, [])
        except (ValueError, json.JSONDecodeError):
            doc = envelope(bench, [])   # pre-schema artifact: start fresh
    else:
        doc = envelope(bench, [])
    kept = [r for r in doc["rows"] if r.get("section") != section]
    tagged = [{**row, "section": section} for row in rows]
    doc["rows"] = kept + tagged
    doc["units"].update(units or {})
    doc["commit"] = commit_sha()
    doc["cpu_count"] = os.cpu_count() or 1
    if context:
        doc["context"].update(context)
    write_bench(p, doc)
    return doc


# --------------------------------------------------------------------------- #
# history: the append-only bench trajectory
# --------------------------------------------------------------------------- #
def history_entry(doc: Dict[str, Any],
                  generated_at: Optional[str] = None) -> Dict[str, Any]:
    """One trajectory line summarizing a bench envelope: its numeric row
    values declared ``lower`` or ``higher`` better (the perf numbers)."""
    validate(doc)
    perf = {key for key, decl in doc["units"].items()
            if decl["better"] != "exact"}
    timings: Dict[str, Any] = {}
    for i, row in enumerate(doc["rows"]):
        label = str(row.get("section", row.get("fleet_multiplier",
                    row.get("policy", row.get("experiment", i)))))
        for key, value in row.items():
            if key in perf and _is_number(value):
                timings[f"{label}.{key}"] = value
    entry = {
        "bench": doc["bench"],
        "commit": doc["commit"],
        "cpu_count": doc["cpu_count"],
        "rows": len(doc["rows"]),
        "timings": timings,
    }
    if generated_at is not None:
        entry["generated_at"] = generated_at
    return entry


def append_history(entry: Dict[str, Any],
                   path: Union[str, Path] = HISTORY_PATH) -> None:
    """Append one JSON line to the bench-trajectory log."""
    p = Path(path)
    p.parent.mkdir(exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate BENCH_*.json artifacts / append bench history")
    parser.add_argument("--validate", action="store_true",
                        help="validate each FILE against the shared schema")
    parser.add_argument("--append-history", metavar="HISTORY",
                        help="append one summary line per FILE to HISTORY")
    parser.add_argument("--generated-at", default=None,
                        help="timestamp recorded in history entries")
    parser.add_argument("files", nargs="+", help="BENCH_*.json artifacts")
    args = parser.parse_args(argv)

    status = 0
    for file in args.files:
        try:
            doc = validate_file(file)
        except (ValueError, json.JSONDecodeError, OSError) as exc:
            print(f"INVALID {file}: {exc}", file=sys.stderr)
            status = 1
            continue
        if args.validate:
            print(f"ok {file} (bench={doc['bench']}, rows={len(doc['rows'])})")
        if args.append_history:
            append_history(history_entry(doc, args.generated_at),
                           args.append_history)
            print(f"history += {doc['bench']}@{doc['commit']}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
