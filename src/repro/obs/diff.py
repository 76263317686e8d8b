"""Structural perf/outcome diff between two JSON artifacts (`repro diff`).

The radar compares any two of the repo's machine-readable artifacts — run
reports (``repro run --report-json``), bench envelopes (``BENCH_*.json``,
see ``benchmarks/bench_schema.py``) or plain metric dicts — and classifies
every leaf-level change instead of demanding byte equality:

* **bench envelope rows** compare as their envelope's ``units`` map
  declares each key (``better``: ``lower``, ``higher`` or ``exact``; see
  ``benchmarks/bench_schema.py``) — a simulated-seconds latency declared
  ``exact`` is a regression at any delta and on any hardware.  Row keys
  the map does not declare (strings, flags) and every other artifact
  (run reports, plain metric dicts, envelope context) fall back to the
  key-name rules below;
* **timing keys** (``*_s``, ``*_ms``, ``*_mib`` …, or containing ``latency``
  / ``rtt`` / ``wall``) are *lower-better*: the candidate only
  regresses when it exceeds the baseline by more than the relative tolerance
  band **and** the absolute floor (so jitter on sub-second timings never
  flags);
* **speedup keys** (containing ``speedup`` or ``ratio``) are
  *higher-better* with the same band;
* **everything else numeric or string is exact** — a changed SLO rate,
  deadline percentage or ``result_digest`` is a regression at any delta;
* **scheduling detail** (worker assignment, chunk steals, heartbeats,
  retry/death accounting) legitimately varies between two identical-config
  runs and is reported as *info*, never a regression;
* ``commit`` / ``generated_at`` / ``wrote`` provenance keys are ignored,
  and a ``cpu_count`` mismatch anywhere in scope downgrades every timing
  and speedup comparison under it to *skipped* (numbers measured on
  different hardware are not comparable — the bench honesty convention);
* the sentinel ``"skipped_insufficient_cores"`` matches anything: an
  undersized CI box neither passes nor fails a perf gate.

Deterministic: entries come out in sorted-path order, so two diffs of the
same pair of files are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["DiffEntry", "DiffReport", "diff_artifacts", "diff_files",
           "load_artifact"]

# leaf keys that are pure provenance: always ignored
_IGNORED_KEYS = frozenset({"commit", "generated_at", "wrote", "timestamp"})
# scheduling detail that legitimately varies between two identical-config
# runs (work stealing, worker assignment, crash/retry accounting), plus
# ``cpu_count`` hardware provenance (it *drives* the skip logic below):
# reported as "info" when changed, never a regression
_INFO_KEYS = frozenset({
    "worker", "attempts", "chunk_steals", "chunks_dispatched",
    "queue_depth_peak", "worker_deaths", "retried_nodes",
    "respawned_workers", "duplicate_results", "cpu_count",
})
_INFO_SEGMENTS = frozenset({"last_heartbeat", "nodes_per_worker"})
# sentinel an undersized box writes instead of a perf number
_SKIP_SENTINEL = "skipped_insufficient_cores"
# suffixes / substrings marking a lower-is-better measured quantity
_TIMING_SUFFIXES = ("_s", "_ms", "_us", "_ns", "_mib", "_mb", "_bytes")
_TIMING_SUBSTRINGS = ("latency", "rtt", "wall", "staleness")
_HIGHER_BETTER_SUBSTRINGS = ("speedup", "ratio", "throughput", "per_s")
# below this absolute delta (seconds/units) a timing change is noise
_DEFAULT_ABS_FLOOR = 0.25
# a bench envelope's declared ``better`` -> comparison kind
_DECLARED_KINDS = {"lower": "lower_better", "higher": "higher_better",
                   "exact": "exact"}


def classify_key(key: str) -> str:
    """How a leaf key is compared: lower_better | higher_better | exact."""
    low = key.lower()
    if any(s in low for s in _HIGHER_BETTER_SUBSTRINGS):
        return "higher_better"
    if low.endswith(_TIMING_SUFFIXES) or \
            any(s in low for s in _TIMING_SUBSTRINGS):
        return "lower_better"
    return "exact"


@dataclass
class DiffEntry:
    """One leaf-level comparison outcome."""

    path: str           # dotted path into the artifact ("rows.0.serial_s")
    kind: str           # lower_better | higher_better | exact | structure
    status: str         # ok | regression | improvement | skipped | added | missing
    base: Any = None
    cand: Any = None
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "kind": self.kind, "status": self.status,
                "base": self.base, "cand": self.cand, "note": self.note}


@dataclass
class DiffReport:
    """All entries of one artifact comparison, sorted by path."""

    base_name: str
    cand_name: str
    rel_tol: float
    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "improvement"]

    @property
    def skipped(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "skipped"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base_name,
            "cand": self.cand_name,
            "rel_tol": self.rel_tol,
            "ok": self.ok,
            "counts": {
                "compared": len(self.entries),
                "regressions": len(self.regressions),
                "improvements": len(self.improvements),
                "skipped": len(self.skipped),
            },
            "entries": [e.to_dict() for e in self.entries
                        if e.status != "ok"],
        }

    def render(self) -> str:
        """Human-readable summary, stable across reruns of the same pair."""
        lines = [f"diff {self.base_name} -> {self.cand_name} "
                 f"(rel_tol={self.rel_tol:g})"]
        shown = [e for e in self.entries if e.status != "ok"]
        for e in shown:
            delta = ""
            if isinstance(e.base, (int, float)) and \
                    isinstance(e.cand, (int, float)) and \
                    not isinstance(e.base, bool) and e.base:
                delta = f" ({(e.cand - e.base) / abs(e.base):+.1%})"
            lines.append(f"  [{e.status:<11}] {e.path}: "
                         f"{e.base!r} -> {e.cand!r}{delta}"
                         + (f"  # {e.note}" if e.note else ""))
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.skipped)} skipped, "
            f"{len(self.entries)} leaves compared")
        return "\n".join(lines)


def load_artifact(path: Union[str, Path]) -> Any:
    """Load one JSON (or JSONL: list of objects) artifact from disk."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaf_key(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def _walk(base: Any, cand: Any, path: str,
          out: List[Tuple[str, Any, Any]]) -> None:
    """Flatten both trees into aligned (path, base, cand) leaf triples."""
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append((sub, _MISSING, cand[key]))
            elif key not in cand:
                out.append((sub, base[key], _MISSING))
            else:
                _walk(base[key], cand[key], sub, out)
        return
    if isinstance(base, list) and isinstance(cand, list):
        for i in range(max(len(base), len(cand))):
            sub = f"{path}.{i}" if path else str(i)
            if i >= len(base):
                out.append((sub, _MISSING, cand[i]))
            elif i >= len(cand):
                out.append((sub, base[i], _MISSING))
            else:
                _walk(base[i], cand[i], sub, out)
        return
    out.append((path, base, cand))


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<absent>"


_MISSING = _Missing()


def _declared_row_kinds(base: Any, cand: Any) -> Dict[str, str]:
    """Row key -> kind from the bench envelopes' ``units`` maps.

    The candidate's declaration wins; a baseline captured before its bench
    declared units still compares by the candidate's map.
    """
    kinds: Dict[str, str] = {}
    for doc in (base, cand):
        if isinstance(doc, dict) and isinstance(doc.get("rows"), list) \
                and isinstance(doc.get("units"), dict):
            for key, decl in doc["units"].items():
                if isinstance(decl, dict) and decl.get("better") in _DECLARED_KINDS:
                    kinds[key] = _DECLARED_KINDS[decl["better"]]
    return kinds


def _cpu_mismatch_scopes(base: Any, cand: Any) -> List[str]:
    """Dotted-path prefixes under which ``cpu_count`` disagrees."""
    scopes: List[str] = []

    def visit(b: Any, c: Any, path: str) -> None:
        if isinstance(b, dict) and isinstance(c, dict):
            if b.get("cpu_count") is not None and \
                    c.get("cpu_count") is not None and \
                    b["cpu_count"] != c["cpu_count"]:
                scopes.append(path)
            for key in sorted(set(b) & set(c)):
                visit(b[key], c[key],
                      f"{path}.{key}" if path else str(key))
        elif isinstance(b, list) and isinstance(c, list):
            for i in range(min(len(b), len(c))):
                visit(b[i], c[i], f"{path}.{i}" if path else str(i))

    visit(base, cand, "")
    return scopes


def diff_artifacts(base: Any, cand: Any, rel_tol: float = 0.2,
                   abs_floor: float = _DEFAULT_ABS_FLOOR,
                   base_name: str = "base",
                   cand_name: str = "candidate") -> DiffReport:
    """Compare two parsed artifacts; see the module docstring for semantics."""
    report = DiffReport(base_name=base_name, cand_name=cand_name,
                        rel_tol=rel_tol)
    leaves: List[Tuple[str, Any, Any]] = []
    _walk(base, cand, "", leaves)
    mismatch_scopes = _cpu_mismatch_scopes(base, cand)
    declared = _declared_row_kinds(base, cand)

    for path, b, c in leaves:
        key = _leaf_key(path)
        if key in _IGNORED_KEYS:
            continue
        if key in declared and path.startswith("rows.") \
                and path.count(".") == 2:
            kind = declared[key]
        else:
            kind = classify_key(key)
        perf = kind in ("lower_better", "higher_better")
        info = (key in _INFO_KEYS
                or not _INFO_SEGMENTS.isdisjoint(path.split(".")))
        entry = DiffEntry(path=path, kind=kind, status="ok",
                          base=None if b is _MISSING else b,
                          cand=None if c is _MISSING else c)

        if b is _MISSING:
            entry.status, entry.kind = "added", "structure"
            entry.note = "key only in candidate"
        elif c is _MISSING:
            entry.kind = "structure"
            entry.note = "key dropped from candidate"
            entry.status = "missing" if (perf or info) else "regression"
        elif b == _SKIP_SENTINEL or c == _SKIP_SENTINEL:
            entry.status = "skipped"
            entry.note = "undersized box (cpu_count convention)"
        elif info:
            if b != c:
                entry.status = "info"
                entry.note = "scheduling detail: varies between runs"
        elif perf and any(path.startswith(s + ".") or s == ""
                          for s in mismatch_scopes):
            entry.status = "skipped"
            entry.note = "cpu_count differs: timings not comparable"
        elif _is_number(b) and _is_number(c) and perf:
            delta = c - b
            band = rel_tol * abs(b)
            worse = delta > 0 if kind == "lower_better" else delta < 0
            if worse and abs(delta) > band and abs(delta) > abs_floor:
                entry.status = "regression"
                entry.note = f"outside ±{rel_tol:.0%} band"
            elif (not worse) and abs(delta) > band and abs(delta) > abs_floor:
                entry.status = "improvement"
        elif b != c:
            # exact-compared leaf changed: outcome drift is a regression
            entry.status = "regression"
            entry.note = "exact-match key changed"
        report.entries.append(entry)
    return report


def diff_files(base_path: Union[str, Path], cand_path: Union[str, Path],
               rel_tol: float = 0.2,
               abs_floor: float = _DEFAULT_ABS_FLOOR) -> DiffReport:
    """Load two artifact files and diff them (names taken from the paths)."""
    base = load_artifact(base_path)
    cand = load_artifact(cand_path)
    return diff_artifacts(base, cand, rel_tol=rel_tol, abs_floor=abs_floor,
                          base_name=str(base_path), cand_name=str(cand_path))
