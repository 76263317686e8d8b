"""Host-time spans around the public functions of each simulator layer.

The benchmark does not instrument the simulator from the inside.  It wraps
named public methods of ``repro.*`` classes from here (see
:data:`LAYER_HOOKS`), records one span per call (name, start, end, parent,
thread) and folds every span into its layer's *self time*: the span's
duration minus the part covered by wrapped calls made inside it.  Self times
of all layers plus the unattributed remainder sum to the traced wall of the
thread that drives the simulation, by construction.

Spans are kept in memory (up to :data:`MAX_SPANS`; the per-layer sums always
cover every call) and exported in the repository's own ``TraceRecord``
JSONL and Chrome trace-event formats, so ``python -m repro report`` and a
trace viewer render them without new code.  The records carry host seconds
since the ledger started (``args.clock == "host"``), not simulated time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_HOOKS", "COUNT_HOOKS", "MAX_SPANS", "Ledger"]

#: spans kept for export per ledger; later calls still count in the sums
MAX_SPANS = 10_000

#: (module, class, method, layer metric the call's self time is charged to)
LAYER_HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Engine", "run_until", "sim.run_until_s"),
    ("repro.workloads.edge", "EdgeWorkloadGenerator", "generate",
     "workloads.generate_s"),
    ("repro.workloads.edge", "EdgeWorkloadGenerator", "plan",
     "workloads.generate_s"),
    ("repro.workloads.edge", "EdgeWorkloadGenerator", "materialize",
     "workloads.generate_s"),
    ("repro.workloads.cloud", "CloudJobGenerator", "generate",
     "workloads.generate_s"),
    ("repro.workloads.heating", "HeatingRequestGenerator", "generate",
     "workloads.generate_s"),
    ("repro.core.middleware", "DF3Middleware", "__init__",
     "core.middleware.build_s"),
    ("repro.core.middleware", "DF3Middleware", "inject",
     "core.middleware.inject_s"),
    ("repro.core.gateway", "EdgeGateway", "submit",
     "core.gateway.edge_submit_s"),
    ("repro.core.gateway", "DCCGateway", "submit",
     "core.gateway.dcc_submit_s"),
    ("repro.core.scheduling.base", "BaseScheduler", "submit_edge",
     "core.scheduling.submit_edge_s"),
    ("repro.core.scheduling.base", "BaseScheduler", "submit_cloud",
     "core.scheduling.submit_cloud_s"),
    ("repro.network.lowpower", "LowPowerLink", "send",
     "network.lowpower.send_s"),
    ("repro.hardware.server", "ComputeServer", "submit_batch",
     "hardware.server.submit_batch_s"),
    ("repro.core.regulation", "FleetRegulatorBank", "update_all",
     "core.regulation.bank_update_s"),
    ("repro.core.regulation", "FleetRegulatorBank", "update_subset",
     "core.regulation.bank_update_s"),
    ("repro.core.smartgrid", "SmartGridManager", "tick",
     "core.smartgrid.tick_s"),
    ("repro.thermal.fused", "FusedCityThermal", "step",
     "thermal.fused.step_s"),
    ("repro.thermal.comfort", "ComfortTracker", "add", "thermal.comfort.add_s"),
    ("repro.thermal.comfort", "ComfortTracker", "add_rows",
     "thermal.comfort.add_s"),
    ("repro.thermal.surrogate", "SurrogateController", "tick_regulation",
     "thermal.surrogate.tick_s"),
    ("repro.thermal.surrogate", "SurrogateController", "tick_thermal",
     "thermal.surrogate.tick_s"),
    ("repro.core.resilience.recovery", "RecoveryRuntime", "maybe_clone",
     "core.resilience.maybe_clone_s"),
    ("repro.runner.backend", "ProcessBackend", "execute", "runner.execute_s"),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache.put_s"),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache.get_s"),
    ("repro.service.events", "EventBus", "publish",
     "service.events.publish_s"),
    ("repro.obs.slo", "SLOEngine", "evaluate", "obs.slo.evaluate_s"),
    ("repro.obs.registry", "MetricsRegistry", "snapshot",
     "obs.registry.snapshot_s"),
)


#: (module, class, method, counter, amount-from-result or None for +1);
#: counted without a span, so hot calls cost one increment
COUNT_HOOKS: Tuple[Tuple[str, str, str, str,
                         Optional[Callable[[Any], float]]], ...] = (
    ("repro.core.gateway", "EdgeGateway", "submit",
     "core.gateway.edge_submits", None),
    ("repro.hardware.server", "ComputeServer", "submit_batch",
     "hardware.server.filler_tasks", float),
    ("repro.hardware.server", "ComputeServer", "sync",
     "hardware.server.sync_calls", None),
)


class Ledger:
    """Collects spans from wrapped methods and reduces them to self times."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: per thread: summed duration of spans with no wrapped parent
        self.top_s: Dict[int, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[type, str, Any]] = []
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, module: str, cls: str, attr: str, name: str) -> None:
        """Charge every call of ``cls.attr`` to layer ``name``."""
        ledger = self

        def make(original):
            def span(*args, **kwargs):
                stack = ledger._stack()
                frame = [0.0, next(ledger._ids)]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    dur = end - start
                    ledger.self_s[name] += dur - frame[0]
                    ledger.total_s[name] += dur
                    if stack:
                        stack[-1][0] += dur
                        parent = stack[-1][1]
                    else:
                        ledger.top_s[threading.get_ident()] += dur
                        parent = 0
                    if len(ledger.spans) < MAX_SPANS:
                        ledger.spans.append((name, start, end, frame[1],
                                             parent, threading.get_ident()))
            return span

        self._patch(module, cls, attr, make)

    def count(self, module: str, cls: str, attr: str, name: str,
              amount: Optional[Callable[[Any], float]] = None) -> None:
        """Count calls of ``cls.attr`` (or sum ``amount(result)``)."""
        counts = self.counts

        def make(original):
            if amount is None:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return original(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    result = original(*args, **kwargs)
                    counts[name] += amount(result)
                    return result
            return counted

        self._patch(module, cls, attr, make)

    def install(self) -> "Ledger":
        """Wrap every hook in :data:`LAYER_HOOKS` and :data:`COUNT_HOOKS`.

        Count hooks go on first so a method that is both counted and timed
        (``EdgeGateway.submit``) is counted inside its span.
        """
        for module, cls, attr, name, amount in COUNT_HOOKS:
            self.count(module, cls, attr, name, amount)
        for module, cls, attr, name in LAYER_HOOKS:
            self.wrap(module, cls, attr, name)
        self.t0 = time.perf_counter()
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method (newest patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. in a forked worker)."""
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.top_s.clear()
        self.spans.clear()
        self._local = threading.local()
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    def layer_times(self, wall_s: float,
                    threads: Optional[List[int]] = None) -> Dict[str, float]:
        """Per-layer self seconds plus ``ledger.unattributed_s``.

        ``wall_s`` is the traced wall of ``threads`` (default: the calling
        thread) added up; the remainder is that wall minus the time their
        top-level spans cover, so the returned layer times and the
        remainder sum to ``wall_s`` whenever every span ran on one of them.
        """
        tids = [threading.get_ident()] if threads is None else threads
        out = {name: self.self_s.get(name, 0.0)
               for name in sorted({h[3] for h in LAYER_HOOKS})}
        out["ledger.unattributed_s"] = wall_s - sum(
            self.top_s.get(t, 0.0) for t in tids)
        out["ledger.wall_s"] = wall_s
        return out

    def records(self) -> list:
        """The kept spans as ``repro.obs.TraceRecord`` objects."""
        from repro.obs.trace import TraceRecord

        return [
            TraceRecord(ts=start - self.t0, kind="bench", name=name,
                        args={"clock": "host", "thread": tid},
                        dur=end - start, trace_id=f"thread-{tid}",
                        span_id=f"b{sid}",
                        parent_id=f"b{parent}" if parent else None)
            for name, start, end, sid, parent, tid in self.spans
        ]

    def write(self, stem: Path, extra: Optional[list] = None) -> List[Path]:
        """Write ``<stem>.trace.jsonl`` and ``<stem>.chrome.json``."""
        from repro.obs.trace import write_chrome_trace, write_jsonl

        records = self.records() + list(extra or [])
        records.sort(key=lambda r: r.ts)
        stem.parent.mkdir(parents=True, exist_ok=True)
        return [write_jsonl(records, Path(f"{stem}.trace.jsonl")),
                write_chrome_trace(records, Path(f"{stem}.chrome.json"))]
