"""Bench A6 — recovery policies under stochastic churn (§III-C).

Besides the shape assertions, this benchmark emits
``benchmarks/results/BENCH_resilience.json`` — per (MTBF, policy):
served-in-deadline rate, wasted cycles split by attribution (losing-clone
work vs crash redo) and detection-latency p50/p99, plus the per-level
waste-vs-deadline **Pareto frontier** — which CI uploads as the
``resilience-bench`` artifact.

The frontier is not just recorded, it is *asserted*: at benign churn
(mtbf=24h) the adaptive policy engine must serve at least the checkpoint
bundle's deadline rate, reach >= 99.9% served-in-deadline, and do it at
under 10% of legacy first-completion cloning's wasted gigacycles — the
acceptance bar of the policy-engine PR.
"""

import bench_schema
import pytest
from conftest import RESULTS_DIR, record, run_once

from repro.experiments.a6_churn import BUNDLES, MTBF_LEVELS_S, run

#: every BENCH_resilience.json row value is a simulated outcome of a seeded
#: run, so ``repro diff`` compares them exactly, whatever the hardware
UNITS = {
    "served_in_deadline_rate": {"unit": "share", "better": "exact"},
    **dict.fromkeys(("wasted_gcycles", "clone_waste_gcycles",
                     "failure_waste_gcycles"),
                    {"unit": "Gcycles", "better": "exact"}),
    **dict.fromkeys(("detection_latency_p50_s", "detection_latency_p99_s"),
                    {"unit": "sim-s", "better": "exact"}),
    **dict.fromkeys(("cloud_done", "server_failures", "clones", "clone_skips",
                     "policy_switches"), bench_schema.COUNT),
}


def test_a6_churn(benchmark):
    result = run_once(benchmark, run, seed=101)
    record(result)
    d = result.data

    # ---- the headline ordering at the harshest churn level -------------- #
    worst = d["mtbf=2h"]
    none_rate = worst["none"]["served_rate"]
    for single in ("retry", "clone", "checkpoint"):
        # each policy alone strictly beats doing nothing...
        assert worst[single]["served_rate"] > none_rate, single
        # ...and none of them beats the full bundle
        assert worst[single]["served_rate"] <= worst["all"]["served_rate"], single

    # checkpointing rescues the batch jobs a restart loop starves
    assert worst["checkpoint"]["cloud_done"] > worst["none"]["cloud_done"]
    # and does so with far less redo work
    assert worst["checkpoint"]["wasted_gcycles"] < 0.1 * worst["none"]["wasted_gcycles"]

    # detection is never omniscient: latency within (timeout-interval, timeout]
    for label in MTBF_LEVELS_S:  # d also carries the "pareto" frontier key
        for cell in d[label].values():
            assert 1.5 < cell["detect_p50_s"] <= cell["detect_p99_s"] <= 2.5
            # the waste split is exhaustive: clone + failure = total
            assert cell["wasted_gcycles"] == pytest.approx(
                cell["clone_waste_gcycles"] + cell["failure_waste_gcycles"],
                rel=1e-9)

    # synchronized-service cloning: zero losing-clone work at every level
    for label in MTBF_LEVELS_S:
        assert d[label]["clone-cs"]["clone_waste_gcycles"] == 0.0
        assert d[label]["adaptive"]["clone_waste_gcycles"] == 0.0
        # ...while legacy first-completion cloning burns real cycles
        assert d[label]["clone"]["clone_waste_gcycles"] > 0.0

    # gentler churn, better service for every bundle
    assert d["mtbf=24h"]["none"]["served_rate"] > d["mtbf=2h"]["none"]["served_rate"]

    # ---- Pareto dominance: the policy-engine acceptance bar ------------- #
    benign = d["mtbf=24h"]
    adaptive, clone, ckpt = (benign["adaptive"], benign["clone"],
                             benign["checkpoint"])
    assert adaptive["served_rate"] >= 0.999
    assert adaptive["served_rate"] >= ckpt["served_rate"]
    assert adaptive["wasted_gcycles"] <= 0.10 * clone["wasted_gcycles"]
    front = d["pareto"]["mtbf=24h"]
    assert front, "empty Pareto frontier"
    assert "adaptive" in front
    assert "clone" not in front  # dominated: same cover, far more waste
    for label in MTBF_LEVELS_S:  # frontier members are genuinely undominated
        for p in d["pareto"][label]:
            assert p in BUNDLES

    # ---- machine-readable artifact for CI ------------------------------- #
    rows = [
        {
            "mtbf": label,
            "policy": policy,
            "served_in_deadline_rate": cell["served_rate"],
            "wasted_gcycles": cell["wasted_gcycles"],
            "clone_waste_gcycles": cell["clone_waste_gcycles"],
            "failure_waste_gcycles": cell["failure_waste_gcycles"],
            "detection_latency_p50_s": cell["detect_p50_s"],
            "detection_latency_p99_s": cell["detect_p99_s"],
            "cloud_done": cell["cloud_done"],
            "server_failures": cell["server_failures"],
            "clones": cell["clones"],
            "clone_skips": cell["clone_skips"],
            "policy_switches": cell["policy_switches"],
        }
        for label in MTBF_LEVELS_S
        for policy, cell in d[label].items()
    ]
    bench_schema.write_bench(
        RESULTS_DIR / "BENCH_resilience.json",
        bench_schema.envelope(
            "resilience", rows,
            context={"experiment": "A6", "seed": 101,
                     "policies": list(BUNDLES),
                     "pareto_frontier": d["pareto"]},
            units=UNITS))
