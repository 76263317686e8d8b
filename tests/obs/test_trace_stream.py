"""Bounded trace collection: streaming spill, flight recorder, kind filters,
numpy sanitisation, dur coercion (round-trip property)."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    JsonlTracer,
    Observability,
    RingTracer,
    TraceRecord,
    Tracer,
    obs_session,
    read_jsonl,
)


# --------------------------------------------------------------------------- #
# satellite (a): dur coercion round-trip
# --------------------------------------------------------------------------- #
def test_from_dict_coerces_dur_to_float():
    rec = TraceRecord.from_dict(
        {"ts": 1, "kind": "request", "name": "x", "dur": 2})
    assert isinstance(rec.dur, float) and rec.dur == 2.0
    assert isinstance(rec.ts, float)
    assert TraceRecord.from_dict({"ts": 1.0, "kind": "k", "name": "n"}).dur is None


@given(st.one_of(st.none(),
                 st.integers(min_value=0, max_value=10**9),
                 st.floats(min_value=0.0, allow_nan=False,
                           allow_infinity=False)),
       st.floats(allow_nan=False, allow_infinity=False))
def test_record_json_roundtrip_property(dur, ts):
    rec = TraceRecord(ts, "request", "edge.completed", {"id": "r"},
                      dur=None if dur is None else float(dur),
                      trace_id="t", span_id="t/0", parent_id=None)
    back = TraceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back == rec
    assert back.dur is None or isinstance(back.dur, float)


# --------------------------------------------------------------------------- #
# satellite (b): numpy scalars sanitised at emit time, strict export
# --------------------------------------------------------------------------- #
def test_numpy_args_sanitised_at_emit(tmp_path):
    tr = Tracer()
    tr.emit("sample", "fleet.sample", np.float64(1.5),
            up=np.float64(0.93), n=np.int64(16),
            arr=np.array([1.0, 2.0]), nested={"f": np.float32(0.5)},
            dur=np.float64(0.25))
    r = tr.records[0]
    assert type(r.ts) is float and type(r.dur) is float
    assert type(r.args["up"]) is float and type(r.args["n"]) is int
    assert r.args["arr"] == [1.0, 2.0]
    assert type(r.args["nested"]["f"]) is float
    # strict json (no default=str): would raise if anything survived
    path = tr.write_jsonl(tmp_path / "t.jsonl")
    assert read_jsonl(path)[0].args["up"] == pytest.approx(0.93)


def test_unserialisable_arg_raises_not_stringifies(tmp_path):
    tr = Tracer()
    tr.emit("x", "y", 0.0, obj=object())
    with pytest.raises(TypeError):
        tr.write_jsonl(tmp_path / "t.jsonl")


# --------------------------------------------------------------------------- #
# kind filter
# --------------------------------------------------------------------------- #
def test_kind_filter_drops_at_emit():
    tr = Tracer(kinds={"request", "slo"})
    tr.emit("request", "edge.received", 0.0)
    tr.emit("engine", "engine.dispatch", 0.0)
    tr.emit("sample", "fleet.sample", 0.0)
    assert [r.kind for r in tr.records] == ["request"]
    assert tr.wants("slo") and not tr.wants("engine")


def test_absorb_refilters_and_counts():
    src = Tracer()
    src.emit("request", "edge.received", 0.0)
    src.emit("engine", "engine.dispatch", 0.0)
    dst = Tracer(kinds={"request"})
    assert dst.absorb(src.records) == 1
    assert [r.kind for r in dst.records] == ["request"]


# --------------------------------------------------------------------------- #
# streaming spill
# --------------------------------------------------------------------------- #
def test_jsonl_tracer_spills_and_replays(tmp_path):
    path = tmp_path / "s.jsonl"
    tr = JsonlTracer(path, buffer_records=8)
    for i in range(50):
        tr.emit("request", "edge.received", float(i), id=f"edge-{i}")
    assert tr.spilled >= 48                 # several spills happened
    assert len(tr.records) < 8              # buffer never exceeds the cap
    assert len(tr) == 50
    assert tr.peak_buffered <= 8
    back = list(tr.iter_records())
    assert len(back) == 50
    assert back[0].args["id"] == "edge-0" and back[-1].args["id"] == "edge-49"
    assert tr.counts_by_kind() == {"request": 50}


def test_jsonl_tracer_write_to_same_path_is_flush(tmp_path):
    path = tmp_path / "s.jsonl"
    tr = JsonlTracer(path, buffer_records=4)
    for i in range(6):
        tr.emit("request", "x", float(i))
    out = tr.write_jsonl(path)
    assert out == path and len(read_jsonl(path)) == 6
    other = tr.write_jsonl(tmp_path / "copy.jsonl")
    assert read_jsonl(other) == read_jsonl(path)


def test_jsonl_tracer_truncates_stale_file(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"ts": 0, "kind": "stale", "name": "old"}\n')
    tr = JsonlTracer(path)
    tr.flush()
    assert path.read_text() == ""


def test_streaming_peak_memory_is_bounded_on_instrumented_city():
    """The acceptance property at unit scale: a full instrumented city run
    holds at most ``buffer_records`` records in memory (the 16x-fleet
    version is the slow-marked test below)."""
    from repro.experiments.common import small_city
    from repro.core.requests import EdgeRequest
    from repro.sim.calendar import DAY

    tr = JsonlTracer("/dev/null", buffer_records=256)
    tr.path = None  # spill into the void: count, don't write

    def flush():
        tr.spilled += len(tr.records)
        tr.records.clear()

    tr.flush = flush
    with obs_session(Observability(tracer=tr)):
        mw = small_city(seed=5)
        mw.inject([EdgeRequest(cycles=2e9, time=30.0 * i,
                               source="district-0/building-0")
                   for i in range(300)])
        mw.run_until(0.25 * DAY)
    assert len(tr) > 1000                  # the run actually traced
    assert tr.peak_buffered <= 256         # O(buffer), not O(run)


@pytest.mark.slow
def test_streaming_peak_memory_bounded_at_16x_fleet(tmp_path):
    """E14-scale acceptance: a 16x fleet day streams with O(buffer) memory."""
    from repro.experiments.common import small_city
    from repro.core.requests import EdgeRequest
    from repro.sim.calendar import DAY
    from repro.sim.rng import RngRegistry
    from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

    tr = JsonlTracer(tmp_path / "big.jsonl", buffer_records=4096)
    with obs_session(Observability(tracer=tr)):
        mw = small_city(seed=7, n_districts=16)   # 16x the 1x bench fleet
        rngs = RngRegistry(7)
        edge = []
        for bname in mw.buildings:
            gen = EdgeWorkloadGenerator(
                rngs.stream(f"edge-{bname}"), source=bname,
                config=EdgeWorkloadConfig(rate_per_hour=60.0))
            edge.extend(gen.generate(0.0, DAY))
        mw.inject(edge)
        mw.run_until(DAY)
    assert len(tr) > 100_000
    assert tr.peak_buffered <= 4096


# --------------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------------- #
def test_ring_tracer_keeps_last_n():
    tr = RingTracer(capacity=10)
    for i in range(100):
        tr.emit("request", "x", float(i))
    assert len(tr) == 10
    assert tr.total_emitted == 100
    assert [r.ts for r in tr.iter_records()] == [float(i) for i in range(90, 100)]


def test_ring_tracer_with_kind_filter():
    tr = RingTracer(capacity=4, kinds={"keep"})
    for i in range(10):
        tr.emit("keep", "x", float(i))
        tr.emit("drop", "y", float(i))
    assert tr.total_emitted == 10           # only the kept kind counted
    assert all(r.kind == "keep" for r in tr.iter_records())
