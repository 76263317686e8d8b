"""Tests for the three request flows."""

import pytest

from repro.core.requests import (
    CloudRequest,
    EdgeMode,
    EdgeRequest,
    Flow,
    HeatingRequest,
    RequestStatus,
)


def test_heating_request_validation():
    HeatingRequest(target_temp_c=20.0, time=0.0, rooms=("a",))
    with pytest.raises(ValueError):
        HeatingRequest(target_temp_c=50.0, time=0.0)
    with pytest.raises(ValueError):
        HeatingRequest(target_temp_c=20.0, time=0.0, rooms=("a",), collective=True)


def test_collective_heating_request():
    r = HeatingRequest(target_temp_c=21.0, time=0.0, rooms=("a", "b"), collective=True)
    assert r.collective
    assert len(r.rooms) == 2


def test_cloud_request_lifecycle():
    r = CloudRequest(cycles=1e9, time=10.0)
    assert r.status is RequestStatus.CREATED
    assert not r.finished
    r.mark_completed(15.0)
    assert r.finished
    assert r.response_time() == pytest.approx(5.0)
    assert r.flow is Flow.CLOUD


def test_response_time_before_completion_raises():
    r = CloudRequest(cycles=1e9, time=0.0)
    with pytest.raises(ValueError):
        r.response_time()


def test_rejected_is_terminal():
    r = CloudRequest(cycles=1e9, time=0.0)
    r.mark_rejected()
    assert r.finished
    assert r.status is RequestStatus.REJECTED


def test_compute_request_validation():
    bad = [
        dict(cycles=0.0),
        dict(cores=0),
        dict(input_bytes=-1.0),
        # non-finite inputs: NaN cycles would fold NaN into server
        # accounting, infinite cycles hold a core forever
        dict(cycles=float("nan")),
        dict(cycles=float("inf")),
        dict(input_bytes=float("nan")),
        dict(output_bytes=float("inf")),
    ]
    for cls in (CloudRequest, EdgeRequest):
        for kwargs in bad:
            with pytest.raises(ValueError):
                cls(**{"cycles": 1e9, "time": 0.0, **kwargs})


def test_edge_request_deadline():
    r = EdgeRequest(cycles=1e8, time=100.0, deadline_s=1.0)
    assert r.flow is Flow.EDGE
    assert not r.deadline_met()  # not completed yet
    r.mark_completed(100.8)
    assert r.deadline_met()


def test_edge_request_deadline_miss():
    r = EdgeRequest(cycles=1e8, time=100.0, deadline_s=1.0)
    r.mark_completed(102.0)
    assert not r.deadline_met()


def test_edge_request_validation():
    # a NaN deadline would break the EDF queue's ordering
    for deadline_s in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            EdgeRequest(cycles=1e8, time=0.0, deadline_s=deadline_s)


def test_edge_modes():
    d = EdgeRequest(cycles=1e8, time=0.0, mode=EdgeMode.DIRECT)
    i = EdgeRequest(cycles=1e8, time=0.0, mode=EdgeMode.INDIRECT)
    assert d.mode is not i.mode


def test_request_ids_unique():
    ids = {CloudRequest(cycles=1e9, time=0.0).request_id for _ in range(100)}
    assert len(ids) == 100
