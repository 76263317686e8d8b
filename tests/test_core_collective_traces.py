"""Tests for collective-mean heating control and request trace replay."""

import numpy as np
import pytest

from repro.core.collective import CollectiveConfig, CollectiveController
from repro.core.regulation import HeatRegulator
from repro.core.requests import CloudRequest, EdgeMode, EdgeRequest, HeatingRequest
from repro.sim.calendar import HOUR
from repro.thermal.rc_model import RCNetwork, RoomThermalParams
from repro.workloads.traces import Trace, requests_from_trace, requests_to_trace


# --------------------------------------------------------------------------- #
# collective control
# --------------------------------------------------------------------------- #
def make_controller(n=3, **cfg):
    regs = [HeatRegulator() for _ in range(n)]
    return CollectiveController(regs, CollectiveConfig(**cfg)), regs


def test_config_validation():
    with pytest.raises(ValueError):
        CollectiveConfig(gain=0.0)
    with pytest.raises(ValueError):
        CollectiveConfig(floor_c=25.0, ceiling_c=20.0)
    with pytest.raises(ValueError):
        CollectiveController([])


def test_set_mean_target_initialises_all_rooms():
    ctrl, regs = make_controller()
    ctrl.set_mean_target(21.0)
    assert ctrl.active
    assert all(r.setpoint_c == 21.0 for r in regs)
    with pytest.raises(ValueError):
        ctrl.set_mean_target(40.0)


def test_cold_room_gets_higher_target():
    ctrl, regs = make_controller(n=2)
    ctrl.set_mean_target(20.0)
    targets = ctrl.update(np.array([18.0, 22.0]))  # mean already 20
    assert targets[0] > targets[1]  # the cold room is pushed harder


def test_targets_respect_bounds():
    ctrl, regs = make_controller(n=2, floor_c=17.0, ceiling_c=23.0, max_spread_c=2.0)
    ctrl.set_mean_target(20.0)
    targets = ctrl.update(np.array([5.0, 35.0]))  # absurd measurements
    assert all(18.0 <= t <= 22.0 for t in targets)  # target ± spread, clamped


def test_inactive_controller_is_a_noop():
    ctrl, regs = make_controller()
    for r in regs:
        r.set_target(19.0)
    assert ctrl.update(np.array([20.0, 20.0, 20.0])) == [19.0, 19.0, 19.0]
    assert ctrl.mean_error_c([20.0, 20.0, 20.0]) == 0.0


def test_shape_mismatch_rejected():
    ctrl, _ = make_controller(n=3)
    ctrl.set_mean_target(20.0)
    with pytest.raises(ValueError):
        ctrl.update(np.array([20.0, 20.0]))


class _Setpoint:
    """Regulator stand-in that records targets without range checks."""

    setpoint_c = 20.0

    def set_target(self, setpoint_c):
        self.setpoint_c = setpoint_c


def _array_update(temps, target, cfg):
    """The per-room targets in their numpy array form (np.full + np.clip)."""
    temps = np.asarray(temps, dtype=float)
    mean_err = target - float(temps.mean())
    relative = temps - temps.mean()
    raw = np.full(temps.shape, target) + cfg.gain * mean_err - 0.5 * relative
    lo = max(cfg.floor_c, target - cfg.max_spread_c)
    hi = min(cfg.ceiling_c, target + cfg.max_spread_c)
    return [float(t) for t in np.clip(raw, lo, hi)]


def test_update_equals_the_array_form_bit_for_bit():
    """100,000 seeded households of 2-6 rooms, compared with float.hex.

    Targets span the whole accepted 5-30 °C range, so the bounds cross
    (floor above target + spread) as well as clip at each end; rooms range
    far enough from the target to hit both bounds.
    """
    rng = np.random.default_rng(19)
    configs = [CollectiveConfig(), CollectiveConfig(gain=0.35, floor_c=17.5),
               CollectiveConfig(gain=2.5, ceiling_c=22.0, max_spread_c=1.25)]
    n = 100_000
    sizes = rng.integers(2, 7, size=n).tolist()
    targets = rng.uniform(5.0, 30.0, size=n).tolist()
    picks = rng.integers(0, len(configs), size=n).tolist()
    temps = rng.normal(0.0, 4.0, size=(n, 6))
    ctrls = {(k, m): CollectiveController([_Setpoint() for _ in range(m)], cfg)
             for k, cfg in enumerate(configs) for m in range(2, 7)}
    at_lo = at_hi = crossed = 0
    for size, target, k, offsets in zip(sizes, targets, picks, temps):
        ctrl = ctrls[k, size]
        ctrl.mean_target_c = target
        room_temps = target + offsets[:size]
        got = ctrl.update(room_temps)
        want = _array_update(room_temps, target, configs[k])
        assert [t.hex() for t in got] == [t.hex() for t in want]
        assert [r.setpoint_c for r in ctrl.regulators] == got
        cfg = configs[k]
        lo = max(cfg.floor_c, target - cfg.max_spread_c)
        hi = min(cfg.ceiling_c, target + cfg.max_spread_c)
        crossed += lo > hi
        at_lo += lo < hi and min(got) == lo
        at_hi += lo < hi and max(got) == hi
    assert min(at_lo, at_hi, crossed) > 1000
    # NaN passes through both bounds, as np.clip lets it
    ctrl = ctrls[0, 2]
    got = ctrl.update([float("nan"), 20.0])
    assert all(np.isnan(got)) and all(np.isnan(_array_update(
        [float("nan"), 20.0], ctrl.mean_target_c, configs[0])))


def test_collective_beats_uniform_on_heterogeneous_rooms():
    """Closed loop: a lossy room drags the uniform mean down; the collective

    controller recovers the requested mean by redistributing targets."""
    leaky = RoomThermalParams(r_ea=0.02, r_inf=0.06)  # badly insulated room
    tight = RoomThermalParams()

    def run(collective: bool) -> float:
        net = RCNetwork([leaky, tight], t_init_c=17.0)
        regs = [HeatRegulator(), HeatRegulator()]
        ctrl = CollectiveController(regs)
        if collective:
            ctrl.set_mean_target(20.0)
        else:
            for r in regs:
                r.set_target(20.0)
        p_max = 500.0
        means = []
        for k in range(24 * 12):  # one day, 5-min ticks
            temps = net.t_air.copy()
            if collective:
                ctrl.update(temps)
            powers = []
            for reg, temp in zip(regs, temps):
                u = reg.update(300.0, float(temp))
                powers.append(u * p_max)
            net.step(300.0, t_out=0.0, p_heat=np.array(powers))
            if k > 18 * 12:  # settled tail
                means.append(float(net.t_air.mean()))
        return float(np.mean(means))

    uniform_mean = run(collective=False)
    collective_mean = run(collective=True)
    assert abs(collective_mean - 20.0) < abs(uniform_mean - 20.0)


# --------------------------------------------------------------------------- #
# request trace replay
# --------------------------------------------------------------------------- #
def sample_requests():
    return [
        HeatingRequest(target_temp_c=21.0, time=10.0, rooms=("a", "b"), collective=True),
        EdgeRequest(cycles=2e8, time=20.0, cores=1, input_bytes=2e3, output_bytes=500.0,
                    deadline_s=1.5, mode=EdgeMode.DIRECT, source="district-0/b",
                    privacy_sensitive=True),
        CloudRequest(cycles=5e9, time=30.0, cores=4, input_bytes=1e6,
                     output_bytes=2e6, user="studio-7", preemptible=False),
    ]


def test_roundtrip_preserves_all_input_fields(tmp_path):
    reqs = sample_requests()
    trace = requests_to_trace(reqs)
    p = tmp_path / "workload.jsonl"
    trace.save(p)
    back = requests_from_trace(Trace.load(p))
    assert len(back) == 3
    h, e, c = back
    assert isinstance(h, HeatingRequest) and h.rooms == ("a", "b") and h.collective
    assert isinstance(e, EdgeRequest)
    assert (e.cycles, e.deadline_s, e.mode, e.source, e.privacy_sensitive) == (
        2e8, 1.5, EdgeMode.DIRECT, "district-0/b", True
    )
    assert isinstance(c, CloudRequest)
    assert (c.cores, c.user, c.preemptible) == (4, "studio-7", False)
    assert [r.time for r in back] == [10.0, 20.0, 30.0]


def test_replayed_requests_are_fresh():
    reqs = sample_requests()
    reqs[2].mark_completed(99.0)  # outcome state must not leak into the trace
    back = requests_from_trace(requests_to_trace(reqs))
    assert back[2].status.value == "created"
    assert back[2].request_id != reqs[2].request_id


def test_serialise_unknown_type_rejected():
    with pytest.raises(TypeError):
        requests_to_trace([object()])


def test_deserialise_bad_trace_rejected():
    t = Trace()
    t.append(1.0, "edge", cycles=1e8)  # missing fields
    with pytest.raises(ValueError):
        requests_from_trace(t)
    t2 = Trace()
    t2.append(1.0, "mystery")
    with pytest.raises(ValueError):
        requests_from_trace(t2)
