"""Tests for the DVFS compute server: execution, energy, preemption."""

import itertools
import random

import pytest

from repro.hardware.boiler import STIMERGY_SMALL
from repro.hardware.cpu import DVFSLadder, PState
from repro.hardware.datacenter import DC_NODE_SPEC, DatacenterNode
from repro.hardware.qrad import CRYPTO_SPEC, ERADIATOR_SPEC, QRAD_SPEC
from repro.hardware.server import ComputeServer, ServerSpec, Task, TaskState
from repro.sim.engine import Engine

GHZ = 1e9


def simple_spec(n_cores=4, f=1.0):
    """One P-state at f GHz so completion times are trivial to predict."""
    return ServerSpec(
        model="test",
        n_cores=n_cores,
        ladder=DVFSLadder([PState(f, 1.0)]),
        p_idle_w=50.0,
        p_max_w=250.0,
    )


def two_state_spec(n_cores=4):
    return ServerSpec(
        model="test2",
        n_cores=n_cores,
        ladder=DVFSLadder([PState(1.0, 0.8), PState(2.0, 1.0)]),
        p_idle_w=50.0,
        p_max_w=250.0,
    )


@pytest.fixture()
def engine():
    return Engine()


def test_task_validation():
    with pytest.raises(ValueError):
        Task("t", work_cycles=0.0)
    with pytest.raises(ValueError):
        Task("t", work_cycles=10.0, cores=0)
    with pytest.raises(ValueError):
        Task("t", work_cycles=10.0, chunks=0)


def test_spec_validation():
    lad = DVFSLadder([PState(1.0, 1.0)])
    with pytest.raises(ValueError):
        ServerSpec("m", 0, lad, 10.0, 100.0)
    with pytest.raises(ValueError):
        ServerSpec("m", 1, lad, 200.0, 100.0)
    with pytest.raises(ValueError):
        ServerSpec("m", 1, lad, 10.0, 100.0, heat_fraction=2.0)


def test_completion_at_exact_time(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    done = []
    t = Task("j1", work_cycles=10 * GHZ, cores=1, on_complete=lambda t, now: done.append(now))
    assert srv.submit(t)
    engine.run_until(100.0)
    assert done == [10.0]  # 10 Gcycles at 1 GHz on 1 core
    assert t.state is TaskState.COMPLETED
    assert t.remaining_cycles == 0.0


def test_multicore_task_speedup(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    done = []
    t = Task("j1", work_cycles=10 * GHZ, cores=2, on_complete=lambda t, now: done.append(now))
    srv.submit(t)
    engine.run_until(100.0)
    assert done == [5.0]


def test_rejects_when_full(engine):
    srv = ComputeServer("s", simple_spec(n_cores=2), engine)
    assert srv.submit(Task("a", GHZ, cores=2))
    assert not srv.submit(Task("b", GHZ, cores=1))


def test_oversized_task_raises(engine):
    srv = ComputeServer("s", simple_spec(n_cores=2), engine)
    with pytest.raises(ValueError):
        srv.submit(Task("big", GHZ, cores=3))


def test_duplicate_task_id_raises(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.submit(Task("a", 100 * GHZ))
    with pytest.raises(ValueError):
        srv.submit(Task("a", GHZ))


def test_parallel_tasks_complete_independently(engine):
    srv = ComputeServer("s", simple_spec(n_cores=4), engine)
    done = {}
    for i, cycles in enumerate([2 * GHZ, 6 * GHZ]):
        srv.submit(Task(f"j{i}", cycles, on_complete=lambda t, now: done.setdefault(t.task_id, now)))
    engine.run_until(100.0)
    assert done == {"j0": 2.0, "j1": 6.0}


def test_freq_cap_slows_execution(engine):
    srv = ComputeServer("s", two_state_spec(), engine)
    done = []
    srv.set_freq_cap(0)  # 1 GHz instead of 2
    srv.submit(Task("j", 10 * GHZ, on_complete=lambda t, now: done.append(now)))
    engine.run_until(100.0)
    assert done == [10.0]


def test_freq_change_mid_flight_reschedules(engine):
    srv = ComputeServer("s", two_state_spec(), engine)
    done = []
    srv.submit(Task("j", 10 * GHZ, on_complete=lambda t, now: done.append(now)))
    # at 2 GHz it would finish at t=5; slow to 1 GHz at t=2.5 → 5 G left → +5 s
    engine.run_until(2.5)
    srv.set_freq_cap(0)
    engine.run_until(100.0)
    assert done == [pytest.approx(7.5)]


def test_preempt_preserves_remaining_work(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.submit(Task("j", 10 * GHZ))
    engine.run_until(4.0)
    task = srv.preempt("j")
    assert task.state is TaskState.PREEMPTED
    assert task.remaining_cycles == pytest.approx(6 * GHZ)
    assert srv.busy_cores == 0
    # resubmit elsewhere
    done = []
    task.on_complete = lambda t, now: done.append(now)
    srv2 = ComputeServer("s2", simple_spec(), engine)
    srv2.submit(task)
    engine.run_until(100.0)
    assert done == [pytest.approx(10.0)]


def test_block_starts_whole_and_preempts_chunk_by_count(engine):
    srv = ComputeServer("s", simple_spec(n_cores=4), engine)
    assert srv.submit_batch([Task("big", GHZ, chunks=5)]) == 0   # all or nothing
    assert srv.submit_batch([Task("f", 10 * GHZ, chunks=3)]) == 3
    assert srv.busy_cores == 3
    block = srv.preempt("f", chunks=2)
    assert block.state is TaskState.RUNNING and block.chunks == 1
    assert srv.busy_cores == 1 and srv.running_tasks == [block]
    for bad in (0, 2):
        with pytest.raises(ValueError):
            srv.preempt("f", chunks=bad)
    assert srv.preempt("f").state is TaskState.PREEMPTED
    assert srv.idle and srv.busy_cores == 0


def test_preempt_unknown_raises(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    with pytest.raises(KeyError):
        srv.preempt("ghost")


def test_kill_all(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.submit(Task("a", GHZ))
    srv.submit(Task("b", GHZ))
    killed = srv.kill_all()
    assert {t.task_id for t in killed} == {"a", "b"}
    assert all(t.state is TaskState.KILLED for t in killed)
    assert srv.busy_cores == 0


def test_power_model_idle_vs_busy(engine):
    srv = ComputeServer("s", simple_spec(n_cores=4), engine)
    assert srv.power_w() == 50.0
    srv.submit(Task("a", 1000 * GHZ, cores=4))
    assert srv.power_w() == pytest.approx(250.0)
    assert srv.heat_output_w() == pytest.approx(250.0)


def test_power_scales_with_utilization(engine):
    srv = ComputeServer("s", simple_spec(n_cores=4), engine)
    srv.submit(Task("a", 1000 * GHZ, cores=2))
    assert srv.power_w() == pytest.approx(50.0 + 200.0 * 0.5)


def test_dvfs_reduces_power(engine):
    srv = ComputeServer("s", two_state_spec(), engine)
    srv.submit(Task("a", 1000 * GHZ, cores=4))
    p_full = srv.power_w()
    srv.set_freq_cap(0)
    assert srv.power_w() < p_full


def test_energy_integration(engine):
    srv = ComputeServer("s", simple_spec(n_cores=1), engine)
    srv.submit(Task("a", 10 * GHZ, cores=1))  # busy for 10 s at 250 W
    engine.run_until(20.0)
    srv.sync()
    expected = 250.0 * 10.0 + 50.0 * 10.0
    assert srv.energy_j == pytest.approx(expected)
    assert srv.busy_core_seconds == pytest.approx(10.0)
    assert srv.cycles_executed == pytest.approx(10 * GHZ)


def test_power_off_refuses_work_and_draws_nothing(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.power_off()
    assert srv.power_w() == 0.0
    assert not srv.submit(Task("a", GHZ))
    srv.power_on()
    assert srv.submit(Task("a", GHZ))


def test_power_off_with_running_tasks_raises(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.submit(Task("a", 100 * GHZ))
    with pytest.raises(RuntimeError):
        srv.power_off()


def test_off_server_accumulates_no_energy(engine):
    srv = ComputeServer("s", simple_spec(), engine)
    srv.power_off()
    engine.run_until(100.0)
    srv.sync()
    assert srv.energy_j == 0.0


def test_completion_callback_can_submit_next(engine):
    """Chained submissions from callbacks must work (schedulers rely on it)."""
    srv = ComputeServer("s", simple_spec(n_cores=1), engine)
    finished = []

    def chain(task, now):
        finished.append((task.task_id, now))
        if len(finished) < 3:
            srv.submit(Task(f"j{len(finished)}", 2 * GHZ, on_complete=chain))

    srv.submit(Task("j0", 2 * GHZ, on_complete=chain))
    engine.run_until(100.0)
    assert finished == [("j0", 2.0), ("j1", 4.0), ("j2", 6.0)]
    assert srv.completed_count == 3


# --------------------------------------------------------------------------- #
# counters and caches against closed forms, at every site that changes them
# --------------------------------------------------------------------------- #
def fuzz_spec():
    """16 cores on three P-states, so a cap can move to a different index."""
    return ServerSpec(
        model="fuzz",
        n_cores=16,
        ladder=DVFSLadder([PState(1.0, 0.8), PState(1.5, 0.9), PState(2.0, 1.0)]),
        p_idle_w=50.0,
        p_max_w=250.0,
    )


def _it_draw_w(spec, busy, index, enabled):
    """The spec's power expression, in the server's association."""
    if not enabled:
        return 0.0
    return (spec.p_idle_w + (spec.p_max_w - spec.p_idle_w) * (busy / spec.n_cores)
            * spec.ladder.power_scale(index))


def _dc_draw_w(node, busy, index, enabled):
    """A datacenter node's total draw: IT plus cooling and fixed overheads."""
    it = _it_draw_w(node.spec, busy, index, enabled)
    if it == 0.0:
        return 0.0
    return it * (1.0 + node.cooling_overhead) + node.fixed_overhead_w


def _give(srv, kernel, batch):
    """Start ``batch`` as ``kernel``'s middleware starts filler.

    The vector kernel hands a server the batch in one ``submit_batch``, each
    block whole; the scalar kernel submits every chunk as a task of its own,
    one by one, until one is refused.
    """
    if kernel == "vector":
        srv.submit_batch(batch)
        return
    for task in batch:
        for i in range(task.chunks):
            if not srv.submit(Task.prevalidated(f"{task.task_id}.{i}", task.work_cycles,
                                                task.cores, None, task.metadata)):
                return


def _fuzz_step(rng, eng, srv, ids, kernel):
    """One random server operation; returns its kind, or None if it was a no-op."""
    op = rng.choice(["submit", "submit", "batch", "batch", "preempt", "preempt",
                     "filler", "advance", "advance", "cap", "cap", "power",
                     "power", "kill", "fail", "repair"])
    running = srv.running_tasks
    if op == "submit":
        srv.submit(Task(f"t{next(ids)}", work_cycles=rng.uniform(0.2, 4.0) * GHZ,
                        cores=rng.randint(1, 3),
                        metadata={"kind": rng.choice(["edge", "cloud", "filler"])}))
    elif op == "batch":
        # filler blocks behind an optional plain paying task, as a batch
        batch = [Task.prevalidated(f"f{next(ids)}", rng.uniform(0.2, 4.0) * GHZ,
                                   1, None, {"kind": "filler"},
                                   chunks=rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            batch.insert(0, Task(f"t{next(ids)}", work_cycles=GHZ,
                                 metadata={"kind": "edge"}))
        _give(srv, kernel, batch)
    elif op == "preempt" and running:
        t = rng.choice(running)
        if t.chunks > 1 and rng.random() < 0.7:
            srv.preempt(t.task_id, chunks=rng.randint(1, t.chunks - 1))
        else:
            srv.preempt(t.task_id)
    elif op == "filler":
        srv.preempt_kind("filler")
    elif op == "advance":
        eng.run_until(eng.now + rng.uniform(0.0, 3.0))   # completions
    elif op == "cap":
        n = len(srv.spec.ladder)
        if rng.random() < 0.5:
            srv.set_freq_cap(srv.freq_index)
            return "cap-same"
        srv.set_freq_cap((srv.freq_index + rng.randint(1, n - 1)) % n)
        return "cap-other"
    elif op == "power" and not srv.enabled:
        srv.power_on()                                   # refused while failed
        return "power-on"
    elif op == "power" and srv.idle:
        srv.power_off()
        return "power-off"
    elif op == "kill" and rng.random() < 0.3:
        srv.kill_all()
    elif op == "fail" and srv.idle and not srv.failed:
        srv.fail()
    elif op == "repair" and srv.failed:
        srv.repair()
    else:
        return None
    return op


_FUZZ_OPS = {"submit", "batch", "preempt", "filler", "advance", "cap-same",
             "cap-other", "power-on", "power-off", "kill", "fail", "repair"}


def _walk_against_closed_forms(seed, kernel, eng, srv, draw_w):
    """400 random operations; after each, every counter and cache is read as
    it stands (no cache cleared) and compared with its closed form from the
    running tasks, the power state and the P-state."""
    rng = random.Random(seed)
    ids = itertools.count()
    spec = srv.spec
    ran = set()
    for _ in range(400):
        ran.add(_fuzz_step(rng, eng, srv, ids, kernel))
        running = srv.running_tasks
        busy = sum(t.cores * t.chunks for t in running)
        assert srv.busy_cores == busy
        assert srv.paying_cores == sum(
            t.cores * t.chunks for t in running if t.metadata.get("kind") != "filler")
        assert srv.free_cores == (spec.n_cores - busy if srv.enabled else 0)
        power = draw_w(busy, srv.freq_index, srv.enabled)
        rate = spec.ladder[srv.freq_index].freq_ghz * GHZ if srv.enabled else 0.0
        assert srv.power_w().hex() == power.hex()
        assert srv.core_rate_cycles_per_s().hex() == rate.hex()
    assert ran - {None} == _FUZZ_OPS


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize("seed", range(6))
def test_paying_cores_match_running_work_under_fuzz(seed, kernel):
    eng = Engine()
    srv = ComputeServer("s", fuzz_spec(), eng)
    _walk_against_closed_forms(seed, kernel, eng, srv,
                               lambda *state: _it_draw_w(srv.spec, *state))


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize("seed", range(3))
def test_dc_node_caches_its_total_draw_under_fuzz(seed, kernel):
    eng = Engine()
    node = DatacenterNode("n", eng)
    _walk_against_closed_forms(seed, kernel, eng, node,
                               lambda *state: _dc_draw_w(node, *state))


# --------------------------------------------------------------------------- #
# power and rate from per-spec constants
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize(
    "spec", [QRAD_SPEC, ERADIATOR_SPEC, CRYPTO_SPEC, STIMERGY_SMALL.server,
             DC_NODE_SPEC], ids=lambda spec: spec.model)
def test_power_and_rate_equal_the_spec_expressions_bit_for_bit(spec, kernel):
    """Every P-state x busy count x power state, compared with float.hex.

    Each busy count is reached as ``kernel``'s middleware fills a server with
    filler; power and rate are read when computed and again from the caches.
    """
    srv = ComputeServer("s", spec, Engine())
    ladder = spec.ladder

    def check(busy):
        for i in range(len(ladder)):
            srv.set_freq_cap(i)
            power = _it_draw_w(spec, busy, i, srv.enabled)
            rate = ladder[i].freq_ghz * 1e9 if srv.enabled else 0.0
            for _ in range(2):                           # computed, then cached
                assert srv.power_w().hex() == power.hex(), (i, busy)
                assert srv.core_rate_cycles_per_s().hex() == rate.hex(), (i, busy)

    srv.power_off()
    check(0)
    srv.power_on()
    for busy in range(spec.n_cores + 1):
        if busy:
            srv.preempt_kind("filler")
            _give(srv, kernel, [Task.prevalidated(
                f"f{busy}", 1e18, 1, None, {"kind": "filler"}, chunks=busy)])
        assert srv.busy_cores == busy
        check(busy)


def test_spec_constants_stay_out_of_equality_and_hashing():
    twin = ServerSpec(QRAD_SPEC.model, QRAD_SPEC.n_cores, QRAD_SPEC.ladder,
                      QRAD_SPEC.p_idle_w, QRAD_SPEC.p_max_w,
                      QRAD_SPEC.heat_fraction)
    assert twin == QRAD_SPEC and hash(twin) == hash(QRAD_SPEC)
    assert "power_scales" not in repr(QRAD_SPEC)
    a = ComputeServer("a", QRAD_SPEC, Engine())
    b = ComputeServer("b", QRAD_SPEC, Engine())
    assert a.spec.rates_hz is b.spec.rates_hz     # one copy per model


def test_power_and_rate_recompute_make_no_nested_calls(python_calls):
    srv = ComputeServer("s", two_state_spec(), Engine())
    srv.submit(Task("a", 1000 * GHZ, cores=3))
    srv._power_cache = None
    assert python_calls(srv.power_w) == 1            # power_w itself only
    srv._rate_cache = None
    assert python_calls(srv.core_rate_cycles_per_s) == 1


def test_set_freq_cap_keeps_caches_only_when_the_cap_is_unchanged():
    srv = ComputeServer("s", two_state_spec(), Engine())
    srv.submit(Task("a", 1000 * GHZ, cores=3))
    srv.power_w()
    srv.core_rate_cycles_per_s()
    armed = srv._completion_event
    srv.set_freq_cap(srv.freq_index)                 # the cap it has
    kept = (srv._power_cache, srv._rate_cache)
    assert None not in kept
    assert armed.cancelled and srv._completion_event is not armed  # re-armed
    srv._power_cache = srv._rate_cache = None
    fresh = (srv.power_w(), srv.core_rate_cycles_per_s())
    assert [x.hex() for x in kept] == [x.hex() for x in fresh]
    srv.set_freq_cap(0)                              # a new cap clears both;
    assert srv._power_cache is None                  # the re-arm then reads
    assert srv._rate_cache == 1.0 * GHZ              # the new state's rate
    with pytest.raises(ValueError):
        srv.set_freq_cap(2)
