"""FaultInjector: every action class applied to a live system."""

import numpy as np
import pytest

from repro.clocks.base import ClockError
from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.faults import FaultError, FaultEvent, FaultInjector, FaultPlan
from repro.net.delay import DeltaBoundedDelay
from repro.obs import MetricsRegistry, Observability


def make_system(n=3, seed=0, clocks=None, physical=False):
    clocks = clocks or (
        ClockConfig(strobe_scalar=True, strobe_vector=True, physical=physical)
        if not physical else ClockConfig.everything()
    )
    sys_ = PervasiveSystem(SystemConfig(n_processes=n, seed=seed, clocks=clocks))
    sys_.world.create("obj", **{f"x{i}": 0 for i in range(n)})
    for i, p in enumerate(sys_.processes):
        p.track(f"x{i}", "obj", f"x{i}", initial=0)
    return sys_


def tick(sys_, t, values):
    """Advance to t, then change the world (sensed and broadcast at t —
    the next run() call delivers)."""
    sys_.run(until=t)
    for i, v in enumerate(values):
        sys_.world.set_attribute("obj", f"x{i}", v)


def plan_of(*events):
    return FaultPlan("t", tuple(events))


# ---------------------------------------------------------------------------
def test_crash_and_restart_round_trip():
    sys_ = make_system()
    inj = FaultInjector(sys_, plan_of(
        FaultEvent(5.0, "crash", {"pid": 1, "mode": "recover"}, duration=5.0),
    ))
    inj.arm()
    tick(sys_, 4.0, [1, 1, 1])
    tick(sys_, 7.0, [2, 2, 2])       # pid 1 is down here
    assert sys_.processes[1].crashed
    tick(sys_, 11.0, [3, 3, 3])      # restarted at 10
    sys_.run(until=12.0)
    assert not sys_.processes[1].crashed
    assert sys_.processes[1].restarts == 1
    assert sys_.processes[1].variables["x1"] == 3
    assert inj.applied == [(5.0, "crash"), (10.0, "restart")]


def test_crash_drops_are_counted_as_dropped_crashed():
    sys_ = make_system()
    FaultInjector(sys_, plan_of(
        FaultEvent(5.0, "crash", {"pid": 2, "mode": "recover"}, duration=10.0),
    )).arm()
    tick(sys_, 7.0, [1, 1, 1])       # broadcasts to the down pid 2
    sys_.run(until=8.0)
    stats = sys_.net.stats
    assert stats.dropped_crashed > 0
    assert stats.dropped_partition == 0


def test_partition_and_heal():
    sys_ = make_system()
    FaultInjector(sys_, plan_of(
        FaultEvent(5.0, "partition", {"groups": [[0], [1, 2]]}, duration=5.0),
    )).arm()
    tick(sys_, 6.0, [1, 1, 1])
    sys_.run(until=7.0)
    assert sys_.net.partition is not None
    assert sys_.net.stats.dropped_partition > 0
    before = sys_.net.stats.dropped_partition
    tick(sys_, 11.0, [2, 2, 2])      # healed at 10
    sys_.run(until=12.0)
    assert sys_.net.partition is None
    assert sys_.net.stats.dropped_partition == before
    assert sys_.net.stats.dropped_crashed == 0


def test_partition_needs_groups_or_edges():
    with pytest.raises(FaultError, match="groups"):
        FaultEvent(1.0, "partition")


def test_burst_loss_window_drops_and_clears():
    sys_ = make_system()
    FaultInjector(sys_, plan_of(
        FaultEvent(5.0, "burst_loss",
                   {"p_bad": 1.0, "p_bg": 0.0, "start_bad": True},
                   duration=5.0),
    )).arm()
    tick(sys_, 7.0, [1, 1, 1])
    sys_.run(until=8.0)
    assert sys_.net.loss_override is not None
    assert sys_.net.stats.dropped_burst > 0
    during = sys_.net.stats.dropped_burst
    tick(sys_, 11.0, [2, 2, 2])
    sys_.run(until=12.0)
    assert sys_.net.loss_override is None
    assert sys_.net.stats.dropped_burst == during


def test_burst_loss_leaves_base_streams_aligned():
    """The load-bearing determinism property: a burst window must not
    shift the base network rng — message *delays* after the window are
    identical with and without the fault."""
    def delays(with_fault):
        sys_ = PervasiveSystem(SystemConfig(
            n_processes=2, seed=9, delay=DeltaBoundedDelay(0.2),
        ))
        sys_.net._record_delays = True
        sys_.world.create("obj", x0=0, x1=0)
        for i, p in enumerate(sys_.processes):
            p.track(f"x{i}", "obj", f"x{i}", initial=0)
        if with_fault:
            FaultInjector(sys_, plan_of(
                FaultEvent(2.0, "burst_loss",
                           {"p_bad": 1.0, "p_bg": 0.0, "start_bad": True},
                           duration=2.0),
            )).arm()
        for k in range(1, 20):
            sys_.run(until=k * 0.5)
            sys_.world.set_attribute("obj", "x0", k)
            sys_.world.set_attribute("obj", "x1", k)
        sys_.run(until=12.0)
        return sys_.net.stats.delays

    base, faulty = delays(False), delays(True)
    # Fewer deliveries under the fault (the window drops), but the
    # delay draws happen identically in both runs (the override is
    # consulted after the delay sample, from its own rng), so the
    # faulty delivery delays are exactly the baseline sequence with
    # the windowed messages deleted — a subsequence.
    assert len(faulty) < len(base)
    it = iter(base)
    assert all(any(b == f for b in it) for f in faulty)


def test_clock_drift_spike_and_end():
    sys_ = make_system(physical=True)
    clock = sys_.processes[0].physical_clock
    base_rate = clock.rate()
    FaultInjector(sys_, plan_of(
        FaultEvent(2.0, "clock_drift", {"pid": 0, "delta_ppm": 500.0},
                   duration=3.0),
    )).arm()
    sys_.run(until=3.0)
    assert clock.rate() == pytest.approx(base_rate + 500e-6)
    sys_.run(until=6.0)
    assert clock.rate() == pytest.approx(base_rate)
    assert clock.faults == 2


def test_clock_freeze_unfreeze():
    sys_ = make_system(physical=True)
    clock = sys_.processes[1].physical_clock
    FaultInjector(sys_, plan_of(
        FaultEvent(2.0, "clock_freeze", {"pid": 1}, duration=4.0),
    )).arm()
    sys_.run(until=3.0)
    assert clock.frozen
    frozen_reading = clock.read(3.0)
    assert clock.read(5.9) == frozen_reading
    sys_.run(until=8.0)
    assert not clock.frozen
    # Resumes from the frozen value: stoppage stays as offset error.
    assert clock.read(8.0) == pytest.approx(
        frozen_reading + clock.rate() * 2.0, abs=1e-6
    )


def test_clock_fault_without_physical_clock_raises():
    sys_ = make_system(physical=False)
    FaultInjector(sys_, plan_of(
        FaultEvent(1.0, "clock_freeze", {"pid": 0}),
    )).arm()
    with pytest.raises(FaultError):
        sys_.run(until=2.0)


def test_strobe_perturb_jumps_clocks_forward():
    sys_ = make_system()
    p = sys_.processes[2]
    v_before = p.strobe_vector.read().as_tuple()[2]
    s_before = p.strobe_scalar.read().value
    FaultInjector(sys_, plan_of(
        FaultEvent(1.0, "strobe_perturb", {"pid": 2, "ticks": 3}),
    )).arm()
    sys_.run(until=2.0)
    assert p.strobe_vector.read().as_tuple()[2] == v_before + 3
    assert p.strobe_scalar.read().value == s_before + 3


def test_strobe_perturb_single_clock_and_validation():
    sys_ = make_system()
    FaultInjector(sys_, plan_of(
        FaultEvent(1.0, "strobe_perturb", {"pid": 0, "ticks": 2,
                                           "clock": "scalar"}),
    )).arm()
    s = sys_.processes[0].strobe_scalar.read().value
    v = sys_.processes[0].strobe_vector.read().as_tuple()[0]
    sys_.run(until=2.0)
    assert sys_.processes[0].strobe_scalar.read().value == s + 2
    assert sys_.processes[0].strobe_vector.read().as_tuple()[0] == v

    with pytest.raises(FaultError, match="clock"):
        FaultEvent(1.0, "strobe_perturb", {"pid": 0, "clock": "sundial"})


def test_strobe_perturb_forward_only():
    clockful = make_system()
    with pytest.raises(ClockError):
        clockful.processes[0].strobe_vector.perturb(0)
    with pytest.raises(ClockError):
        clockful.processes[0].strobe_scalar.perturb(-1)


def test_arm_validates_pids_and_rejects_double_arm():
    sys_ = make_system(n=2)
    inj = FaultInjector(sys_, plan_of(
        FaultEvent(1.0, "crash", {"pid": 5, "mode": "recover"}),
    ))
    with pytest.raises(FaultError):
        inj.arm()
    ok = FaultInjector(sys_, plan_of(FaultEvent(1.0, "heal")))
    ok.arm()
    with pytest.raises(FaultError):
        ok.arm()


def test_injector_seed_defaults_to_system_seed():
    sys_ = make_system(seed=42)
    inj = FaultInjector(sys_, plan_of())
    assert inj.seed == 42
    assert FaultInjector(sys_, plan_of(), seed=7).seed == 7


def test_bind_observer_counts_injected_and_cleared():
    sys_ = make_system()
    reg = MetricsRegistry()
    inj = FaultInjector(sys_, plan_of(
        FaultEvent(1.0, "crash", {"pid": 1, "mode": "recover"}, duration=2.0),
        FaultEvent(5.0, "strobe_perturb", {"pid": 0, "ticks": 1}),
    ))
    inj.bind_observer(Observability(registry=reg))
    inj.arm()
    sys_.run(until=10.0)
    assert reg.counter("faults.injected").value == 2
    assert reg.counter("faults.cleared").value == 1
    assert reg.gauge("faults.active").value == 0


def test_fault_randomness_is_substream_derived():
    """Same (plan, seed) -> identical burst decisions, regardless of
    what else consumed randomness — the replay contract."""
    def burst_count(extra_draws):
        sys_ = make_system(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(extra_draws):
            rng.random()
        # p_bg=0 pins the chain in the bad state for the whole window
        # (a nonzero p_bg lets the burst die early and, with p_gb=0,
        # never come back — legitimate GE behaviour, wrong for this test).
        FaultInjector(sys_, plan_of(
            FaultEvent(1.0, "burst_loss", {"p_bad": 0.7, "p_bg": 0.0},
                       duration=8.0),
        )).arm()
        for k in range(1, 10):
            tick(sys_, float(k), [k, k, k])
        sys_.run(until=10.0)
        return sys_.net.stats.dropped_burst

    first = burst_count(0)
    assert first > 0
    assert first == burst_count(500)
