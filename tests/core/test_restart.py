"""Fail-recover restart semantics (the repro.faults bugfix split:
crash() is fail-stop by default; mode="recover" + restart() reboots)."""

import pytest

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.obs import MetricsRegistry, Observability, instrument


def make_system(n=3, seed=0, **kw):
    sys_ = PervasiveSystem(SystemConfig(
        n_processes=n, seed=seed,
        clocks=kw.pop("clocks", ClockConfig.strobes()), **kw,
    ))
    sys_.world.create("obj", **{f"x{i}": 0 for i in range(n)})
    for i, p in enumerate(sys_.processes):
        p.track(f"x{i}", "obj", f"x{i}", initial=0)
    return sys_


def poke(sys_, t, values):
    sys_.run(until=t)
    for i, v in enumerate(values):
        sys_.world.set_attribute("obj", f"x{i}", v)


def test_fail_stop_is_not_restartable():
    sys_ = make_system()
    p = sys_.processes[0]
    p.crash()                        # default: fail-stop
    assert p.crashed
    with pytest.raises(RuntimeError):
        p.restart()


def test_restart_requires_a_crash():
    sys_ = make_system()
    with pytest.raises(RuntimeError):
        sys_.processes[0].restart()


def test_crash_mode_validation():
    sys_ = make_system()
    with pytest.raises(ValueError):
        sys_.processes[0].crash(mode="explode")


def test_restart_resamples_world_and_reannounces():
    sys_ = make_system()
    p1 = sys_.processes[1]
    poke(sys_, 1.0, [1, 1, 1])
    sys_.run(until=2.0)
    p1.crash(mode="recover")
    poke(sys_, 3.0, [2, 7, 2])       # p1 misses x1=7
    sys_.run(until=4.0)
    assert p1.variables["x1"] == 1
    p1.restart()
    sys_.run(until=5.0)
    # Boot re-sample picked up the live world value and re-announced it
    # to the detector host.
    assert p1.variables["x1"] == 7
    assert p1.restarts == 1


def test_restart_clears_strobe_cache_and_resyncs_clocks():
    sys_ = make_system()
    p0, p1, _ = sys_.processes
    poke(sys_, 1.0, [1, 1, 1])
    sys_.run(until=2.0)
    pre = p1.strobe_vector.read().as_tuple()
    assert pre[1] > 0                 # p1 ticked for its own events
    p1.crash(mode="recover")
    sys_.run(until=3.0)
    p1.restart()
    sys_.run(until=4.0)
    post = p1.strobe_vector.read().as_tuple()
    # The rejoin hello/sync merge restored p1's own pre-crash component
    # (a peer's vector carries it) and then the re-announce ticked past.
    assert post[1] > pre[1]


def test_restart_keeps_sequence_counters_monotone():
    """Record keys (pid, seq) must stay unique across reboots — the
    sequence counter lives in stable storage."""
    sys_ = make_system()
    p1 = sys_.processes[1]
    seen = []
    sys_.processes[0].add_strobe_listener(
        lambda r: seen.append(r.key()) if r.pid == 1 else None
    )
    poke(sys_, 1.0, [1, 1, 1])
    sys_.run(until=2.0)
    p1.crash(mode="recover")
    sys_.run(until=3.0)
    p1.restart()
    poke(sys_, 4.0, [2, 2, 2])
    sys_.run(until=5.0)
    assert len(seen) == len(set(seen))
    assert len(seen) >= 2


def test_crashed_and_partition_drops_are_distinct():
    """dropped_crashed (endpoint down) vs dropped_partition (topology)
    are separate counters — the satellite bugfix."""
    from repro.net.topology import PartitionOverlay

    sys_ = make_system()
    sys_.processes[2].crash(mode="recover")
    poke(sys_, 1.0, [1, 1, 1])        # broadcasts hit the down endpoint
    sys_.run(until=2.0)
    assert sys_.net.stats.dropped_crashed > 0
    assert sys_.net.stats.dropped_partition == 0
    sys_.processes[2].restart()
    sys_.run(until=3.0)
    crashed_drops = sys_.net.stats.dropped_crashed
    sys_.net.set_partition(PartitionOverlay.split([0], [1, 2]))
    poke(sys_, 4.0, [2, 2, 2])
    sys_.run(until=5.0)
    assert sys_.net.stats.dropped_partition > 0
    assert sys_.net.stats.dropped_crashed == crashed_drops


def test_in_flight_messages_drop_at_crash():
    """A message in flight when the destination fail-stops is counted
    dropped_crashed, not delivered."""
    from repro.net.delay import DeltaBoundedDelay

    sys_ = make_system(delay=DeltaBoundedDelay(0.5))
    poke(sys_, 1.0, [1, 1, 1])        # broadcasts in flight (Δ up to .5)
    sys_.processes[2].crash(mode="recover")
    sys_.run(until=3.0)
    assert sys_.net.stats.dropped_crashed > 0


def test_crashed_process_ignores_world_and_messages():
    sys_ = make_system()
    p1 = sys_.processes[1]
    p1.crash(mode="recover")
    poke(sys_, 1.0, [5, 5, 5])
    sys_.run(until=2.0)
    assert p1.variables["x1"] == 0
    assert p1.strobe_vector.read().as_tuple() == (0, 0, 0)


def test_restart_without_strobe_clocks_reannounces_directly():
    sys_ = make_system(clocks=ClockConfig(lamport=True))
    p1 = sys_.processes[1]
    heard = []
    sys_.processes[0].add_strobe_listener(heard.append)
    poke(sys_, 1.0, [1, 1, 1])
    sys_.run(until=2.0)
    p1.crash(mode="recover")
    sys_.run(until=3.0)
    p1.restart()
    sys_.run(until=4.0)
    assert p1.restarts == 1
    assert not p1.crashed


def test_double_restart_cycles():
    sys_ = make_system()
    p1 = sys_.processes[1]
    for k in range(2):
        sys_.run(until=2.0 * k + 1.0)
        p1.crash(mode="recover")
        sys_.run(until=2.0 * k + 1.5)
        p1.restart()
    sys_.run(until=6.0)
    assert p1.restarts == 2
    assert not p1.crashed


CLOCK_COUNTERS = (
    "clock.vector.ticks", "clock.vector.merges", "clock.vector.piggyback_units",
    "clock.strobe.emitted", "clock.strobe.merged",
)


def counter_deltas_after(restart: bool) -> dict:
    """Counter deltas of one scripted exchange after an optional
    fail-recover restart of p1 in an instrumented system."""
    sys_ = make_system(n=2, clocks=ClockConfig(vector=True, strobe_vector=True))
    reg = MetricsRegistry()
    instrument(sys_, Observability(registry=reg))
    p0, p1 = sys_.processes
    poke(sys_, 1.0, [1, 1])
    sys_.run(until=2.0)
    if restart:
        p1.crash(mode="recover")
        p1.restart()
    sys_.run(until=3.0)
    before = {name: reg.counter(name).value for name in CLOCK_COUNTERS}
    p1.on_sense("x1", 2)
    p1.send_app(0, "ping")
    p0.send_app(1, "pong")
    p0.on_sense("x0", 2)
    sys_.run(until=4.0)
    return {name: reg.counter(name).value - before[name] for name in CLOCK_COUNTERS}


def test_restarted_clocks_keep_counting():
    # The rebuilt vector and strobe clocks bind to the process's
    # observer, so the restarted run counts exactly what a run without
    # the restart counts for the same exchange.
    deltas = counter_deltas_after(restart=True)
    assert deltas == counter_deltas_after(restart=False)
    assert all(v > 0 for v in deltas.values()), deltas
