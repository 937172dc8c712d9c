"""Property-based cross-checks between independent implementations.

Each test pits two independently-implemented components against each
other on randomized executions — disagreement means a bug in one of
them, regardless of which.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import BorderlinePolicy, match_detections
from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.base import RecordStore
from repro.detect.conjunctive_interval import ConjunctiveIntervalDetector
from repro.detect.lattice_detector import LatticeDetector
from repro.detect.oracle import OracleDetector
from repro.detect.strobe_scalar import ScalarStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.net.delay import SynchronousDelay
from repro.predicates.base import Modality
from repro.predicates.conjunctive import Conjunct, ConjunctivePredicate
from repro.predicates.relational import SumThresholdPredicate


# A random world script: per step, (process, new integer value), with
# strictly growing times.
scripts = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 3)),
    min_size=2,
    max_size=14,
)


def run_script(script, *, n=2):
    """Run the script at Δ=0 with all clocks; returns (system, store)."""
    system = PervasiveSystem(SystemConfig(
        n_processes=n, seed=1, delay=SynchronousDelay(0.0),
        clocks=ClockConfig.everything(),
    ))
    store = RecordStore()
    for i in range(n):
        system.world.create(f"obj{i}", v=0)
        system.processes[i].track(f"v{i}", f"obj{i}", "v", initial=0)
        system.processes[i].add_record_listener(store.add)
    t = 1.0
    for pid, value in script:
        system.sim.schedule_at(
            t, lambda p=pid, v=value: system.world.set_attribute(f"obj{p}", "v", v)
        )
        t += 1.0
    system.run(until=t + 1.0)
    return system, store, t


def occupancy(threshold=3, n=2):
    return SumThresholdPredicate(
        [(f"v{i}", i, 1.0) for i in range(n)], threshold
    )


@settings(max_examples=30, deadline=None)
@given(scripts)
def test_delta_zero_scalar_vector_and_oracle_agree(script):
    """At Δ=0: scalar detections ≡ vector detections ≡ oracle count."""
    system, store, t_end = run_script(script)
    phi = occupancy()
    initials = {"v0": 0, "v1": 0}
    vec = VectorStrobeDetector(phi, initials)
    sca = ScalarStrobeDetector(phi, initials)
    vec.feed_many(store.all())
    sca.feed_many(store.all())
    v_out, s_out = vec.finalize(), sca.finalize()
    assert [d.trigger.key() for d in v_out] == [d.trigger.key() for d in s_out]
    assert all(d.firm for d in v_out)

    oracle = OracleDetector(
        phi, {"v0": ("obj0", "v"), "v1": ("obj1", "v")},
        initials=initials,
    )
    truth = oracle.true_intervals(system.world.ground_truth, t_end=t_end)
    r = match_detections(truth, v_out, policy=BorderlinePolicy.AS_POSITIVE)
    assert r.fp == 0 and r.fn == 0


@settings(max_examples=30, deadline=None)
@given(scripts)
def test_detector_idempotent_under_duplicate_feeds(script):
    """Feeding every record twice must not change the output (the
    at-least-once delivery case)."""
    _, store, _ = run_script(script)
    phi = occupancy()
    initials = {"v0": 0, "v1": 0}
    once = VectorStrobeDetector(phi, initials)
    twice = VectorStrobeDetector(phi, initials)
    records = store.all()
    once.feed_many(records)
    twice.feed_many(records)
    twice.feed_many(records)
    out1, out2 = once.finalize(), twice.finalize()
    assert [d.trigger.key() for d in out1] == [d.trigger.key() for d in out2]
    assert [d.label for d in out1] == [d.label for d in out2]
    assert twice.store.duplicates == len(records)


@settings(max_examples=30, deadline=None)
@given(scripts)
def test_queue_possibly_agrees_with_lattice_possibly(script):
    """ConjunctiveIntervalDetector(POSSIBLY) detects something iff the
    exact lattice sweep says Possibly(φ) — two independent algorithms
    for the same modality (queue overlap test vs Cooper–Marzullo)."""
    _, store, _ = run_script(script)
    phi = ConjunctivePredicate([
        Conjunct("v0", 0, lambda v: v >= 2, "v0>=2"),
        Conjunct("v1", 1, lambda v: v >= 2, "v1>=2"),
    ])
    initials = {"v0": 0, "v1": 0}

    queue_det = ConjunctiveIntervalDetector(
        phi, initials, modality=Modality.POSSIBLY, stamp="vector",
    )
    queue_det.feed_many(store.all())
    queue_found = len(queue_det.finalize()) > 0

    lat = LatticeDetector(phi, initials, n=2, stamp="vector")
    lat.feed_many(store.all())
    possibly, _definitely = lat.modalities()

    assert queue_found == possibly


@settings(max_examples=30, deadline=None)
@given(scripts)
def test_queue_definitely_agrees_with_lattice_definitely(script):
    """Same cross-check for the DEFINITELY modality, under the
    strobe-vector order (where cross-process order actually exists)."""
    _, store, _ = run_script(script)
    phi = ConjunctivePredicate([
        Conjunct("v0", 0, lambda v: v >= 2, "v0>=2"),
        Conjunct("v1", 1, lambda v: v >= 2, "v1>=2"),
    ])
    initials = {"v0": 0, "v1": 0}

    queue_det = ConjunctiveIntervalDetector(
        phi, initials, modality=Modality.DEFINITELY, stamp="strobe_vector",
    )
    queue_det.feed_many(store.all())
    queue_found = len(queue_det.finalize()) > 0

    lat = LatticeDetector(phi, initials, n=2, stamp="strobe_vector")
    lat.feed_many(store.all())
    _possibly, definitely = lat.modalities()

    assert queue_found == definitely


@settings(max_examples=20, deadline=None)
@given(scripts, st.integers(0, 2**31 - 1))
def test_feed_order_does_not_matter(script, shuffle_seed):
    """Detectors must be insensitive to record arrival order (the
    network does not guarantee FIFO)."""
    _, store, _ = run_script(script)
    phi = occupancy()
    initials = {"v0": 0, "v1": 0}
    records = store.all()
    shuffled = list(records)
    np.random.default_rng(shuffle_seed).shuffle(shuffled)

    a = VectorStrobeDetector(phi, initials)
    b = VectorStrobeDetector(phi, initials)
    a.feed_many(records)
    b.feed_many(shuffled)
    assert [d.trigger.key() for d in a.finalize()] == \
           [d.trigger.key() for d in b.finalize()]


@settings(max_examples=15, deadline=None)
@given(scripts, st.floats(min_value=0.01, max_value=1.0), st.integers(0, 500))
def test_online_equals_offline_under_random_delays(script, delta, seed):
    """Property: for ANY script and ANY Δ-bounded delay, each online
    watermark detector's final output equals its offline replay (no
    loss; the 2Δ stability argument) — the vector pair and the scalar
    pair, each on its own run."""
    from repro.detect.online import OnlineScalarStrobeDetector, OnlineVectorStrobeDetector
    from repro.net.delay import DeltaBoundedDelay

    pairs = (
        (OnlineVectorStrobeDetector, VectorStrobeDetector, ClockConfig(strobe_vector=True)),
        (OnlineScalarStrobeDetector, ScalarStrobeDetector, ClockConfig(strobe_scalar=True)),
    )
    for online_cls, offline_cls, clocks in pairs:
        system = PervasiveSystem(SystemConfig(
            n_processes=2, seed=seed, delay=DeltaBoundedDelay(delta), clocks=clocks,
        ))
        for i in range(2):
            system.world.create(f"obj{i}", v=0)
            system.processes[i].track(f"v{i}", f"obj{i}", "v", initial=0)
        phi = occupancy()
        initials = {"v0": 0, "v1": 0}
        online = online_cls(
            system.sim, phi, initials, delta=delta, check_period=delta / 2,
        )
        offline = offline_cls(phi, initials)
        online.attach(system.processes[0])
        offline.attach(system.processes[0])
        online.start()
        t = 1.0
        for pid, value in script:
            system.sim.schedule_at(
                t, lambda p=pid, v=value: system.world.set_attribute(f"obj{p}", "v", v)
            )
            t += 1.0
        system.run(until=t + 3 * delta + 1.0)
        on_out = online.finalize()
        off_out = offline.finalize()
        assert [d.trigger.key() for d in on_out] == \
               [d.trigger.key() for d in off_out], online_cls.__name__
        assert [d.label for d in on_out] == [d.label for d in off_out]
        assert online.late_records == 0
