"""Instrumentation must be a pure observer.

The determinism contract: attaching a registry, tracer, flight recorder
and sampler to a run changes **nothing** about the simulation — the
record stream (values, stamps, ordering), the detections, and the
final sim time are bit-identical to an uninstrumented run with the
same seed.  This is why every hook guards on ``is None`` and the
sampler rides the kernel's post-event hook instead of scheduling
events.  Binding both observers at once changes neither observer's
output either.
"""

import pytest

from repro.detect.online import OnlineVectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.obs import Counter, Gauge, MetricsRegistry, Observability, SpanTracer, instrument
from repro.scenarios.smart_office import SmartOffice, SmartOfficeConfig
from repro.trace import FlightRecorder, trace_jsonl_lines

DELTA = 0.2
DURATION = 60.0
SEED = 11
#: a seed whose run detects (SEED's detects nothing in DURATION)
DETECTING_SEED = 3


def run_office(registry: bool = False, recorder: bool = False, seed: int = SEED):
    office = SmartOffice(SmartOfficeConfig(
        seed=seed, delay=DeltaBoundedDelay(DELTA),
        temp_threshold=28.0, temp_base=27.5, temp_sigma=1.5,
    ))
    sim = office.system.sim
    obs = None
    if registry or recorder:
        obs = Observability(
            registry=MetricsRegistry() if registry else None,
            tracer=SpanTracer(sim) if registry else None,
            recorder=FlightRecorder(sim, capacity=65536) if recorder else None,
        )
        instrument(office.system, obs, sample_every=100 if registry else None)
    detector = OnlineVectorStrobeDetector(
        sim, office.predicate, office.initials, delta=DELTA,
    )
    office.attach_detector(detector)
    detector.start()
    office.run(DURATION)
    detections = detector.finalize()
    return office, detector, detections, obs


def scalar_values(registry):
    return {
        m.name: m.value for m in registry.metrics()
        if isinstance(m, (Counter, Gauge))
    }


def test_instrumentation_does_not_perturb_the_run():
    office_a, det_a, detections_a, _ = run_office()
    office_b, det_b, detections_b, obs = run_office(registry=True)

    # Identical record streams: same values, same stamps, same order.
    assert det_a.store.all() == det_b.store.all()
    assert detections_a == detections_b
    assert office_a.system.sim.now == office_b.system.sim.now
    assert office_a.system.sim.processed_events == office_b.system.sim.processed_events
    assert office_a.system.net.stats.sent == office_b.system.net.stats.sent

    # ...while the instrumented run actually recorded something.
    reg = obs.registry
    assert reg.get("kernel.events_fired").value == office_b.system.sim.processed_events
    assert reg.get("net.sent").value == office_b.system.net.stats.sent
    assert reg.get("net.delivered").value == office_b.system.net.stats.delivered
    assert reg.get("detect.records").value == len(det_b.store.all())
    assert len(reg.samples) > 0


def test_combined_observer_is_passive():
    seed = DETECTING_SEED
    office_a, det_a, detections_a, _ = run_office(seed=seed)
    _, _, _, reg_only = run_office(registry=True, seed=seed)
    _, _, _, rec_only = run_office(recorder=True, seed=seed)
    office_c, det_c, detections_c, both = run_office(
        registry=True, recorder=True, seed=seed,
    )

    assert det_a.store.all() == det_c.store.all()
    assert detections_a == detections_c != []
    assert office_a.system.sim.processed_events == office_c.system.sim.processed_events

    # Each observer sees exactly what it sees when bound alone.
    lines = trace_jsonl_lines(both.recorder)
    assert lines == trace_jsonl_lines(rec_only.recorder)
    detection_lines = [line for line in lines if '"kind":"detection"' in line]
    assert len(detection_lines) == len(detections_c)
    values = scalar_values(both.registry)
    assert values == scalar_values(reg_only.registry)
    assert values["detect.records"] == len(det_c.store.all())
    assert len(both.registry.samples) == len(reg_only.registry.samples) > 0


def test_obs_counters_agree_with_transport_accounting():
    _, _, _, obs = run_office(registry=True)
    reg = obs.registry
    # Conservation: every sent message was delivered, dropped, or still
    # in flight at the run horizon (delivery within Δ of the cutoff).
    sent = reg.get("net.sent").value
    delivered = reg.get("net.delivered").value
    dropped = (reg.get("net.dropped_loss").value
               + reg.get("net.dropped_partition").value)
    in_flight = sent - delivered - dropped
    assert 0 <= in_flight <= 4
    # The delay histogram is observed at dispatch (when the delivery is
    # scheduled), so it covers every non-dropped send — including any
    # still in flight at the horizon.
    assert reg.get("net.delay_s").count == sent - dropped


def test_sampling_needs_a_registry():
    office = SmartOffice(SmartOfficeConfig(seed=SEED))
    obs = Observability(recorder=FlightRecorder(office.system.sim, capacity=16))
    with pytest.raises(ValueError, match="registry"):
        instrument(office.system, obs, sample_every=100)
