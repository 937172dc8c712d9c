"""Instrumented run: the smart office under full observability.

Demonstrates the :mod:`repro.obs` subsystem end to end — attach a
:class:`MetricsRegistry` + sim-time :class:`SpanTracer` to a scenario,
run it, and print the console report.  Every layer reports: the kernel
(events fired, callback wall time), the transport (sends/deliveries,
delay distribution), the strobe clocks (emitted/merged, catch-up
skew), and the online detector (records, emit latency).

Run:  PYTHONPATH=src python examples/instrumented_run.py
"""

from repro.detect.online import OnlineVectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.obs import MetricsRegistry, Observability, SpanTracer, instrument, render_console
from repro.scenarios.smart_office import SmartOffice, SmartOfficeConfig

DELTA = 0.2
DURATION = 120.0


def main() -> None:
    office = SmartOffice(SmartOfficeConfig(
        seed=7, delay=DeltaBoundedDelay(DELTA),
        temp_threshold=28.0, temp_base=27.5, temp_sigma=1.5,
    ))

    # One call instruments every layer; the sampler rides the kernel's
    # post-event hook, so the run's event order and RNG draws are
    # exactly what they would be without instrumentation.
    obs = Observability(registry=MetricsRegistry(), tracer=SpanTracer(office.system.sim))
    instrument(office.system, obs, sample_every=200)

    # Attaching to an instrumented process binds the detector too.
    detector = OnlineVectorStrobeDetector(
        office.system.sim, office.predicate, office.initials, delta=DELTA,
    )
    office.attach_detector(detector)
    detector.start()

    with obs.tracer.span("office.run", t=0.0):
        office.run(DURATION)
    with obs.tracer.span("detector.finalize"):
        detections = detector.finalize()

    print(render_console(obs.registry, obs.tracer,
                         title="instrumented smart office"))
    print(f"\ndetections: {len(detections)}  "
          f"(φ = {office.predicate})")

    # The instrumentation agrees with the transport's own accounting.
    reg = obs.registry
    stats = office.system.net.stats
    assert reg.get("net.sent").value == stats.sent
    assert reg.get("net.delivered").value == stats.delivered
    assert reg.get("kernel.events_fired").value == office.system.sim.processed_events
    assert reg.get("detect.records").value == len(detector.store.all())
    assert len(reg.samples) > 0, "sampler should have fired"


if __name__ == "__main__":
    main()
