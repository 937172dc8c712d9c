"""Shared fixtures: one recorded hall run used across the trace tests."""

import pytest

from repro.core.process import ClockConfig
from repro.detect.online import OnlineVectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig
from repro.obs import Observability, instrument
from repro.trace import FlightRecorder

DELTA = 0.2
DURATION = 60.0
HOST = 0


def record_hall(seed=0, *, capacity=65536, duration=DURATION, recorder=True,
                arrivals=None):
    """Run the hall scenario online-detected; optionally flight-recorded.

    A dict passed as ``arrivals`` is filled with each record key's first
    delivery time at the detector host — the arrival the detector's
    ``feed`` stamps for it.

    Returns (scenario, detector, recorder-or-None).
    """
    hall = ExhibitionHall(ExhibitionHallConfig(
        seed=seed, delay=DeltaBoundedDelay(DELTA),
        clocks=ClockConfig.everything(),
    ))
    system = hall.system
    rec = None
    if recorder:
        rec = FlightRecorder(system.sim, capacity=capacity)
        instrument(system, Observability(recorder=rec))
    det = OnlineVectorStrobeDetector(
        system.sim, hall.predicate, hall.initials, delta=DELTA,
    )
    if arrivals is not None:
        def tap(record):
            arrivals.setdefault(record.key(), system.sim.now)

        system.processes[HOST].add_record_listener(tap)
        system.processes[HOST].add_strobe_listener(tap)
    hall.attach_detector(det, host=HOST)
    det.start()
    hall.run(duration)
    det.finalize()
    if rec is not None:
        rec.meta.update({
            "scenario": "hall", "seed": seed,
            "delta": DELTA, "duration": duration,
        })
    return hall, det, rec


@pytest.fixture(scope="session")
def hall_arrivals():
    """Record key -> arrival time at the detector host in ``hall_run``."""
    return {}


@pytest.fixture(scope="session")
def hall_run(hall_arrivals):
    return record_hall(seed=0, arrivals=hall_arrivals)
