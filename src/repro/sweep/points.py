"""Sweep points — the experiment functions named by sweep task refs.

Every function here is the unit a :class:`~repro.sweep.tasks.SweepTask`
runs: importable at module scope (spawn-safe), driven entirely by its
keyword parameters plus an explicit ``seed``, and returning a plain
JSON-serializable mapping with **no wall-clock readings** — rows must
be byte-identical whether computed inline, in a pool worker, or on a
different machine.

The benchmark suite imports its harness pieces from here
(``benchmarks/bench_detector_throughput.py`` and
``bench_e07_sync_cost.py``) so the committed ``BENCH_*.json`` baselines
and the ``repro sweep`` replication matrices measure the same code.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import numpy as np

from repro.analysis.energy import RadioEnergyModel
from repro.clocks.physical import DriftModel, PhysicalClock
from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.strobe import StrobeVectorClock
from repro.clocks.sync import OnDemandSyncProtocol, PeriodicSyncProtocol
from repro.core.process import ClockConfig
from repro.core.records import SensedEventRecord
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.base import Detection
from repro.detect.physical import PhysicalClockDetector
from repro.detect.strobe_scalar import ScalarStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.predicates.relational import SumThresholdPredicate
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sweep.tasks import MatrixSpec
from repro.world.generators import PoissonProcess


# ---------------------------------------------------------------------------
# Detector throughput (shared with benchmarks/bench_detector_throughput.py)
# ---------------------------------------------------------------------------

def synth_records(
    m: int, n: int = 4, seed: int = 0, race_frac: float = 0.3
) -> list[SensedEventRecord]:
    """Synthesize m records from n processes with a controlled fraction
    of racing (concurrent) events: strobes delivered with probability
    (1 - race_frac) before the next event."""
    # The raw seed IS the stream identity here: tasks receive seeds
    # already derived via substream_seed upstream, and the committed
    # BENCH_detector_throughput.json baseline pins the seed=0 records.
    rng = np.random.default_rng(seed)  # repro: noqa SIM002 -- seed pre-derived by the sweep layer; re-deriving would change the committed baseline records
    clocks = [StrobeVectorClock(i, n) for i in range(n)]
    records = []
    seqs = [0] * n
    scalar = 0
    for k in range(m):
        i = int(rng.integers(n))
        ts = clocks[i].on_relevant_event()
        seqs[i] += 1
        scalar += 1
        records.append(SensedEventRecord(
            pid=i, seq=seqs[i], var=f"v{i}", value=int(rng.integers(0, 10)),
            strobe_vector=ts,
            strobe_scalar=ScalarTimestamp(scalar, i),
            physical=float(k) + float(rng.normal(0, 0.01)),
            true_time=float(k),
        ))
        if rng.random() > race_frac:
            for j in range(n):
                if j != i:
                    clocks[j].on_strobe(ts)
    return records


def throughput_predicate(n: int = 4) -> SumThresholdPredicate:
    return SumThresholdPredicate([(f"v{i}", i, 1.0) for i in range(n)], 18)


_DETECTORS = {
    "vector_strobe": VectorStrobeDetector,
    "scalar_strobe": ScalarStrobeDetector,
    "physical": PhysicalClockDetector,
}


def detections_digest(detections: list[Detection]) -> str:
    """Order-sensitive digest of (trigger, label) pairs — the
    bit-identical-detections gate every speedup is checked against."""
    h = hashlib.blake2b(digest_size=8)
    for d in detections:
        h.update(f"{d.trigger.pid}:{d.trigger.seq}:{d.label.value}\n".encode())
    return h.hexdigest()


def detector_throughput(
    detector: str = "vector_strobe",
    m: int = 200,
    n: int = 4,
    race_frac: float = 0.3,
    seed: int = 0,
) -> dict[str, Any]:
    """Feed ``m`` synthetic records through one detector; report
    detection counts and the labels digest (no timings — see module
    docstring; wall time is the runner's obs business)."""
    if detector not in _DETECTORS:
        raise ValueError(f"unknown detector {detector!r} (have {sorted(_DETECTORS)})")
    records = synth_records(m, n=n, seed=seed, race_frac=race_frac)
    det = _DETECTORS[detector](
        throughput_predicate(n), {f"v{i}": 0 for i in range(n)}
    )
    det.feed_many(records)
    detections = det.finalize()
    return {
        "detector": detector,
        "m": m,
        "detections": len(detections),
        "firm": sum(1 for d in detections if d.firm),
        "borderline": sum(1 for d in detections if not d.firm),
        "labels_digest": detections_digest(detections),
    }


# ---------------------------------------------------------------------------
# E7 sync-cost harness (shared with benchmarks/bench_e07_sync_cost.py)
# ---------------------------------------------------------------------------

E07_N = 8
E07_DURATION = 600.0
E07_EVENT_RATE = 0.05      # sensed events per second per process
_ENERGY = RadioEnergyModel()


def strobe_cost(
    vector: bool, seed: int = 0, registry=None, trace_capacity=None
) -> dict:
    """Message/energy cost of strobe clocks over one E7 run.

    ``trace_capacity`` attaches a flight recorder (repro.trace) with
    that ring size and adds ``trace_recorded``/``trace_retained`` to
    the row — the overhead-budget test's hook.  Sweep matrices never
    set it, so sweep rows are unaffected.
    """
    clocks = (
        ClockConfig(strobe_vector=True) if vector
        else ClockConfig(strobe_scalar=True)
    )
    system = PervasiveSystem(SystemConfig(
        n_processes=E07_N, seed=seed, delay=DeltaBoundedDelay(0.1), clocks=clocks,
    ))
    recorder = None
    if trace_capacity is not None:
        from repro.trace import FlightRecorder

        recorder = FlightRecorder(system.sim, capacity=trace_capacity)
    if registry is not None or recorder is not None:
        from repro.obs import Observability, instrument

        instrument(system, Observability(registry=registry, recorder=recorder))
    gens = []
    for i in range(E07_N):
        system.world.create(f"obj{i}", level=0)
        system.processes[i].track(f"v{i}", f"obj{i}", "level", initial=0)
        counter = {"k": 0}
        def bump(i=i, counter=counter):
            counter["k"] += 1
            system.world.set_attribute(f"obj{i}", "level", counter["k"])
        gens.append(PoissonProcess(
            system.sim, E07_EVENT_RATE, bump, rng=system.rng.get("world", "ev", i),
        ))
    for g in gens:
        g.start()
    system.run(until=E07_DURATION)
    stats = system.net.stats
    events = sum(g.arrivals for g in gens)
    row = {
        "messages": stats.sent,
        "units": stats.total_units,
        "energy_J": _ENERGY.network_energy(stats),
        "events": events,
    }
    if recorder is not None:
        row["trace_recorded"] = recorder.total_recorded
        row["trace_retained"] = recorder.retained
    return row


def periodic_sync_cost(period: float, seed: int = 0) -> dict:
    """Cost of a periodic pairwise sync service at the given period."""
    sim = Simulator()
    rng = RngRegistry(seed=seed)
    clocks = [
        PhysicalClock(DriftModel.sample(rng.get("drift", i)))
        for i in range(E07_N)
    ]
    proto = PeriodicSyncProtocol(
        sim, clocks, period=period, epsilon=1e-3, rng=rng.get("sync"),
    )
    proto.start()
    sim.run(until=E07_DURATION)
    # Each sync message carries ~2 scalar stamps (a 2-unit payload).
    energy = _ENERGY.message_energy(
        proto.stats.messages, proto.stats.messages,
        proto.stats.messages * 2, proto.stats.messages * 2,
    )
    return {
        "messages": proto.stats.messages,
        "units": proto.stats.messages * 2,
        "energy_J": energy,
        "events": 0,
    }


def on_demand_cost(seed: int = 0) -> dict:
    """Cost of on-demand sync: one round per critical event [3]."""
    sim = Simulator()
    rng = RngRegistry(seed=seed)
    clocks = [
        PhysicalClock(DriftModel.sample(rng.get("drift", i)))
        for i in range(E07_N)
    ]
    proto = OnDemandSyncProtocol(sim, clocks, epsilon=1e-3, rng=rng.get("sync"))
    events = {"n": 0}
    def critical_event():
        events["n"] += 1
        proto.sync_now()
    gen = PoissonProcess(sim, E07_EVENT_RATE * E07_N, critical_event, rng=rng.get("ev"))
    gen.start()
    sim.run(until=E07_DURATION)
    energy = _ENERGY.message_energy(
        proto.stats.messages, proto.stats.messages,
        proto.stats.messages * 2, proto.stats.messages * 2,
    )
    return {
        "messages": proto.stats.messages,
        "units": proto.stats.messages * 2,
        "energy_J": energy,
        "events": events["n"],
    }


_SYNC_OPTIONS = {
    "periodic_10": lambda seed: periodic_sync_cost(10.0, seed=seed),
    "periodic_60": lambda seed: periodic_sync_cost(60.0, seed=seed),
    "on_demand": lambda seed: on_demand_cost(seed=seed),
    "vector_strobe": lambda seed: strobe_cost(True, seed=seed),
    "scalar_strobe": lambda seed: strobe_cost(False, seed=seed),
}


def sync_cost(option: str = "vector_strobe", seed: int = 0) -> dict[str, Any]:
    """One E7 time-service option under one seed (sweep-point shape)."""
    if option not in _SYNC_OPTIONS:
        raise ValueError(f"unknown sync option {option!r} (have {sorted(_SYNC_OPTIONS)})")
    row = dict(_SYNC_OPTIONS[option](seed))
    row["option"] = option
    return row


# ---------------------------------------------------------------------------
# Fault resilience (repro.faults chaos harness, §4.2.2)
# ---------------------------------------------------------------------------

#: intensity level → fault-plan builder argument sets (see chaos_resilience)
_CHAOS_INTENSITIES = ("crash", "partition", "burst", "combined")


def chaos_resilience(
    intensity: str = "combined", duration: float = 120.0, seed: int = 0
) -> dict[str, Any]:
    """One chaos run (faulty vs fault-free twin) at a fault intensity.

    Returns only deterministic fields from the chaos report, so rows
    are byte-identical across worker counts (the chaos report itself
    carries no wall-clock state).
    """
    from repro.faults import FaultEvent, FaultPlan, run_chaos

    if intensity not in _CHAOS_INTENSITIES:
        raise ValueError(
            f"unknown intensity {intensity!r} (have {_CHAOS_INTENSITIES})"
        )
    events = []
    if intensity in ("crash", "combined"):
        events.append(
            FaultEvent(40.0, "crash", {"pid": 1, "mode": "recover"}, duration=12.0)
        )
    if intensity in ("partition", "combined"):
        events.append(
            FaultEvent(60.0, "partition", {"groups": [[0], [1]]}, duration=10.0)
        )
    if intensity in ("burst", "combined"):
        events.append(
            FaultEvent(
                80.0, "burst_loss",
                {"p_bad": 0.9, "p_bg": 0.05, "start_bad": True},
                duration=10.0,
            )
        )
    plan = FaultPlan(name=f"sweep-{intensity}", events=tuple(events))
    report = run_chaos("smart_office", seed=seed, duration=duration, plan=plan)
    return {
        "intensity": intensity,
        "duration": duration,
        "seed": seed,
        "detections_base": report["baseline"]["detections"],
        "detections_faulty": report["faulty"]["detections"],
        "mismatches": (report["mismatches"]["missing"]
                       + report["mismatches"]["spurious"]),
        "max_error_window_s": max(
            (w["error_window_s"] for w in report["windows"]), default=0.0
        ),
        "ripple_ok": report["ripple_ok"],
    }


# ---------------------------------------------------------------------------
# Named matrices for `repro sweep`
# ---------------------------------------------------------------------------

MATRICES: Mapping[str, MatrixSpec] = {
    "detector_throughput": MatrixSpec(
        name="detector_throughput",
        ref="repro.sweep.points:detector_throughput",
        grid=(
            ("detector", ("vector_strobe", "scalar_strobe", "physical")),
            ("m", (100, 200)),
        ),
        reps=3,
        description="detection counts/labels per detector × record count "
                    "(3 detectors × 2 sizes × reps)",
    ),
    "sync_cost": MatrixSpec(
        name="sync_cost",
        ref="repro.sweep.points:sync_cost",
        grid=(
            ("option", ("periodic_10", "periodic_60", "on_demand",
                        "vector_strobe", "scalar_strobe")),
        ),
        reps=4,
        description="E7 standing cost of time services, replicated per "
                    "seed (5 options × reps)",
    ),
    "fault_resilience": MatrixSpec(
        name="fault_resilience",
        ref="repro.sweep.points:chaos_resilience",
        grid=(
            ("intensity", _CHAOS_INTENSITIES),
        ),
        reps=4,
        description="§4.2.2 chaos runs (faulty vs fault-free twin) per "
                    "fault intensity (4 intensities × 4 seeded reps)",
    ),
}


__all__ = [
    "synth_records",
    "throughput_predicate",
    "detections_digest",
    "detector_throughput",
    "strobe_cost",
    "periodic_sync_cost",
    "on_demand_cost",
    "sync_cost",
    "chaos_resilience",
    "MATRICES",
    "E07_N",
    "E07_DURATION",
    "E07_EVENT_RATE",
]
