"""Detector throughput microbenchmarks.

Not a paper claim — engineering due diligence: the vector-strobe
detector's race analysis is the hot path of every experiment.  Its race
kernel costs O(m·C·log m) plus the race-set size per finalize (C monotone
chains, about one per process and clock epoch), so finalize scales near
linearly in m.  These benches pin the constant factors so regressions are
visible, and the m=20000 row (gated against m=1000 in
``check_regression.GAP_RULES``) keeps that scaling visible.
"""

import time

import pytest

from repro.detect.physical import PhysicalClockDetector
from repro.detect.strobe_scalar import ScalarStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.sweep.points import synth_records, throughput_predicate

pytestmark = pytest.mark.slow


def predicate(n=4):
    # Shared with the `repro sweep detector_throughput` matrix — the
    # bench and the sweep measure the same harness (repro.sweep.points).
    return throughput_predicate(n)


@pytest.mark.parametrize("m", [200, 1000, 5000])
def test_vector_strobe_finalize_throughput(benchmark, m):
    records = synth_records(m)
    phi = predicate()
    initials = {f"v{i}": 0 for i in range(4)}

    def run():
        det = VectorStrobeDetector(phi, initials)
        det.feed_many(records)
        return det.finalize()

    out = benchmark(run)
    assert isinstance(out, list)


@pytest.mark.parametrize("m", [1000])
def test_scalar_strobe_finalize_throughput(benchmark, m):
    records = synth_records(m)
    phi = predicate()
    initials = {f"v{i}": 0 for i in range(4)}

    def run():
        det = ScalarStrobeDetector(phi, initials)
        det.feed_many(records)
        return det.finalize()

    benchmark(run)


@pytest.mark.parametrize("m", [1000])
def test_physical_finalize_throughput(benchmark, m):
    records = synth_records(m)
    phi = predicate()
    initials = {f"v{i}": 0 for i in range(4)}

    def run():
        det = PhysicalClockDetector(phi, initials)
        det.feed_many(records)
        return det.finalize()

    benchmark(run)


def test_concurrency_matrix_scaling(benchmark):
    """The chain-range race kernel in isolation at m=2000, on the
    stamps and chain ids finalize hands it."""
    from repro.clocks.vector import chain_concurrency_csr

    det = VectorStrobeDetector(predicate(), {f"v{i}": 0 for i in range(4)})
    det.feed_many(synth_records(2000))
    _, vecs, chains = det._linearize(det.store.all())
    benchmark(chain_concurrency_csr, vecs, chains)


def test_emit_bench_json(save_bench_json):
    """One timed finalize per (detector, m), exported as
    ``BENCH_detector_throughput.json`` — the machine-readable perf
    trajectory future PRs diff against."""
    from repro.obs import SpanTracer

    phi = predicate()
    initials = {f"v{i}": 0 for i in range(4)}
    detectors = {
        "vector_strobe": VectorStrobeDetector,
        "scalar_strobe": ScalarStrobeDetector,
        "physical": PhysicalClockDetector,
    }
    tracer = SpanTracer()
    rows = []
    for m in (200, 1000, 5000, 20000):
        records = synth_records(m)
        for name, cls in detectors.items():
            det = cls(phi, initials)
            det.feed_many(records)
            with tracer.span(f"{name}.finalize", m=m) as span:
                detections = det.finalize()
            rows.append({
                "detector": name,
                "m": m,
                "wall_s": span.wall_s,
                "records_per_s": m / span.wall_s if span.wall_s else None,
                "detections": len(detections),
            })
    save_bench_json(
        "detector_throughput", rows,
        meta={"n_processes": 4, "race_frac": 0.3, "seed": 0},
    )
    assert all(r["wall_s"] is not None and r["wall_s"] > 0 for r in rows)


def test_emit_phase_breakdown_json(save_bench_json):
    """Per-phase latency attribution, exported as
    ``BENCH_detector_phases.json``: where a vector-strobe finalize
    spends its time (``compare`` = linearization + chain-range race
    kernel vs ``race_eval`` = linearized replay + race analysis), how
    and how the online detector's incremental ``flush`` amortizes the
    same work (its m=20000 row gated against m=1000 in
    ``check_regression.GAP_RULES``).
    """
    from repro.clocks.vector import chain_concurrency_csr
    from repro.detect.online import OnlineVectorStrobeDetector
    from repro.obs import SpanTracer
    from repro.sim.kernel import Simulator

    phi = predicate()
    initials = {f"v{i}": 0 for i in range(4)}
    tracer = SpanTracer()
    rows = []

    def row(detector, m, phase, wall_s, **extra):
        rows.append({
            "detector": detector, "m": m, "phase": phase,
            "wall_s": wall_s, **extra,
        })

    # Offline: kernel phase measured standalone on the same stamps; the
    # remainder of a full finalize is attributed to race analysis.
    for m in (1000, 5000):
        records = synth_records(m)
        det = VectorStrobeDetector(phi, initials)
        det.feed_many(records)
        with tracer.span("compare", m=m) as span:
            _, vecs, chains = det._linearize(det.store.all())
            chain_concurrency_csr(vecs, chains)
        compare_s = span.wall_s
        row("vector_strobe", m, "compare", compare_s)
        with tracer.span("finalize", m=m) as span:
            detections = det.finalize()
        row(
            "vector_strobe", m, "finalize_total", span.wall_s,
            detections=len(detections),
        )
        row("vector_strobe", m, "race_eval", max(0.0, span.wall_s - compare_s))

    # Online: the same stream drained through periodic watermark
    # flushes (the incremental suffix-only path).  Only the flush calls
    # are timed, their spans summed, as the e2e layer tracer does; the
    # simulation driving them is not.
    class TimedFlush(OnlineVectorStrobeDetector):
        flush_s = 0.0

        def flush(self) -> None:
            start = time.perf_counter()
            try:
                super().flush()
            finally:
                self.flush_s += time.perf_counter() - start

    for m in (1000, 5000, 20000):
        records = synth_records(m)
        sim = Simulator()
        det = TimedFlush(sim, phi, initials, delta=0.15, check_period=0.5)
        det.start()
        for r in records:
            sim.schedule_at(r.true_time, lambda r=r: det.feed(r))
        sim.run(until=float(m) + 5.0)
        det.stop()
        detections = det.finalize()
        row("online_vector_strobe", m, "flush", det.flush_s,
            detections=len(detections))

    save_bench_json(
        "detector_phases", rows,
        meta={"n_processes": 4, "race_frac": 0.3, "seed": 0},
    )
    assert all(r["wall_s"] is not None and r["wall_s"] >= 0 for r in rows)


def test_sweep_replications(save_bench_json):
    """Replicated detection counts via the repro.sweep runner, exported
    as ``BENCH_detector_throughput_sweep.json``.  Rows are deterministic
    (per-task ``substream_seed``); wall times come from the runner's
    obs registry, not the rows."""
    from repro.obs import MetricsRegistry
    from repro.sweep import SweepRunner, expand_matrix
    from repro.sweep.points import MATRICES

    registry = MetricsRegistry()
    tasks = expand_matrix(MATRICES["detector_throughput"], master_seed=0)
    rows = SweepRunner(workers=1, registry=registry).run(tasks).rows
    assert [r["index"] for r in rows] == list(range(len(tasks)))
    assert all("error" not in r for r in rows)
    # Same (detector, m, seed) coordinates -> same counts and labels.
    again = SweepRunner(workers=1).run(tasks).rows
    assert [r["result"] for r in again] == [r["result"] for r in rows]
    save_bench_json(
        "detector_throughput_sweep",
        [{"params": r["params"], "seed": r["seed"], **r["result"]} for r in rows],
        meta={"matrix": "detector_throughput", "master_seed": 0},
        registry=registry,
    )
