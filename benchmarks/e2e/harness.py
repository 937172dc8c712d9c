"""Timed and traced reps of one workload, in the calling process.

Before each rep the harness calls ``gc.collect()`` and leaves the
collector on during the rep: a change that allocates less then shows
its gain, where a rep timed with GC off would hide it.  A rep that
raises is counted as failed (all its operations) and the run goes on.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
import traceback
from pathlib import Path

from benchmarks.e2e.config import MIN_REPS
from benchmarks.e2e.layers import Tracer
from benchmarks.e2e.workloads import DELTA, Rep


def _rep(workload, *, tracer: "Tracer | None" = None):
    """One checked rep: ``(segment walls, Rep)``; segments are the
    intervals between the workload's ``lap()`` calls.  A rep that
    raises is one segment with no operations."""
    data = workload.inputs()
    marks: list[float] = []

    def lap() -> None:
        marks.append(time.perf_counter())

    gc.collect()
    lap()
    try:
        if tracer is None:
            out = workload.run(data, lap)
        else:
            with tracer.root():
                out = workload.run(data, lap)
    except Exception:  # noqa: BLE001 -- a failed rep is counted, not fatal
        traceback.print_exc()
        wall = time.perf_counter() - marks[0]
        return [wall], Rep(ops=0, attempted=workload.attempted, failed=workload.attempted)
    lap()
    return [b - a for a, b in zip(marks, marks[1:])], workload.check(out)


def measure(workload, seconds: float, *, min_reps: int = MIN_REPS) -> dict:
    """An untimed warm-up, then timed reps until ``seconds`` have passed
    and at least ``min_reps`` ran.  The warm-up is checked and counted;
    ``segments`` and ``ops`` hold the reps that completed."""
    _, warm = _rep(workload)
    attempted, failed = warm.attempted, warm.failed
    segments: list[list[float]] = []
    ops: list[int] = []
    reps = 0
    start = time.perf_counter()
    while reps < min_reps or time.perf_counter() - start < seconds:
        walls, rep = _rep(workload)
        reps += 1
        if rep.ops:
            segments.append(walls)
            ops.append(rep.ops)
        attempted += rep.attempted
        failed += rep.failed
    return {"segments": segments, "ops": ops, "attempted": attempted,
            "failed": failed, "checks": workload.checks()}


def traced(workload, *, spans: "str | Path | None" = None) -> dict:
    """One traced rep after a traced warm-up; per-layer metrics of it."""
    tracer = Tracer(stability_wait=2.0 * DELTA)
    tracer.install()
    try:
        _, warm = _rep(workload, tracer=tracer)
        tracer.reset()
        walls, rep = _rep(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    wall = sum(walls)
    layers = tracer.metrics(wall)
    if spans is not None:
        tracer.dump(spans)
    return {"wall": wall, "layers": layers,
            "attempted": warm.attempted + rep.attempted,
            "failed": warm.failed + rep.failed, "checks": workload.checks()}


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}
