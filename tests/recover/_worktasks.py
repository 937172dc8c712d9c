"""Spawn-importable task functions for the supervisor tests.

These must live in a real module (not a test body): ``SweepTask`` refs
are resolved by import inside the spawned worker process.
"""

from __future__ import annotations

import os
import signal
import time


def ok(x: int, seed: int) -> dict:
    """A healthy task: pure function of its coordinates."""
    return {"x": x, "seed": seed, "y": x * 10 + seed % 10}


def boom(x: int, seed: int) -> dict:
    """A deterministic in-task failure (must NOT be retried)."""
    raise ValueError(f"boom x={x} seed={seed}")


def hang(x: int, seed: int) -> dict:  # pragma: no cover - killed by deadline
    """An infrastructure failure: never returns."""
    del x, seed
    while True:
        time.sleep(0.5)


def die(x: int, seed: int) -> dict:  # pragma: no cover - killed below
    """A worker death: the process vanishes without a result."""
    del x, seed
    os.kill(os.getpid(), signal.SIGKILL)
    return {}


def pid(x: int, seed: int) -> dict:
    """Which process ran the task (persistent-worker tests only: a pid
    in a row breaks byte-identity across runs by design)."""
    del seed
    return {"x": x, "pid": os.getpid()}


def nap(x: int, seed: int) -> dict:
    """A healthy task that takes a moment (drain tests)."""
    time.sleep(0.2)
    return ok(x, seed)


def chained(x: int, seed: int, n: int, gate: str, registry) -> dict:
    """Finish only after task ``x + 1`` has (so a pool that runs all
    ``n`` at once completes them in reverse index order), then report
    order-sensitive metrics: a last-writer gauge and a float sum."""
    deadline = time.monotonic() + 30.0
    while x + 1 < n and not os.path.exists(os.path.join(gate, str(x + 1))):
        if time.monotonic() > deadline:
            raise TimeoutError(f"task {x + 1} never finished")
        time.sleep(0.01)
    registry.gauge("chained.last").set(x)
    registry.histogram("chained.h").observe(0.1 * (x + 1))
    open(os.path.join(gate, str(x)), "w").close()
    return {"x": x, "seed": seed}
