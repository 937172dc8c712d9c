"""Pinned workload sizes and the benchmark declaration.

The sizes below are the benchmark's contract with later changes: a
change that claims a gain is measured at exactly these sizes on both
commits, so they change only in a change that re-measures the baseline.
Metric names and units live in ``BENCHMARK.json`` at the repository
root; this module reads them so the harness can never emit a metric the
declaration does not list.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCES_PATH = BENCH_DIR / "references.json"
#: Scratch space for serve directories and harness inputs; always
#: inside the checkout, removed when a measurement ends.
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("hall_online", "stream_offline", "serve_wal")

#: One rep of each workload.  Durations are simulated seconds.  Each rep
#: is cut into segments of at most ~0.1 s (one hall run, one record
#: stream, ``lap_every`` ingest calls): short segments are what let a
#: segment's fastest time escape the host's slow stretches.
SIZES = {
    "hall_online": {"duration": 50.0, "runs": 8},
    "stream_offline": {"records": 5000, "streams": 4},
    "serve_wal": {"duration": 1000.0, "records": 2000, "checkpoint_every": 64,
                  "lap_every": 100},
}

#: Sizes small enough for the tier-1 test to run every workload in a
#: few seconds; same code paths, same checks (serve checkpoints twice
#: mid-stream before the final one).
TOY_SIZES = {
    "hall_online": {"duration": 20.0, "runs": 2},
    "stream_offline": {"records": 300, "streams": 2},
    "serve_wal": {"duration": 20.0, "records": 40, "checkpoint_every": 16,
                  "lap_every": 16},
}

#: Fresh subprocesses that each time imports plus first construction;
#: the value is their median.
SETUP_PROBES = 5
#: Timed reps per measurement, however short ``--seconds`` is.
MIN_REPS = 3
#: Wall-clock cap on one ``--workload`` invocation, children included.
ONE_RUN_BUDGET_S = 170.0


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


def declared(kind: str) -> dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metric declarations by name."""
    return {m["name"]: m for m in load_spec()[kind]}
