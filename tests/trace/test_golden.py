"""Cross-commit trace golden: recorded bytes pinned as digests.

The twin-record ``cmp`` checks compare two runs of the *same* code, so a
recorder, kernel or transport refactor that changes what is recorded
would still pass them.  These digests were taken before such a refactor
and pin the trace body (every line after the header, whose meta carries
the code digest) and the detection log of four runs: a fault-free
``hall``, ``smart_office`` as the replay smoke records it, and ``hall``
under the default fault plan, which reaches the partition, crash and
burst drop branches, once per online clock family (the scalar run
drops one late record).  A deliberate trace-format change updates them
in the same commit, with a migration note.

The online detectors' frontier snapshots after ``finalize`` are pinned
too: serve checkpoints digest them on disk, so their bytes are a format.
"""

import functools
import hashlib
import json

import pytest

from repro.faults import default_plan
from repro.recover.checkpoint import snapshot_digest
from repro.replay import ReplayEngine, RunManifest


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


GOLDEN = {
    "hall": (
        dict(scenario="hall", seed=0, duration=20.0, delta=0.2),
        "0b96db6d660096b3ee809e7ba8c6b1bd",
        "2cc15ec803402837cb9827a00de7269e",
    ),
    "smart_office": (
        dict(scenario="smart_office", seed=3, duration=60.0, delta=0.05),
        "f736b4240bc9fcb9ba9fdf15f3de92a8",
        "f99950a2eff6787366845a3be54955f9",
    ),
    "hall_faults": (
        dict(scenario="hall", seed=0, duration=140.0, delta=0.2, plan="default"),
        "08a870f51f33d454f966727df8eb6eca",
        "37e7f9fdc5de8946f7bfb210e3315b47",
    ),
    "hall_faults_scalar": (
        dict(scenario="hall", seed=0, duration=140.0, delta=0.2, plan="default",
             clock_family="scalar_strobe"),
        "3cf0d5679e6dc9fac80f0add830c3c2b",
        "cdca64c83425b48eb1d8e91b78632b7e",
    ),
}

#: Per GOLDEN run, the online detector's late-record count and
#: ``snapshot_digest({"frontier": frontier_snapshot()})`` after finalize.
FRONTIER = {
    "hall_faults": (0, "caa073acf843aa8db455714e78778ba7"),
    "hall_faults_scalar": (1, "b4a4cdd781b5fa877607b9b257fcb414"),
}


@functools.cache
def _execute(name):
    spec = GOLDEN[name][0]
    if spec.get("plan") == "default":
        spec = {**spec, "plan": default_plan()}
    return ReplayEngine().execute(RunManifest(**spec))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden(name):
    _, body_digest, detections_digest = GOLDEN[name]
    result = _execute(name)
    lines = result.trace_lines
    assert _digest("\n".join(lines[1:]).encode()) == body_digest
    detections = json.dumps(result.recorder.detections, sort_keys=True)
    assert _digest(detections.encode()) == detections_digest
    assert result.recorder.detections          # non-vacuous


def test_fault_golden_reaches_every_drop_branch():
    spec = {**GOLDEN["hall_faults"][0], "plan": default_plan()}
    result = ReplayEngine().execute(RunManifest(**spec))
    reasons = {e.drop for e in result.recorder.events() if e.kind == "drop"}
    assert {"partition", "crashed", "burst"} <= reasons


@pytest.mark.parametrize("name", sorted(FRONTIER))
def test_frontier_snapshot_matches_golden(name):
    late, digest = FRONTIER[name]
    detector = _execute(name).detector.detector
    assert detector.late_records == late
    assert snapshot_digest({"frontier": detector.frontier_snapshot()}) == digest
