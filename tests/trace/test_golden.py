"""Cross-commit trace golden: recorded bytes pinned as digests.

The twin-record ``cmp`` checks compare two runs of the *same* code, so a
recorder, kernel or transport refactor that changes what is recorded
would still pass them.  These digests were taken before such a refactor
and pin the trace body (every line after the header, whose meta carries
the code digest) and the detection log of three runs: a fault-free
``hall``, ``smart_office`` as the replay smoke records it, and ``hall``
under the default fault plan, which reaches the partition, crash and
burst drop branches.  A deliberate trace-format change updates them in
the same commit, with a migration note.
"""

import hashlib
import json

import pytest

from repro.faults import default_plan
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden(name):
    spec, body_digest, detections_digest = GOLDEN[name]
    if spec.get("plan") == "default":
        spec = {**spec, "plan": default_plan()}
    result = ReplayEngine().execute(RunManifest(**spec))
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
