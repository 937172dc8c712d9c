"""Checkpoint capture / save / load / restore and its refusal modes."""

import json

import pytest

from repro.recover import Checkpoint, CheckpointError, PartialRun
from repro.replay import ReplayEngine, RunManifest, code_digest

MANIFEST = RunManifest(
    scenario="hall", seed=3, duration=6.0, delta=0.2,
    clock_family="vector_strobe", code_digest=code_digest(),
)


def _baseline():
    return ReplayEngine().execute(MANIFEST)


def test_partial_run_composes_to_full_run():
    baseline = _baseline()
    run = PartialRun(MANIFEST)
    assert run.step_events(40) == 40
    result = run.finish()
    assert result.trace_lines == baseline.trace_lines
    assert len(result.detections) == len(baseline.detections)


def test_capture_save_load_restore_roundtrip(tmp_path):
    baseline = _baseline()
    run = PartialRun(MANIFEST)
    run.step_to(50)
    ckpt = Checkpoint.capture(run)
    path = ckpt.save(tmp_path / "run.ckpt")
    del run

    loaded = Checkpoint.load(path)
    assert loaded.processed_events == 50
    assert loaded.digest == ckpt.digest
    resumed = loaded.restore()
    assert resumed.processed_events == 50
    result = resumed.finish()
    assert result.trace_lines == baseline.trace_lines


def test_checkpoint_refuses_finished_run():
    run = PartialRun(MANIFEST)
    run.finish()
    with pytest.raises(CheckpointError, match="finished"):
        Checkpoint.capture(run)


def test_step_to_past_end_is_an_error():
    run = PartialRun(MANIFEST)
    with pytest.raises(CheckpointError, match="ended at event"):
        run.step_to(10**9)


def test_step_backwards_is_an_error():
    run = PartialRun(MANIFEST)
    run.step_to(30)
    with pytest.raises(CheckpointError, match="already past"):
        run.step_to(10)


def test_tampered_state_is_refused(tmp_path):
    run = PartialRun(MANIFEST)
    run.step_to(25)
    payload = json.loads(Checkpoint.capture(run).to_json())
    payload["state"]["kernel"]["now"] += 1.0
    with pytest.raises(CheckpointError, match="digest does not match"):
        Checkpoint.from_json(json.dumps(payload))


def test_forged_digest_fails_restore_naming_section():
    """A self-consistent checkpoint whose state does not match a real
    re-execution must be refused at restore, naming the section."""
    run = PartialRun(MANIFEST)
    run.step_to(25)
    payload = json.loads(Checkpoint.capture(run).to_json())
    payload["state"]["kernel"]["now"] += 1.0
    from repro.recover import snapshot_digest

    payload["digest"] = snapshot_digest(payload["state"])
    forged = Checkpoint.from_json(json.dumps(payload))
    with pytest.raises(CheckpointError, match="'kernel'"):
        forged.restore()


def test_wrong_version_is_refused():
    run = PartialRun(MANIFEST)
    run.step_to(25)
    payload = json.loads(Checkpoint.capture(run).to_json())
    payload["version"] = 999
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_json(json.dumps(payload))


@pytest.mark.parametrize("field, value", [
    ("processed_events", 3.7), ("processed_events", -1), ("version", True),
    ("manifest", None), ("code_digest", 5),
])
def test_malformed_field_is_refused(field, value):
    """A fractional event count used to be truncated, and so resumed at
    another event than the one the file names."""
    run = PartialRun(MANIFEST)
    run.step_to(25)
    payload = json.loads(Checkpoint.capture(run).to_json())
    payload[field] = value
    with pytest.raises(CheckpointError, match=f"malformed checkpoint: '{field}'"):
        Checkpoint.from_json(json.dumps(payload))


def test_not_a_checkpoint_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("{\"kind\": \"something-else\"}\n")
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        Checkpoint.load(path)
    path.write_text("{ torn json\n")
    with pytest.raises(CheckpointError, match="corrupt JSON"):
        Checkpoint.load(path)


def test_missing_checkpoint_file(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        Checkpoint.load(tmp_path / "nope.ckpt")
