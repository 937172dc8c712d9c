"""ReplayEngine: bit-identity for every clock family, loud failures."""

import json

import pytest

from repro.replay import CLOCK_FAMILIES, ReplayEngine, ReplayError
from repro.trace import read_trace, write_trace

from tests.replay.conftest import make_manifest


# ---------------------------------------------------------------------------
# Bit-identity across all five clock families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", CLOCK_FAMILIES)
def test_verify_bit_identical_per_family(family, tmp_path):
    manifest = make_manifest(clock_family=family, duration=40.0)
    result = ReplayEngine().execute(manifest)
    path = write_trace(tmp_path / f"{family}.trace", result.recorder)
    report = ReplayEngine().verify(path)
    assert report["identical"] is True
    assert report["clock_family"] == family
    assert report["recorded_lines"] == report["replayed_lines"]
    assert report["code_digest_match"] is True
    assert "divergence" not in report


def test_execute_embeds_manifest_and_detections(tmp_path):
    manifest = make_manifest(duration=40.0)
    result = ReplayEngine().execute(manifest)
    path = write_trace(tmp_path / "m.trace", result.recorder)
    trace = read_trace(path)
    assert trace.manifest_spec == manifest.to_spec()
    assert trace.meta["clock_family"] == "vector_strobe"
    assert len(result.detections) == len(trace.detections)
    assert result.detections                      # non-vacuous run


def test_manifest_of_round_trips(office_trace):
    manifest = ReplayEngine().manifest_of(office_trace)
    assert manifest == make_manifest()


# ---------------------------------------------------------------------------
# Divergence is reported loudly, with causal context
# ---------------------------------------------------------------------------

def test_tampered_event_line_diverges_with_causal_context(office_trace, tmp_path):
    lines = office_trace.read_text().splitlines()
    idx, row = next(
        (i, json.loads(line)) for i, line in enumerate(lines)
        if json.loads(line).get("kind") == "n"
    )
    row["t"] += 1.0                               # forge a sense time
    lines[idx] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    forged = tmp_path / "forged.trace"
    forged.write_text("\n".join(lines) + "\n")

    report = ReplayEngine().verify(forged)
    assert report["identical"] is False
    div = report["divergence"]
    assert div["lineno"] == idx + 1
    assert div["kind"] == "structural"
    assert div["recorded"] == lines[idx]
    assert div["recorded"] != div["replayed"]
    assert isinstance(div["causal_context"], list)
    assert div["causal_context"], "event divergence must carry causal history"
    assert all({"gseq", "pid", "kind", "t"} <= set(e) for e in div["causal_context"])


def test_swapped_same_time_events_are_a_tie_break(office_trace, tmp_path):
    """Two event lines at one t swap places and their ordinal fields
    renumber (what a run-dependent tie-break order would record): the
    divergence is labelled a tie-break, not a structural change."""
    lines = office_trace.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    idx = next(
        i for i in range(1, len(rows) - 1)
        if rows[i].get("gseq") is not None
        and rows[i + 1].get("gseq") is not None
        and rows[i].get("t") == rows[i + 1].get("t")
    )
    a, b = rows[idx], rows[idx + 1]
    for key in ("gseq", "mid"):
        if key in a and key in b:
            a[key], b[key] = b[key], a[key]
    lines[idx:idx + 2] = [
        json.dumps(row, sort_keys=True, separators=(",", ":")) for row in (b, a)
    ]
    swapped = tmp_path / "swapped.trace"
    swapped.write_text("\n".join(lines) + "\n")

    div = ReplayEngine().verify(swapped)["divergence"]
    assert div["lineno"] == idx + 1
    assert div["kind"] == "tie-break"


def test_code_digest_mismatch_is_flagged_not_fatal(office_trace, tmp_path):
    lines = office_trace.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["manifest"]["code_digest"] = "0" * 16
    lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    doctored = tmp_path / "doctored.trace"
    doctored.write_text("\n".join(lines) + "\n")

    report = ReplayEngine().verify(doctored)
    assert report["code_digest_match"] is False
    # The digest is advisory: replay re-embeds the file's own manifest,
    # so the run still verifies bit-identically under today's code.
    assert report["identical"] is True
    assert report["code_digest_recorded"] == "0" * 16


# ---------------------------------------------------------------------------
# Refusals: truncated history, missing manifest
# ---------------------------------------------------------------------------

def test_truncated_trace_is_refused(tmp_path):
    manifest = make_manifest(duration=40.0, capacity=8)
    result = ReplayEngine().execute(manifest)
    assert any(result.recorder.evicted.values())
    path = write_trace(tmp_path / "tiny.trace", result.recorder)
    assert read_trace(path).truncated is True
    with pytest.raises(ReplayError, match="truncated"):
        ReplayEngine().manifest_of(path)
    with pytest.raises(ReplayError, match="capacity"):
        ReplayEngine().verify(path)


def test_manifest_less_trace_is_refused(office_trace, tmp_path):
    lines = office_trace.read_text().splitlines()
    meta = json.loads(lines[0])
    del meta["manifest"]
    lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    bare = tmp_path / "bare.trace"
    bare.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match="no replay manifest"):
        ReplayEngine().manifest_of(bare)


def test_malformed_manifest_is_refused(office_trace, tmp_path):
    lines = office_trace.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["manifest"] = {"scenario": "smart_office"}   # missing seed etc.
    lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match="malformed replay manifest"):
        ReplayEngine().manifest_of(broken)


def test_unknown_profile_is_a_replay_error():
    manifest = make_manifest()
    forged = manifest.with_(scenario="atlantis")
    with pytest.raises(ReplayError, match="atlantis"):
        ReplayEngine().execute(forged)


@pytest.mark.parametrize("field, value", [
    ("delta", float("nan")), ("seed", 3.9),
])
def test_cli_verify_refuses_a_doctored_manifest_in_one_line(
    office_trace, tmp_path, capsys, field, value
):
    """A NaN Δ used to die in numpy and a float seed to replay another
    seed; both are refused at decode with exit 2."""
    from repro.cli import main

    lines = office_trace.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["manifest"][field] = value
    doctored = tmp_path / "doctored.trace"
    doctored.write_text("\n".join([json.dumps(meta, sort_keys=True), *lines[1:]]) + "\n")
    assert main(["replay", "verify", str(doctored)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(field) in err, err
