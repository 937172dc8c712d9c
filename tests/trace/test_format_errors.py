"""Loader hardening: typed TraceFormatError with file:line context,
the truncated flag, and the v2 world-plane stream."""

import json

import pytest

from repro.trace import (
    SUPPORTED_VERSIONS,
    TraceFormatError,
    read_trace,
    write_trace,
)

from tests.trace.conftest import record_hall


def _write(tmp_path, lines):
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    return path


META = ('{"kind": "meta", "format": "repro.trace", "format_version": 2, '
        '"capacity": 64, "truncated": false}')


def test_format_error_is_a_value_error():
    assert issubclass(TraceFormatError, ValueError)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read trace"):
        read_trace(tmp_path / "never_recorded.trace")


def test_missing_file_exits_2_everywhere(tmp_path, capsys):
    from repro.cli import main

    gone = str(tmp_path / "gone.trace")
    for argv in (["trace", "report", gone], ["trace", "export", gone],
                 ["replay", "verify", gone]):
        assert main(argv) == 2, argv
        assert "gone.trace" in capsys.readouterr().err


def test_malformed_json_line_names_file_and_line(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "summary"}', "{broken"])
    with pytest.raises(TraceFormatError, match=r"t\.trace:3: malformed JSON"):
        read_trace(path)
    try:
        read_trace(path)
    except TraceFormatError as exc:
        assert exc.lineno == 3
        assert exc.path.endswith("t.trace")


def test_non_object_line_is_rejected(tmp_path):
    path = _write(tmp_path, [META, "[1, 2, 3]"])
    with pytest.raises(TraceFormatError, match=r":2: .*not a JSON object"):
        read_trace(path)


def test_missing_header_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "summary"}'])
    with pytest.raises(TraceFormatError, match="missing meta header"):
        read_trace(path)


def test_foreign_format_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "meta", "format": "other.tool", '
                             '"format_version": 2}'])
    with pytest.raises(TraceFormatError, match="missing meta header"):
        read_trace(path)


def test_unsupported_version_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "meta", "format": "repro.trace", '
                             '"format_version": 99}'])
    with pytest.raises(TraceFormatError, match="format_version"):
        read_trace(path)
    assert 99 not in SUPPORTED_VERSIONS


def test_unknown_line_kind_is_rejected(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "telegram"}'])
    with pytest.raises(TraceFormatError, match=r":2: unknown trace line kind"):
        read_trace(path)


def test_malformed_event_line_is_rejected(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "n", "pid": 0}'])
    with pytest.raises(TraceFormatError, match=r":2: malformed 'n' event"):
        read_trace(path)


def test_world_line_missing_keys_is_rejected(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "w", "t": 1.0, "gseq": 3}'])
    with pytest.raises(TraceFormatError, match=r"world line is missing"):
        read_trace(path)


def test_v1_files_still_load(tmp_path):
    path = _write(tmp_path, [
        '{"kind": "meta", "format": "repro.trace", "format_version": 1, '
        '"capacity": 64}',
        '{"kind": "summary", "detections": 0, "evicted": {"0": 0}}',
    ])
    trace = read_trace(path)
    assert trace.world == []
    assert trace.truncated is False
    assert trace.manifest_spec is None


# ---------------------------------------------------------------------------
# The truncated flag
# ---------------------------------------------------------------------------

def test_truncated_flag_round_trips(tmp_path):
    _, _, rec = record_hall(seed=0, capacity=16, duration=30.0)
    assert any(rec.evicted.values())
    trace = read_trace(write_trace(tmp_path / "tiny.trace", rec))
    assert trace.meta["truncated"] is True
    assert trace.truncated is True


def test_untruncated_recording_reads_false(tmp_path):
    _, _, rec = record_hall(seed=0, duration=30.0)
    assert not any(rec.evicted.values())
    trace = read_trace(write_trace(tmp_path / "full.trace", rec))
    assert trace.meta["truncated"] is False
    assert trace.truncated is False


# ---------------------------------------------------------------------------
# World-plane lines (v2)
# ---------------------------------------------------------------------------

def test_world_stream_round_trips_in_gseq_order(tmp_path):
    hall, _, rec = record_hall(seed=0, duration=30.0)
    assert rec.world_events, "hall run must produce world changes"
    path = write_trace(tmp_path / "w.trace", rec)
    trace = read_trace(path)
    assert len(trace.world) == len(rec.world_events)
    assert trace.summary["world"] == len(trace.world)
    assert trace.summary["world_opaque"] == 0
    gseqs = [w["gseq"] for w in trace.world]
    assert gseqs == sorted(gseqs)
    for w in trace.world:
        assert {"t", "obj", "attr", "value", "gseq"} <= set(w)
    # File body is interleaved by gseq across both planes.
    body_gseqs = [
        json.loads(line)["gseq"]
        for line in path.read_text().splitlines()
        if json.loads(line).get("kind") in
        ("c", "n", "a", "s", "r", "drop", "w")
    ]
    assert body_gseqs == sorted(body_gseqs)


def test_world_listener_fires_before_sensor_notification():
    from repro.sim.kernel import Simulator
    from repro.world.objects import WorldState

    sim = Simulator()
    world = WorldState(sim)
    world.create("door")
    order = []
    world.add_listener(lambda change: order.append(("tap", change.new)))
    world.subscribe(lambda change: order.append(("sensor", change.new)),
                    obj="door", attr="open")
    world.set_attribute("door", "open", True)
    assert order == [("tap", True), ("sensor", True)]


def test_opaque_world_values_are_wrapped_and_counted():
    from repro.sim.kernel import Simulator
    from repro.trace import FlightRecorder
    from repro.world.objects import WorldState

    sim = Simulator()
    world = WorldState(sim)
    world.create("box")
    rec = FlightRecorder(sim, capacity=64)
    world.add_listener(rec.record_world)
    world.set_attribute("box", "weird", {"not": "a scalar"})
    world.set_attribute("box", "fine", 3.5)
    assert rec.world_opaque == 1
    values = [w["value"] for w in rec.world_events]
    assert values[0][0] == "repr"
    assert values[1] == 3.5


# ---------------------------------------------------------------------------
# Field types of event lines: a wrong type is a format error, not a crash
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded_hall(tmp_path_factory):
    from repro.cli import main

    path = tmp_path_factory.mktemp("probe") / "hall.trace"
    assert main(["trace", "record", "hall", "--seed", "0", "--duration", "10",
                 "--out", str(path)]) == 0
    return path


def _with_event_field(src, dst, field, value):
    """Copy trace ``src`` to ``dst`` with ``field`` of its first event
    line set to ``value``; returns that line's 1-based number."""
    lines = src.read_text().splitlines()
    for i, line in enumerate(lines):
        row = json.loads(line)
        if row["kind"] in ("c", "n", "a", "s", "r", "drop"):
            row[field] = value
            lines[i] = json.dumps(row)
            dst.write_text("\n".join(lines) + "\n")
            return i + 1
    raise AssertionError("trace has no event line")


@pytest.mark.parametrize("field, value, command", [
    ("t", "abc", ["trace", "export", "--format", "perfetto"]),
    ("gseq", None, ["trace", "report"]),
    ("pid", "x", ["trace", "export", "--format", "perfetto"]),
])
def test_wrong_field_type_exits_2_with_one_line(
    recorded_hall, tmp_path, capsys, field, value, command
):
    from repro.cli import main

    path = tmp_path / "bad.trace"
    lineno = _with_event_field(recorded_hall, path, field, value)
    capsys.readouterr()
    rc = main([*command, str(path), *(["--out", str(tmp_path / "o.json")]
                                     if "export" in command else [])])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert f"bad.trace:{lineno}: malformed" in err and repr(field) in err


@pytest.mark.parametrize("field, value", [
    ("pid", True), ("pid", 1.0), ("gseq", "3"), ("t", float("nan")),
    ("t", float("inf")), ("t", -1.0), ("digest", 7), ("mid", 1.5),
    ("src", "0"), ("dst", [1]), ("size", False), ("stamps", [1, 2]),
    ("key", [1]), ("msg_kind", 3), ("drop", "gremlins"),
])
def test_event_field_types_are_checked(recorded_hall, tmp_path, field, value):
    path = tmp_path / "bad.trace"
    lineno = _with_event_field(recorded_hall, path, field, value)
    with pytest.raises(TraceFormatError, match=f":{lineno}: malformed") as err:
        read_trace(path)
    assert repr(field) in str(err.value)


@pytest.mark.parametrize("field", ["stamps", "key", "mid", "src", "dst",
                                   "msg_kind", "size", "drop"])
def test_optional_event_fields_may_be_null(recorded_hall, tmp_path, field):
    path = tmp_path / "null.trace"
    _with_event_field(recorded_hall, path, field, None)
    assert read_trace(path).events
