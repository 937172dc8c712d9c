"""Record-stream codec and the WAL-checkpointed streaming server."""

import json

import pytest

from repro.cli import main
from repro.recover import WalServer, export_record_stream, wal
from repro.recover.stream import record_from_spec, record_to_spec, write_record_stream
from repro.recover.wal import WalError
from repro.replay import RunManifest, code_digest

MANIFEST = RunManifest(
    scenario="hall", seed=2, duration=15.0, delta=0.2,
    clock_family="vector_strobe", code_digest=code_digest(),
)


@pytest.fixture(scope="module")
def stream():
    return export_record_stream(MANIFEST)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def test_codec_roundtrip_exact(stream):
    assert stream, "expected a non-empty record stream"
    for spec in stream:
        arrival, record = record_from_spec(spec)
        again = record_to_spec(record, arrival=arrival)
        assert again == spec


def test_codec_keeps_tuple_values():
    spec = dict(
        t=1.0, pid=0, seq=1, var="pos", true_time=0.5,
        value={"__tuple__": [1, {"__tuple__": [2, 3]}]},
    )
    _, record = record_from_spec(spec)
    assert record.value == (1, (2, 3))
    assert record_to_spec(record, arrival=1.0)["value"] == spec["value"]


def test_write_record_stream_header(tmp_path, stream):
    path = tmp_path / "hall.stream.jsonl"
    n = write_record_stream(path, MANIFEST)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "meta"
    assert header["n_records"] == n == len(lines) - 1 == len(stream)
    assert [json.loads(ln) for ln in lines[1:]] == stream


# ---------------------------------------------------------------------------
# WAL server
# ---------------------------------------------------------------------------

def _serve_all(directory, stream, **kw):
    server = WalServer(directory, manifest=MANIFEST, **kw)
    for spec in stream:
        server.ingest(spec)
    server.finalize()
    return server


def test_uninterrupted_serve_emits_detections(tmp_path, stream):
    server = _serve_all(tmp_path / "served", stream, checkpoint_every=8)
    status = server.status()
    assert status["ingested"] == len(stream)
    assert status["finalized"] is True
    assert status["emitted"] == status["detections"] > 0
    lines = (tmp_path / "served" / "detections.jsonl").read_text().splitlines()
    assert len(lines) == status["emitted"]


def test_crash_and_reopen_is_byte_identical(tmp_path, stream):
    _serve_all(tmp_path / "full", stream, checkpoint_every=8)
    expected = (tmp_path / "full" / "detections.jsonl").read_bytes()

    half = len(stream) // 2
    crashed = WalServer(tmp_path / "crash", manifest=MANIFEST, checkpoint_every=8)
    for spec in stream[:half]:
        crashed.ingest(spec)
    del crashed  # the "crash": no finalize, no final checkpoint

    server = WalServer(tmp_path / "crash")
    assert server.ingested_records == half
    for spec in stream[half:]:
        server.ingest(spec)
    server.finalize()
    assert (tmp_path / "crash" / "detections.jsonl").read_bytes() == expected


def test_torn_wal_tail_is_truncated(tmp_path, stream):
    directory = tmp_path / "torn"
    crashed = WalServer(directory, manifest=MANIFEST, checkpoint_every=4)
    for spec in stream[:10]:
        crashed.ingest(spec)
    del crashed
    with open(directory / "wal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"t": 3.25, "pid": 0, "se')  # kill -9 mid-append

    server = WalServer(directory)
    assert server.ingested_records == 10     # torn line dropped
    # And the file itself was repaired in place:
    lines = (directory / "wal.jsonl").read_text().splitlines()
    assert len(lines) == 10
    json.loads(lines[-1])


class _Crash(Exception):
    pass


def test_detections_beyond_checkpoint_are_regenerated(tmp_path, stream, monkeypatch):
    """A crash between a checkpoint's detection append and its
    checkpoint.json replace leaves detection lines the checkpoint does
    not count: the reopen truncates them and regenerates them byte for
    byte from the WAL."""
    _serve_all(tmp_path / "full", stream, checkpoint_every=8)
    expected = (tmp_path / "full" / "detections.jsonl").read_bytes()

    directory = tmp_path / "regen"
    detections = directory / "detections.jsonl"

    def on_disk():
        return len(detections.read_text().splitlines()) if detections.exists() else 0

    def counted():
        ckpt = directory / "checkpoint.json"
        return json.loads(ckpt.read_text())["emitted"] if ckpt.exists() else 0

    write = wal.atomic_write_text

    def crash_after_append(path, text):
        if on_disk() > counted():
            raise _Crash
        return write(path, text)

    server = WalServer(directory, manifest=MANIFEST, checkpoint_every=8)
    monkeypatch.setattr(wal, "atomic_write_text", crash_after_append)
    with pytest.raises(_Crash):
        for spec in stream:
            server.ingest(spec)
    monkeypatch.undo()
    done = server.ingested_records
    del server
    assert on_disk() > counted()

    server = WalServer(directory)
    assert server.ingested_records == done
    assert on_disk() == server.status()["emitted"]
    for spec in stream[done:]:
        server.ingest(spec)
    server.finalize()
    assert detections.read_bytes() == expected


def test_finalized_directory_reopens_finalized(tmp_path, stream):
    directory = tmp_path / "fin"
    _serve_all(directory, stream, checkpoint_every=8)
    expected = (directory / "detections.jsonl").read_bytes()
    server = WalServer(directory)
    status = server.status()
    assert status["finalized"] is True
    assert status["ingested"] == len(stream)
    assert status["emitted"] == status["detections"] > 0
    with pytest.raises(WalError, match="finalized"):
        server.ingest(stream[0])
    server.finalize()
    assert (directory / "detections.jsonl").read_bytes() == expected


@pytest.mark.parametrize("tamper", [
    lambda c: {**c, "digest": "0" * 32},
    lambda c: {**c, "emitted": c["emitted"] - 1, "finalized": False},
], ids=["digest", "finalized-flag"])
def test_tampered_checkpoint_is_refused(tmp_path, stream, tamper):
    """The reopen re-feeds the checkpointed WAL prefix and requires the
    detector's frontier digest to equal the one checkpoint.json holds."""
    directory = tmp_path / "tampered"
    _serve_all(directory, stream, checkpoint_every=8)
    ckpt = json.loads((directory / "checkpoint.json").read_text())
    (directory / "checkpoint.json").write_text(
        json.dumps(tamper(ckpt), sort_keys=True) + "\n"
    )
    with pytest.raises(WalError, match="checkpoint digest"):
        WalServer(directory)


def test_older_serve_format_is_refused(tmp_path, stream, capsys):
    directory = tmp_path / "v1"
    _serve_all(directory, stream[:8], checkpoint_every=4)
    cfg = json.loads((directory / "serve.json").read_text())
    assert cfg["format_version"] == wal.SERVE_FORMAT_VERSION == 2
    cfg["format_version"] = 1
    (directory / "serve.json").write_text(json.dumps(cfg, sort_keys=True) + "\n")
    with pytest.raises(WalError, match="unsupported serve format 1"):
        WalServer(directory)
    assert main(["serve", "--wal", str(directory)]) == 2
    err = capsys.readouterr().err
    assert "unsupported serve format 1" in err and err.count("\n") == 1


def test_checkpoints_render_each_detection_once(tmp_path, stream, monkeypatch):
    rendered = []
    line = wal._detection_line

    def counting(detection, emit_time):
        rendered.append(detection.trigger.key())
        return line(detection, emit_time)

    monkeypatch.setattr(wal, "_detection_line", counting)
    server = _serve_all(tmp_path / "once", stream, checkpoint_every=2)
    keys = [d.trigger.key() for d, _ in server.detector.emissions]
    assert keys and rendered == keys


def test_wal_below_checkpoint_is_refused(tmp_path, stream):
    directory = tmp_path / "below"
    _serve_all(directory, stream, checkpoint_every=4)
    (directory / "wal.jsonl").write_text("")  # lose the log, keep the claim
    with pytest.raises(WalError, match="truncated below"):
        WalServer(directory)


def test_corrupt_checkpoint_is_refused(tmp_path, stream):
    directory = tmp_path / "corrupt"
    _serve_all(directory, stream, checkpoint_every=4)
    (directory / "checkpoint.json").write_text("{ nope")
    with pytest.raises(WalError, match="corrupt checkpoint"):
        WalServer(directory)


@pytest.mark.parametrize("edit", [
    lambda c: {k: v for k, v in c.items() if k != "digest"},
    lambda c: {**c, "ingested": "48"},
    lambda c: [c],
    lambda c: {**c, "finalized": "yes"},
    lambda c: {**c, "ingested": -3},
], ids=["no-digest", "str-ingested", "not-an-object", "str-finalized",
        "negative-ingested"])
def test_malformed_checkpoint_is_refused(tmp_path, stream, edit):
    directory = tmp_path / "malformed"
    _serve_all(directory, stream, checkpoint_every=4)
    ckpt = json.loads((directory / "checkpoint.json").read_text())
    (directory / "checkpoint.json").write_text(json.dumps(edit(ckpt)) + "\n")
    with pytest.raises(WalError, match="corrupt checkpoint"):
        WalServer(directory)


def test_create_requires_servable_family(tmp_path):
    with pytest.raises(WalError, match="not.*streamable"):
        WalServer(
            tmp_path / "x",
            manifest=MANIFEST.with_(clock_family="physical"),
        )


def test_reopen_requires_existing_directory(tmp_path):
    with pytest.raises(WalError, match="no serve.json"):
        WalServer(tmp_path / "missing")


def test_double_create_is_refused(tmp_path, stream):
    directory = tmp_path / "dup"
    _serve_all(directory, stream, checkpoint_every=64)
    with pytest.raises(WalError, match="already exists"):
        WalServer(directory, manifest=MANIFEST)


def test_ingest_after_finalize_is_refused(tmp_path, stream):
    server = _serve_all(tmp_path / "fin", stream, checkpoint_every=64)
    with pytest.raises(WalError, match="finalized"):
        server.ingest(stream[0])


@pytest.mark.parametrize("corrupt", [
    lambda s: {**s, "strobe_vector": [-1, 0, 0, 0, 0]},
    lambda s: {**s, "strobe_vector": [1.5, 0, 0, 0, 0]},
    lambda s: {**s, "pid": None},
    lambda s: {**s, "seq": "x"},
    lambda s: {k: v for k, v in s.items() if k != "var"},
    lambda s: {**s, "strobe_vector": [*s["strobe_vector"], 0]},
    lambda s: {**s, "pid": 99},
    lambda s: {**s, "t": float("inf")},
    lambda s: {**s, "t": 1e300},
    lambda s: {**s, "t": float("nan")},
    lambda s: {**s, "t": -1.0},
    lambda s: {**s, "pid": 1.5},
    lambda s: {**s, "seq": 1.9},
    lambda s: {**s, "value": "abc"},
    lambda s: {**s, "value": [1, 2]},
    lambda s: {**s, "value": {"a": 1}},
    lambda s: {**s, "value": None},
    lambda s: {**s, "value": 10 ** 400},
], ids=["negative", "float", "none", "str", "missing", "width", "pid",
        "t-inf", "t-huge", "t-nan", "t-negative", "pid-float", "seq-float",
        "value-str", "value-list", "value-dict", "value-none", "value-huge-int"])
def test_malformed_record_leaves_wal_untouched(tmp_path, stream, corrupt):
    """A spec that does not decode raises WalError before the durable
    append: the WAL keeps only good records, the directory reopens, and
    the resumed stream finishes byte-identical to an uninterrupted one."""
    _serve_all(tmp_path / "full", stream, checkpoint_every=8)
    expected = (tmp_path / "full" / "detections.jsonl").read_bytes()

    directory = tmp_path / "bad"
    server = WalServer(directory, manifest=MANIFEST, checkpoint_every=8)
    for spec in stream[:5]:
        server.ingest(spec)
    wal = (directory / "wal.jsonl").read_bytes()
    with pytest.raises(WalError, match="malformed record"):
        server.ingest(corrupt(stream[5]))
    assert (directory / "wal.jsonl").read_bytes() == wal
    assert server.ingested_records == 5
    del server

    server = WalServer(directory)
    assert server.ingested_records == 5
    for spec in stream[5:]:
        server.ingest(spec)
    server.finalize()
    assert (directory / "detections.jsonl").read_bytes() == expected


@pytest.mark.parametrize("family,stamp", [
    ("vector_strobe", "strobe_vector"), ("scalar_strobe", "strobe_scalar"),
])
def test_record_without_family_stamp_is_refused(tmp_path, family, stamp):
    """A record that lacks the served family's strobe stamp raises
    WalError before the durable append, so the WAL keeps only good
    records and the directory reopens and finishes like an
    uninterrupted serve."""
    manifest = RunManifest(
        scenario="hall", seed=0, duration=12.0, delta=0.2,
        clock_family=family, code_digest=code_digest(),
    )
    specs = export_record_stream(manifest)
    full = WalServer(tmp_path / "full", manifest=manifest, checkpoint_every=8)
    for spec in specs:
        full.ingest(spec)
    full.finalize()
    expected = (tmp_path / "full" / "detections.jsonl").read_bytes()

    directory = tmp_path / "bad"
    server = WalServer(directory, manifest=manifest, checkpoint_every=8)
    for spec in specs[:6]:
        server.ingest(spec)
    wal = (directory / "wal.jsonl").read_bytes()
    with pytest.raises(WalError, match=f"lacks a {stamp} stamp"):
        server.ingest({k: v for k, v in specs[6].items() if k != stamp})
    assert (directory / "wal.jsonl").read_bytes() == wal
    del server

    server = WalServer(directory)
    assert server.ingested_records == 6
    for spec in specs[6:]:
        server.ingest(spec)
    server.finalize()
    assert (directory / "detections.jsonl").read_bytes() == expected
