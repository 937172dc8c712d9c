"""The serve WAL's one append handle: every record durable before
``ingest`` returns, the handle released by ``finalize``/``close`` (and
by the CLI on every exit), and reopened by a later ``ingest``."""

import json
import os
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.recover import WalServer, export_record_stream
from repro.recover.wal import WalError
from repro.replay import RunManifest, code_digest

MANIFEST = RunManifest(
    scenario="hall", seed=2, duration=15.0, delta=0.2,
    clock_family="vector_strobe", code_digest=code_digest(),
)
SCALAR = RunManifest(
    scenario="hall", seed=2, duration=15.0, delta=0.2,
    clock_family="scalar_strobe", code_digest=code_digest(),
)


@pytest.fixture(scope="module")
def stream():
    return export_record_stream(MANIFEST)


@pytest.fixture(scope="module")
def expected(stream, tmp_path_factory):
    """detections.jsonl of an uninterrupted serve of ``stream``."""
    directory = tmp_path_factory.mktemp("full") / "serve"
    with WalServer(directory, manifest=MANIFEST, checkpoint_every=8) as server:
        for spec in stream:
            server.ingest(spec)
        server.finalize()
    return (directory / "detections.jsonl").read_bytes()


def _open_fds_to(path: Path) -> list[str]:
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd on this platform")
    target = os.path.realpath(path)
    out = []
    for fd in os.listdir(fd_dir):
        try:
            if os.readlink(fd_dir / fd) == target:
                out.append(fd)
        except OSError:
            pass                      # the listing's own fd, already closed
    return out


def test_finalize_and_close_release_the_wal_handle(tmp_path, stream):
    server = WalServer(tmp_path / "a", manifest=MANIFEST, checkpoint_every=8)
    wal = tmp_path / "a" / "wal.jsonl"
    for spec in stream[:5]:
        server.ingest(spec)
    assert len(_open_fds_to(wal)) == 1            # one handle, held
    server.finalize()
    assert _open_fds_to(wal) == []

    with WalServer(tmp_path / "b", manifest=MANIFEST) as server:
        server.ingest(stream[0])
        server.close()
        assert _open_fds_to(tmp_path / "b" / "wal.jsonl") == []
        server.close()                            # idempotent
    server.ingest(stream[1])                      # reopened after the with
    server.close()
    assert _open_fds_to(tmp_path / "b" / "wal.jsonl") == []


def _serve_cli(argv):
    """``main(argv)``'s exit code; fails if a file handle was left for
    the garbage collector to close (a ResourceWarning)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = main(argv)
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked, [str(w.message) for w in leaked]
    return rc


@pytest.mark.parametrize("finalize", [False, True])
def test_cli_serve_releases_the_wal_handle(tmp_path, stream, finalize):
    """``cmd_serve`` closes the handle on the exit-0 and exit-2 paths."""
    good = tmp_path / "good.jsonl"
    good.write_text("".join(json.dumps(s) + "\n" for s in stream[:6]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(s) + "\n" for s in stream[:3])
                   + json.dumps({**stream[3], "pid": 99}) + "\n")
    argv = ["serve", "--wal", str(tmp_path / "s"), "--scenario", "hall",
            "--seed", "2", "--duration", "15", "--checkpoint-every", "4"]
    wal = tmp_path / "s" / "wal.jsonl"
    assert _serve_cli([*argv, "--in", str(bad)]) == 2
    assert _open_fds_to(wal) == []
    reopen = ["serve", "--wal", str(tmp_path / "s"), "--in", str(good)]
    if not finalize:
        reopen.append("--no-finalize")
    assert _serve_cli(reopen) == 0
    assert _open_fds_to(wal) == []
    assert len(wal.read_text().splitlines()) == 6


def test_close_then_ingest_resumes_byte_identical(tmp_path, stream, expected):
    directory = tmp_path / "resume"
    server = WalServer(directory, manifest=MANIFEST, checkpoint_every=8)
    third = len(stream) // 3
    for spec in stream[:third]:
        server.ingest(spec)
    server.close()
    for spec in stream[third:2 * third]:
        server.ingest(spec)                       # reopens the handle
    server.close()
    server.close()
    for spec in stream[2 * third:]:
        server.ingest(spec)
    server.finalize()
    assert (directory / "detections.jsonl").read_bytes() == expected
    assert len((directory / "wal.jsonl").read_text().splitlines()) == len(stream)


def test_every_record_is_fsynced_and_visible_before_ingest_returns(
        tmp_path, stream, monkeypatch):
    """One WAL fsync per accepted ingest, none for a refused one, and
    at each fsync a fresh reader already sees the new line."""
    directory = tmp_path / "spy"
    server = WalServer(directory, manifest=MANIFEST, checkpoint_every=4)
    wal = directory / "wal.jsonl"
    seen: list[int] = []
    real_fsync = os.fsync

    def spy(fd):
        real_fsync(fd)
        if wal.exists() and os.path.samestat(os.fstat(fd), os.stat(wal)):
            with open(wal, encoding="utf-8") as fresh:
                lines = fresh.read().splitlines()
            assert len(lines) == server.ingested_records + 1
            json.loads(lines[-1])
            seen.append(len(lines))

    monkeypatch.setattr(os, "fsync", spy)
    accepted = 0
    for i, spec in enumerate(stream[:20]):
        if i % 5 == 4:
            with pytest.raises(WalError):
                server.ingest({**spec, "t": -1.0})
        server.ingest(spec)
        accepted += 1
        assert seen == list(range(1, accepted + 1))
    server.finalize()
    assert seen == list(range(1, accepted + 1))


def test_torn_tail_then_more_ingests_keeps_every_line(tmp_path, stream):
    n, k = 10, 7
    directory = tmp_path / "torn"
    with WalServer(directory, manifest=MANIFEST, checkpoint_every=4) as server:
        for spec in stream[:n]:
            server.ingest(spec)
    with open(directory / "wal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"t": 3.25, "pid": 0, "se')    # kill -9 mid-append

    with WalServer(directory) as server:
        assert server.ingested_records == n
        for spec in stream[n:n + k]:
            server.ingest(spec)
    lines = (directory / "wal.jsonl").read_text().split("\n")
    assert lines[-1] == ""
    assert [json.loads(line) for line in lines[:-1]] == stream[:n + k]


@pytest.mark.parametrize("manifest,corrupt", [
    (SCALAR, lambda s: {**s, "strobe_scalar": [None, 0]}),
    (SCALAR, lambda s: {**s, "strobe_scalar": [1.5, 0]}),
    (SCALAR, lambda s: {**s, "strobe_scalar": "ab"}),
    (MANIFEST, lambda s: {**s, "lamport": [1, "x"]}),
    (MANIFEST, lambda s: {**s, "physical": 10 ** 400}),
    (MANIFEST, lambda s: {**s, "physical": "abc"}),
    (MANIFEST, lambda s: {**s, "t": 10 ** 400}),
], ids=["scalar-none", "scalar-float", "scalar-str", "lamport-str",
        "physical-huge-int", "physical-str", "t-huge-int"])
def test_malformed_stamp_or_number_is_refused(tmp_path, manifest, corrupt):
    """Scalar stamps decode only with integral components, and a number
    too large for a float is refused like any other malformed field,
    before the WAL append."""
    specs = export_record_stream(manifest)
    with WalServer(tmp_path / "s", manifest=manifest) as server:
        for spec in specs[:5]:
            server.ingest(spec)
        wal = (tmp_path / "s" / "wal.jsonl").read_bytes()
        with pytest.raises(WalError, match="malformed record"):
            server.ingest(corrupt(specs[5]))
        assert (tmp_path / "s" / "wal.jsonl").read_bytes() == wal
        for spec in specs[5:]:
            server.ingest(spec)
        server.finalize()
