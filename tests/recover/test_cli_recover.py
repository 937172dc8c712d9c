"""CLI surface of the recovery layer: ``repro recover`` / ``repro
serve`` / pooled sweeps — including a real ``kill -9``-grade crash
in a subprocess."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def test_recover_certify_single_family(capsys):
    rc = main([
        "recover", "certify", "hall", "--duration", "5",
        "--family", "scalar_strobe", "--every", "60",
        "--max-boundaries", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar_strobe" in out
    assert "kill-anywhere: CERTIFIED" in out


def test_recover_certify_json_report(capsys, tmp_path):
    out_path = tmp_path / "certify.json"
    rc = main([
        "recover", "certify", "hall", "--duration", "4",
        "--family", "physical", "--every", "80", "--max-boundaries", "1",
        "--json", "--out", str(out_path),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(out_path.read_text())
    assert report["certified"] is True
    assert report["clock_family"] == "physical"


def test_stream_then_serve_roundtrip(capsys, tmp_path):
    stream = tmp_path / "hall.stream.jsonl"
    rc = main([
        "recover", "stream", "hall", "--duration", "12",
        "--out", str(stream),
    ])
    assert rc == 0
    served = tmp_path / "served"
    rc = main([
        "serve", "--wal", str(served), "--scenario", "hall",
        "--duration", "12", "--checkpoint-every", "8",
        "--in", str(stream),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finalized=True" in out
    assert (served / "wal.jsonl").exists()
    assert (served / "checkpoint.json").exists()


def test_finalized_serve_reopens(capsys, tmp_path):
    """A served-to-completion directory reopens finalized, also when
    ``finalize`` itself emitted detections (the 16 s stream does)."""
    stream = tmp_path / "hall.stream.jsonl"
    assert main(["recover", "stream", "hall", "--duration", "16",
                 "--out", str(stream)]) == 0
    served = tmp_path / "served"
    assert main(["serve", "--wal", str(served), "--scenario", "hall",
                 "--duration", "16", "--checkpoint-every", "4",
                 "--in", str(stream)]) == 0
    first = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["serve", "--wal", str(served)]) == 0
    again = capsys.readouterr().out.strip().splitlines()[-1]
    assert again == first
    assert "finalized=True" in again


def test_serve_reopen_without_config_fails(capsys, tmp_path):
    rc = main(["serve", "--wal", str(tmp_path / "missing")])
    assert rc == 2
    assert "no serve.json" in capsys.readouterr().err


@pytest.mark.slow
def test_serve_survives_hard_kill_byte_identically(tmp_path):
    """Crash the serve subprocess mid-stream with os._exit (the CLI's
    --kill-after), reopen, and require byte-identical detections."""
    env = _cli_env()
    stream = tmp_path / "s.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro", "recover", "stream", "hall",
         "--duration", "12", "--out", str(stream)],
        check=True, env=env, capture_output=True,
    )
    n_records = sum(
        1 for line in stream.read_text().splitlines()
        if json.loads(line).get("kind") != "meta"
    )
    assert n_records > 4

    def serve(directory, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--wal", str(directory),
             "--scenario", "hall", "--duration", "12",
             "--checkpoint-every", "4", "--in", str(stream), *extra],
            env=env, capture_output=True, text=True,
        )

    full = serve(tmp_path / "full")
    assert full.returncode == 0, full.stderr

    crashed = serve(tmp_path / "crash", "--kill-after", str(n_records // 2))
    assert crashed.returncode == 42       # the simulated crash fired

    # Rerunning the same command recovers and completes the stream.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--wal", str(tmp_path / "crash"), "--in", str(stream)],
        env=env, capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "recovered:" in resumed.stdout
    assert (
        (tmp_path / "crash" / "detections.jsonl").read_bytes()
        == (tmp_path / "full" / "detections.jsonl").read_bytes()
    )


def test_sweep_streams_rows_and_drops_partial_sidecar(tmp_path, monkeypatch):
    """A pooled sweep streams every row to the partial sidecar, then
    removes it once --out is written."""
    import repro.util.atomicio as atomicio

    appends = []
    real_append = atomicio.durable_append_lines

    def spy(path, lines):
        appends.append(str(path))
        real_append(path, lines)

    monkeypatch.setattr(atomicio, "durable_append_lines", spy)
    out = tmp_path / "matrix.jsonl"
    rc = main([
        "sweep", "detector_throughput", "--reps", "1",
        "--workers", "2", "--out", str(out),
    ])
    assert rc == 0
    header, *rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert header["kind"] == "meta"
    assert appends == [f"{out}.partial.jsonl"] * len(rows)
    assert not (tmp_path / "matrix.jsonl.partial.jsonl").exists()


@pytest.mark.parametrize("command", ["sweep", "replay"])
@pytest.mark.parametrize("flag,value", [
    ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"),
    ("--retries", "-1"),
])
def test_bad_timeout_or_retries_exit_2(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    if command == "sweep":
        argv = ["sweep", "sync_cost"]
    else:
        trace = tmp_path / "office.trace"
        assert main(["trace", "record", "smart_office", "--duration", "10",
                     "--out", str(trace)]) == 0
        argv = ["replay", "matrix", str(trace),
                "--clock-families", "physical"]
        capsys.readouterr()
    rc = main(argv + [flag, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert flag in err
    assert not out.exists()


def test_sigint_drains_then_resume_is_byte_identical(tmp_path, monkeypatch):
    """SIGINT after the first durable row: exit 130 with the finished
    rows on disk, and --resume completes them to a fresh run's bytes."""
    import signal

    import repro.util.atomicio as atomicio

    fresh = tmp_path / "fresh.jsonl"
    argv = ["sweep", "sync_cost", "--reps", "1", "--workers", "2"]
    assert main(argv + ["--out", str(fresh)]) == 0

    real_append = atomicio.durable_append_lines
    sent = []

    def append_then_interrupt(path, lines):
        real_append(path, lines)
        if not sent:
            sent.append(path)
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(atomicio, "durable_append_lines", append_then_interrupt)
    out = tmp_path / "drained.jsonl"
    assert main(argv + ["--out", str(out)]) == 130
    monkeypatch.setattr(atomicio, "durable_append_lines", real_append)
    drained = out.read_text().splitlines()
    assert 2 <= len(drained) < len(fresh.read_text().splitlines())

    assert main(argv + ["--out", str(out), "--resume"]) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.slow
def test_sweep_survives_sigkill_of_the_parent(tmp_path):
    """kill -9 the parent once a row is durable; --resume completes
    the sweep byte-identically to an uninterrupted run."""
    import signal
    import time

    env = _cli_env()
    base = [sys.executable, "-m", "repro", "sweep", "fault_resilience",
            "--workers", "2"]
    fresh, killed = tmp_path / "fresh.jsonl", tmp_path / "killed.jsonl"
    partial = tmp_path / "killed.jsonl.partial.jsonl"
    subprocess.run(base + ["--out", str(fresh)], env=env, check=True,
                   capture_output=True)
    proc = subprocess.Popen(base + ["--out", str(killed)], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        if partial.exists() and partial.read_text().strip():
            proc.send_signal(signal.SIGKILL)
            break
        time.sleep(0.01)
    proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL, "the sweep beat the kill"
    assert not killed.exists()
    done = subprocess.run(base + ["--out", str(killed), "--resume"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "already in" in done.stdout
    assert killed.read_bytes() == fresh.read_bytes()
