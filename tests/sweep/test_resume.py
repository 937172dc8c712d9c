"""`repro sweep --resume`: kill-and-resume with byte-identical output."""

import json

import pytest

from repro.cli import main
from repro.sweep import (
    SweepError,
    SweepTask,
    coordinate_digest,
    partition_resumable,
    read_completed_rows,
)


# ---------------------------------------------------------------------------
# coordinate_digest
# ---------------------------------------------------------------------------

def test_digest_is_pure_and_order_insensitive():
    a = coordinate_digest("m:f", {"x": 1, "y": 2}, 7)
    b = coordinate_digest("m:f", {"y": 2, "x": 1}, 7)
    assert a == b
    assert len(a) == 16
    assert int(a, 16) >= 0


def test_digest_separates_every_coordinate():
    base = coordinate_digest("m:f", {"x": 1}, 7)
    assert coordinate_digest("m:g", {"x": 1}, 7) != base
    assert coordinate_digest("m:f", {"x": 2}, 7) != base
    assert coordinate_digest("m:f", {"x": 1}, 8) != base


def test_digest_of_row_matches_digest_of_task():
    task = SweepTask(index=4, ref="m.mod:f", params={"x": 1}, seed=9)
    row = {"kind": "row", "index": 4, "ref": "m.mod:f",
           "params": {"x": 1}, "seed": 9, "result": {"ok": 1}}
    assert coordinate_digest(task.ref, task.params, task.seed) == \
        coordinate_digest(row["ref"], row["params"], row["seed"])


# ---------------------------------------------------------------------------
# read_completed_rows
# ---------------------------------------------------------------------------

def _row(index, *, seed=0, result=True, error=None):
    row = {"kind": "row", "index": index, "ref": "m.mod:f",
           "params": {"x": index}, "seed": seed}
    if result:
        row["result"] = {"value": index}
    if error is not None:
        row["error"] = error
    return row


def test_missing_file_yields_empty(tmp_path):
    assert read_completed_rows(tmp_path / "never_written.jsonl") == {}


def test_reads_only_successful_rows(tmp_path):
    lines = [
        json.dumps({"kind": "meta", "matrix": "m"}),
        json.dumps(_row(0)),
        json.dumps(_row(1, result=False)),            # no result yet
        json.dumps(_row(2, error="Boom: died")),      # failed: re-run it
        json.dumps({"kind": "note", "text": "hi"}),   # foreign kind
        json.dumps(_row(3)),
    ]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    completed = read_completed_rows(path)
    indices = sorted(r["index"] for r in completed.values())
    assert indices == [0, 3]


def test_truncated_tail_line_is_skipped(tmp_path):
    good = json.dumps(_row(0))
    cut = json.dumps(_row(1))[:25]    # process killed mid-write
    path = tmp_path / "killed.jsonl"
    path.write_text(good + "\n" + cut)
    completed = read_completed_rows(path)
    assert [r["index"] for r in completed.values()] == [0]


@pytest.mark.parametrize("field, value", [("seed", "x"), ("params", [1]), ("ref", None)])
def test_malformed_row_is_refused_naming_file_and_line(tmp_path, capsys, field, value):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"kind": "meta"}) + "\n"
                    + json.dumps({**_row(0), field: value}) + "\n")
    with pytest.raises(SweepError, match=f"s.jsonl:2: .*'{field}'"):
        read_completed_rows(path)
    capsys.readouterr()
    assert main(["sweep", "detector_throughput", "--reps", "1", "--workers", "1",
                 "--out", str(path), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "s.jsonl:2:" in err, err


# ---------------------------------------------------------------------------
# partition_resumable
# ---------------------------------------------------------------------------

def test_partition_splits_and_reindexes():
    tasks = [SweepTask(index=i, ref="m.mod:f", params={"x": i}, seed=i)
             for i in range(3)]
    done = _row(0)
    done["index"] = 99    # stale index from a reordered earlier matrix
    completed = {coordinate_digest("m.mod:f", {"x": 0}, 0): done}
    todo, cached = partition_resumable(tasks, completed)
    assert [t.index for t in todo] == [1, 2]
    assert len(cached) == 1
    assert cached[0]["index"] == 0     # re-stamped with the current index
    assert cached[0] is not done       # the caller's row is not mutated
    assert done["index"] == 99


# ---------------------------------------------------------------------------
# Kill-and-resume end to end: bytes equal a fresh full run
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_kill_and_resume_is_byte_identical(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    argv = ["sweep", "detector_throughput", "--reps", "1",
            "--workers", "1"]
    assert main(argv + ["--out", str(full)]) == 0

    # Simulate a kill: keep the header + two complete rows, then chop
    # the third row mid-line.
    lines = full.read_text().splitlines()
    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40])
    capsys.readouterr()

    assert main(argv + ["--out", str(partial), "--resume"]) == 0
    console = capsys.readouterr().out
    assert "resume: 2 point(s) already in" in console
    assert "4 to run" in console
    assert "2 cached" in console
    assert partial.read_bytes() == full.read_bytes()


def test_resume_without_prior_file_runs_everything(tmp_path, capsys):
    out = tmp_path / "fresh.jsonl"
    rc = main(["sweep", "detector_throughput", "--reps", "1",
               "--workers", "1", "--out", str(out), "--resume"])
    assert rc == 0
    console = capsys.readouterr().out
    assert "resume:" not in console
    assert "0 cached" in console
    header, rows = json.loads(out.read_text().splitlines()[0]), \
        out.read_text().splitlines()[1:]
    assert header["n_tasks"] == len(rows) == 6
