"""Tests for repro.sweep: task descriptors, matrix expansion, the
runner's determinism contract, and the JSONL round-trip."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.sweep import (
    MatrixSpec,
    SweepError,
    SweepRunner,
    SweepTask,
    execute_task,
    expand_matrix,
    read_sweep_jsonl,
    resolve_ref,
    sweep_jsonl_lines,
    write_sweep_jsonl,
)

#: A tiny real matrix: 2 points x 2 reps over the detector point.
SMALL = MatrixSpec(
    name="small",
    ref="repro.sweep.points:detector_throughput",
    grid=(("detector", ("vector_strobe", "scalar_strobe")),),
    reps=2,
    base_params={"m": 40},
)


# ---------------------------------------------------------------------------
# Tasks and refs
# ---------------------------------------------------------------------------

def test_task_ref_validation():
    with pytest.raises(SweepError):
        SweepTask(index=0, ref="no-colon", params={}, seed=0)
    with pytest.raises(SweepError):
        SweepTask(index=-1, ref="m:f", params={}, seed=0)


def test_resolve_ref_roundtrip():
    from repro.sweep.points import detector_throughput

    assert resolve_ref("repro.sweep.points:detector_throughput") is detector_throughput
    with pytest.raises(SweepError):
        resolve_ref("repro.sweep.points:no_such_function")
    with pytest.raises(SweepError):
        resolve_ref("repro.no_such_module:fn")
    with pytest.raises(SweepError):
        resolve_ref("repro.sweep.points:MATRICES")   # not callable


def test_execute_task_isolates_errors():
    bad = SweepTask(
        index=3, ref="repro.sweep.points:detector_throughput",
        params={"detector": "nope", "m": 10}, seed=1,
    )
    out = execute_task(bad)
    assert out["row"]["index"] == 3
    assert "error" in out["row"]
    assert "nope" in out["row"]["error"]
    assert out["wall_s"] >= 0.0


def test_execute_task_error_detail_carries_traceback():
    bad = SweepTask(
        index=0, ref="repro.sweep.points:detector_throughput",
        params={"detector": "nope", "m": 10}, seed=1,
    )
    row = execute_task(bad)["row"]
    detail = row["error_detail"]
    assert detail["type"] == row["error"].split(":")[0]
    assert detail["message"] and detail["message"] in row["error"]
    assert isinstance(detail["traceback"], list) and detail["traceback"]
    # The tail names a real frame (file + line), not just the message.
    assert any("File " in line for line in detail["traceback"])
    # And it is JSON-serializable (rows go straight into the JSONL).
    import json as _json

    _json.dumps(detail)


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------

def test_expand_matrix_indices_and_seeds():
    tasks = expand_matrix(SMALL, master_seed=0)
    assert [t.index for t in tasks] == list(range(4))
    assert all(t.params["m"] == 40 for t in tasks)
    # Seeds: all distinct, stable across expansions, and a pure
    # function of the task's coordinates (not of grid size).
    seeds = [t.seed for t in tasks]
    assert len(set(seeds)) == len(seeds)
    assert [t.seed for t in expand_matrix(SMALL, master_seed=0)] == seeds
    assert [t.seed for t in expand_matrix(SMALL, master_seed=1)] != seeds


def test_expand_matrix_seed_is_coordinate_pure():
    """Adding replications must not perturb existing points' seeds."""
    two = expand_matrix(SMALL, master_seed=0, reps=2)
    three = expand_matrix(SMALL, master_seed=0, reps=3)
    by_coord_two = {(t.params["detector"], t.index % 2): t.seed for t in two}
    for t in three:
        rep = t.index % 3
        if rep < 2:
            assert t.seed == by_coord_two[(t.params["detector"], rep)]


def test_matrix_spec_validation():
    with pytest.raises(SweepError):
        MatrixSpec(name="x", ref="m:f", grid=(("a", (1,)), ("a", (2,))))
    with pytest.raises(SweepError):
        MatrixSpec(name="x", ref="m:f", grid=(), reps=0)


# ---------------------------------------------------------------------------
# Runner determinism
# ---------------------------------------------------------------------------

def test_inline_run_is_deterministic_and_ordered():
    tasks = expand_matrix(SMALL, master_seed=0)
    registry = MetricsRegistry()
    rows = SweepRunner(workers=1, registry=registry).run(tasks).rows
    assert [r["index"] for r in rows] == list(range(4))
    assert all("error" not in r for r in rows)
    assert registry.counter("sweep.tasks_submitted").value == 4
    assert registry.counter("sweep.tasks_completed").value == 4
    assert registry.counter("sweep.tasks_failed").value == 0
    assert registry.histogram("sweep.task_wall_s").count == 4
    again = SweepRunner(workers=1).run(tasks).rows
    assert again == rows


@pytest.mark.slow
def test_pool_run_matches_inline_bytes():
    """The headline contract: a spawn pool produces byte-identical
    JSONL to the inline path."""
    tasks = expand_matrix(SMALL, master_seed=0)
    inline = SweepRunner(workers=1).run(tasks).rows
    pooled = SweepRunner(workers=2).run(tasks).rows
    kw = dict(matrix=SMALL.name, master_seed=0, reps=SMALL.reps)
    assert sweep_jsonl_lines(inline, **kw) == sweep_jsonl_lines(pooled, **kw)


def test_failed_tasks_are_counted_not_fatal():
    tasks = [
        SweepTask(index=0, ref="repro.sweep.points:detector_throughput",
                  params={"detector": "vector_strobe", "m": 20}, seed=5),
        SweepTask(index=1, ref="repro.sweep.points:detector_throughput",
                  params={"detector": "bogus", "m": 20}, seed=6),
    ]
    registry = MetricsRegistry()
    rows = SweepRunner(workers=1, registry=registry).run(tasks).rows
    assert "result" in rows[0] and "error" in rows[1]
    assert registry.counter("sweep.tasks_completed").value == 1
    assert registry.counter("sweep.tasks_failed").value == 1


def test_runner_rejects_bad_workers():
    with pytest.raises(ValueError):
        SweepRunner(workers=0)


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    tasks = expand_matrix(SMALL, master_seed=0)
    rows = SweepRunner(workers=1).run(tasks).rows
    path = write_sweep_jsonl(
        tmp_path / "sweep.jsonl", rows, matrix="small", master_seed=0, reps=2,
    )
    header, back = read_sweep_jsonl(path)
    assert header["matrix"] == "small"
    assert header["master_seed"] == 0
    assert header["n_tasks"] == 4
    assert back == [json.loads(json.dumps(r)) for r in rows]


def test_jsonl_has_no_wall_times(tmp_path):
    tasks = expand_matrix(SMALL, master_seed=0)
    rows = SweepRunner(workers=1).run(tasks).rows
    text = "\n".join(sweep_jsonl_lines(rows, matrix="small", master_seed=0))
    assert "wall" not in text
    assert "t_wall" not in text


def test_read_rejects_non_sweep_files(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "row"}\n')
    with pytest.raises(ValueError):
        read_sweep_jsonl(bad)


# ---------------------------------------------------------------------------
# Named matrices + CLI
# ---------------------------------------------------------------------------

def test_named_matrices_have_enough_replications():
    from repro.sweep.points import MATRICES

    for spec in MATRICES.values():
        assert spec.n_points * spec.reps >= 16, spec.name


def test_cli_list_and_run(tmp_path, capsys):
    from repro.cli import main

    assert main(["sweep", "--list"]) == 0
    assert "detector_throughput" in capsys.readouterr().out
    out = tmp_path / "run.jsonl"
    assert main(["sweep", "detector_throughput", "--reps", "1",
                 "--out", str(out)]) == 0
    header, rows = read_sweep_jsonl(out)
    assert header["n_tasks"] == len(rows) == 6
    assert main(["sweep", "not_a_matrix"]) == 2
