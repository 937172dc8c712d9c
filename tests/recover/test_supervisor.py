"""Supervision in the one worker pool: timeouts, deaths, retries,
quarantine, drain, persistent workers, and row parity with the inline
reference path."""

import json
import os
import signal

import pytest

from repro.obs import MetricsRegistry
from repro.sweep import (
    SupervisePolicy,
    SweepRunner,
    expand_matrix,
    sweep_jsonl_lines,
)
from repro.sweep.points import MATRICES
from repro.sweep.tasks import SweepTask

REF_OK = "tests.recover._worktasks:ok"
REF_BOOM = "tests.recover._worktasks:boom"
REF_HANG = "tests.recover._worktasks:hang"
REF_DIE = "tests.recover._worktasks:die"
REF_PID = "tests.recover._worktasks:pid"
REF_NAP = "tests.recover._worktasks:nap"
REF_CHAINED = "tests.recover._worktasks:chained"


def _tasks(ref, n=3):
    return [
        SweepTask(index=i, ref=ref, params={"x": i + 1}, seed=10 + i)
        for i in range(n)
    ]


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisePolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisePolicy(timeout_s=float("nan"))
    with pytest.raises(ValueError):
        SupervisePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisePolicy(backoff_base_s=-1.0)
    default = SupervisePolicy()
    assert default.timeout_s is None and default.max_retries == 2


def test_backoff_is_deterministic_and_bounded():
    policy = SupervisePolicy(backoff_base_s=0.05, backoff_cap_s=0.4)
    values = [policy.backoff_s(7, 3, a) for a in range(6)]
    assert values == [policy.backoff_s(7, 3, a) for a in range(6)]
    assert all(0.0 <= v <= 0.4 for v in values)
    # A different task index jitters differently.
    assert values != [policy.backoff_s(7, 4, a) for a in range(6)]


def test_healthy_tasks_match_unsupervised_rows():
    tasks = _tasks(REF_OK, n=4)
    inline = SweepRunner(workers=1).run(tasks)
    report = SweepRunner(workers=2).run(tasks)
    assert report.status == inline.status == "ok"
    assert report.rows == inline.rows
    assert report.retries == report.timeouts == report.worker_deaths == 0


@pytest.mark.slow
@pytest.mark.parametrize("timeout_s", [None, 30.0])
def test_rows_byte_identical_across_workers_and_timeouts(timeout_s):
    spec = MATRICES["sync_cost"]
    tasks = expand_matrix(spec, master_seed=0, reps=1)
    kw = dict(matrix=spec.name, master_seed=0, reps=1)
    reference = sweep_jsonl_lines(SweepRunner(workers=1).run(tasks).rows, **kw)
    for workers in (1, 2, 3):
        runner = SweepRunner(
            workers=workers, policy=SupervisePolicy(timeout_s=timeout_s)
        )
        assert sweep_jsonl_lines(runner.run(tasks).rows, **kw) == reference


def test_in_task_exception_is_an_error_row_not_a_retry():
    report = SweepRunner(workers=2).run(_tasks(REF_BOOM, n=2))
    assert report.status == "ok"          # a row per task, just errored
    assert len(report.rows) == 2
    assert all("error" in r for r in report.rows)
    assert all(r["error_detail"]["type"] == "ValueError" for r in report.rows)
    assert report.retries == 0
    assert report.quarantined == []


def test_hang_times_out_retries_then_quarantines(tmp_path):
    # The deadline must outlive the worker's spawn import so only the
    # genuine hang trips it; a hung task is killed regardless.
    sidecar = tmp_path / "quarantine.jsonl"
    registry = MetricsRegistry()
    pool = SweepRunner(
        workers=1,
        policy=SupervisePolicy(
            timeout_s=4.0, max_retries=1, backoff_base_s=0.01,
        ),
        registry=registry,
        quarantine_path=sidecar,
    )
    report = pool.run(
        [SweepTask(index=0, ref=REF_HANG, params={"x": 2}, seed=2)]
    )
    assert report.status == "degraded"
    assert report.rows == []
    assert report.timeouts == 2           # initial attempt + 1 retry
    assert report.retries == 1
    [q] = report.quarantined
    assert q["index"] == 0 and q["attempts"] == 2
    assert "timed out" in q["reason"]
    lines = [json.loads(ln) for ln in sidecar.read_text().splitlines()]
    assert lines == [q]
    assert registry.counter("supervisor.quarantined").value == 1


def test_worker_death_is_detected_and_quarantined(tmp_path):
    pool = SweepRunner(
        workers=2,
        policy=SupervisePolicy(max_retries=1, backoff_base_s=0.01),
        quarantine_path=tmp_path / "q.jsonl",
    )
    tasks = [
        SweepTask(index=0, ref=REF_DIE, params={"x": 1}, seed=1),
        SweepTask(index=1, ref=REF_OK, params={"x": 2}, seed=2),
    ]
    report = pool.run(tasks)
    assert report.status == "degraded"
    assert [r["index"] for r in report.rows] == [1]
    assert report.worker_deaths == 2
    [q] = report.quarantined
    assert q["index"] == 0
    assert "worker died" in q["reason"]


def test_report_spec_shape():
    report = SweepRunner(workers=1).run(_tasks(REF_OK, n=1))
    spec = report.to_spec()
    assert spec["status"] == "ok"
    assert spec["rows"] == 1
    assert spec["quarantined"] == []
    assert set(spec) == {
        "status", "rows", "quarantined", "retries", "timeouts",
        "worker_deaths", "skipped",
    }


def test_on_row_streams_completions():
    for workers in (1, 2):
        seen = []
        report = SweepRunner(workers=workers, on_row=seen.append).run(
            _tasks(REF_OK, n=3)
        )
        assert sorted(r["index"] for r in seen) == [0, 1, 2]
        assert report.rows == sorted(seen, key=lambda r: r["index"])


def test_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        SweepRunner(workers=0)


# ---------------------------------------------------------------------------
# Persistent workers
# ---------------------------------------------------------------------------

def test_healthy_run_uses_at_most_workers_processes():
    report = SweepRunner(workers=2).run(_tasks(REF_PID, n=6))
    pids = {r["result"]["pid"] for r in report.rows}
    assert len(report.rows) == 6
    assert 1 <= len(pids) <= 2
    assert os.getpid() not in pids


@pytest.mark.parametrize("ref,timeout_s", [(REF_HANG, 4.0), (REF_DIE, 30.0)])
def test_respawned_worker_runs_later_tasks(ref, timeout_s):
    # One slot: the first task takes its worker down, so a fresh worker
    # must pick up -- and keep -- every later task.
    tasks = [SweepTask(index=0, ref=ref, params={"x": 0}, seed=0)] + [
        SweepTask(index=i, ref=REF_PID, params={"x": i}, seed=i)
        for i in (1, 2, 3)
    ]
    report = SweepRunner(
        workers=1, policy=SupervisePolicy(timeout_s=timeout_s, max_retries=0),
    ).run(tasks)
    assert report.status == "degraded"
    assert report.timeouts + report.worker_deaths == 1
    assert [r["index"] for r in report.rows] == [1, 2, 3]
    assert len({r["result"]["pid"] for r in report.rows}) == 1


def test_metrics_merge_in_task_index_order(tmp_path):
    # Task x finishes only after task x + 1, so three workers complete
    # them in reverse; the registry must still equal the inline run's.
    tasks = [
        SweepTask(index=x, ref=REF_CHAINED,
                  params={"x": x, "n": 3, "gate": str(tmp_path)}, seed=x)
        for x in range(3)
    ]
    order = []
    pooled = MetricsRegistry()
    SweepRunner(
        workers=3, policy=SupervisePolicy(timeout_s=30.0), registry=pooled,
        on_row=lambda row: order.append(row["index"]),
    ).run(tasks)
    assert order == [2, 1, 0]
    inline = MetricsRegistry()     # every gate file exists now: no waits
    SweepRunner(workers=1, registry=inline).run(tasks)

    def snap(registry):            # task wall times are host readings
        out = registry.snapshot()
        del out["sweep.task_wall_s"]
        return out

    assert snap(pooled) == snap(inline)
    assert snap(pooled)["chained.last"]["value"] == 2


# ---------------------------------------------------------------------------
# SIGINT/SIGTERM drain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_drains_in_flight_tasks_and_skips_the_rest(workers):
    fired = []

    def interrupt_once(row):
        if not fired:
            fired.append(row["index"])
            os.kill(os.getpid(), signal.SIGINT)

    before = signal.getsignal(signal.SIGINT)
    report = SweepRunner(workers=workers, on_row=interrupt_once).run(
        _tasks(REF_NAP, n=5)
    )
    assert signal.getsignal(signal.SIGINT) is before
    assert report.status == "interrupted"
    assert report.quarantined == []
    # Inline: only task 0 ran.  Two workers: tasks 0 and 1 were in
    # flight when the first row landed, and both finish.
    assert [r["index"] for r in report.rows] == list(range(workers))
    assert report.skipped == 5 - workers


def test_second_signal_aborts():
    def interrupt_twice(row):
        for _ in range(2):  # the loop lets the first handler run
            os.kill(os.getpid(), signal.SIGINT)

    before = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        SweepRunner(workers=1, on_row=interrupt_twice).run(_tasks(REF_OK))
    assert signal.getsignal(signal.SIGINT) is before
