"""Satellite: worker-side metric snapshots fan into the parent registry.

Task functions that accept a ``registry`` kwarg get a worker-local
MetricsRegistry; its snapshot ships home with the result and merges
into the runner's registry in task-index order.  Rows (the JSONL
payload) stay byte-identical whether metrics ride along or not.
"""

from repro.obs.registry import MetricsRegistry
from repro.sweep.runner import SweepRunner, sweep_jsonl_lines
from repro.sweep.tasks import SweepTask, _accepts_registry, execute_task

REF = "repro.sweep.points:strobe_cost"


def _tasks(n=2):
    return [
        SweepTask(index=i, ref=REF, params={"vector": True}, seed=i)
        for i in range(n)
    ]


def test_accepts_registry_detection():
    from repro.sweep.points import periodic_sync_cost, strobe_cost

    assert _accepts_registry(strobe_cost)
    assert not _accepts_registry(periodic_sync_cost)
    assert not _accepts_registry(len)


def test_execute_task_ships_metrics_outside_the_row():
    out = execute_task(_tasks(1)[0])
    assert "metrics" in out
    assert "metrics" not in out["row"]
    assert "wall_s" not in out["row"]
    assert "net.sent" in out["metrics"]
    assert "clock.strobe.emitted" in out["metrics"]


def test_worker_metrics_merge_into_parent_registry():
    reg = MetricsRegistry()
    rows = SweepRunner(workers=1, registry=reg).run(_tasks(2)).rows
    assert len(rows) == 2
    snap = reg.snapshot()
    assert snap["sweep.tasks_completed"]["value"] == 2
    # Worker-side network counters arrived and aggregated across tasks.
    per_task = execute_task(_tasks(1)[0])
    sent_one = per_task["metrics"]["net.sent"]["value"]
    assert snap["net.sent"]["value"] >= sent_one
    assert snap["net.sent"]["value"] > 0


def test_pool_workers_reach_the_same_registry_totals():
    reg1 = MetricsRegistry()
    rows1 = SweepRunner(workers=1, registry=reg1).run(_tasks(2)).rows
    reg2 = MetricsRegistry()
    rows2 = SweepRunner(workers=2, registry=reg2).run(_tasks(2)).rows
    assert rows1 == rows2
    s1 = {k: v["value"] for k, v in reg1.snapshot().items()
          if v["type"] == "counter"}
    s2 = {k: v["value"] for k, v in reg2.snapshot().items()
          if v["type"] == "counter"}
    assert s1 == s2


def test_rows_and_jsonl_unchanged_by_metrics_plumbing():
    tasks = _tasks(2)
    plain = SweepRunner(workers=1).run(tasks).rows
    with_reg = SweepRunner(workers=1, registry=MetricsRegistry()).run(tasks).rows
    assert plain == with_reg
    a = sweep_jsonl_lines(plain, matrix="m", master_seed=0)
    b = sweep_jsonl_lines(with_reg, matrix="m", master_seed=0)
    assert a == b
    for row in plain:
        assert "metrics" not in row and "wall_s" not in row


def test_task_without_registry_param_is_unaffected():
    task = SweepTask(
        index=0, ref="repro.sweep.points:periodic_sync_cost",
        params={"period": 30.0}, seed=0,
    )
    out = execute_task(task)
    assert "metrics" not in out
    assert "error" not in out["row"]


def test_explicit_registry_param_is_not_overridden():
    # A caller wiring its own registry through params keeps it: the
    # worker must not shadow it (and so ships no snapshot of its own).
    reg = MetricsRegistry()
    task = SweepTask(
        index=0, ref=REF, params={"vector": True, "registry": reg}, seed=0,
    )
    out = execute_task(task)
    assert "metrics" not in out
    assert reg.snapshot()["net.sent"]["value"] > 0
