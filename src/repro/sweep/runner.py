"""Process-parallel sweep execution with a determinism contract.

:class:`SweepRunner` runs a list of :class:`~repro.sweep.tasks.SweepTask`
descriptors either inline or on long-lived ``spawn``-context worker
processes, and merges results **in task-index order** regardless of
completion order.  Combined with per-task seeds derived from the task's
coordinates (not its schedule), this gives the contract the tests pin:

    the sweep JSONL is byte-identical for any worker count.

Consequences baked into the format:

* result rows carry no wall-clock readings — timings go to the parent's
  obs registry (``sweep.task_wall_s``) and never into the rows;
* rows are serialized with ``sort_keys=True`` so dict construction
  order cannot leak;
* the header line describes the matrix (name, master seed, task count)
  but not the execution (no worker count, no timestamps).

``spawn`` (not ``fork``) is used deliberately: workers re-import the
task's module and rebuild all state from ``(params, seed)``, so a sweep
can never silently depend on parent-process globals — the same
reasoning as the SIM002 lint rule, applied to processes.

The pool also supervises the host machine it runs on.  Each worker
holds one task at a time over a ``Pipe``, and the parent blocks in
:func:`multiprocessing.connection.wait` on the pipes, the worker
sentinels and a signal wake-up pipe:

* a task past its wall deadline (:attr:`SupervisePolicy.timeout_s`) is
  killed with its worker; a worker that exits without a result is a
  *worker death*; either way the slot gets a fresh worker;
* such infrastructure failures are retried up to ``max_retries`` times
  with *seeded deterministic* exponential backoff (a pure function of
  the runner seed, task index and attempt);
* a task that exhausts its retries is **quarantined**: recorded in the
  report and a sidecar JSONL, and the run completes ``degraded``
  instead of dying;
* completed rows stream through ``on_row`` as they finish (the CLI
  appends them durably, so a killed parent resumes from disk);
* SIGINT/SIGTERM drain the run: no new launches, in-flight tasks finish
  within ``drain_grace_s``, status ``interrupted``.  A second signal
  raises :class:`KeyboardInterrupt`.

In-task exceptions are *not* retried: ``execute_task`` converts them to
deterministic ``error`` rows, and a deterministic failure would fail
identically on every retry.

Everything wall-clock here (deadlines, backoff) supervises the host,
never model input, which is why those readings carry SIM001 waivers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.obs.registry import restore_snapshot
from repro.sim.rng import substream_seed
from repro.sweep.tasks import SweepError, SweepTask, execute_task
from repro.util.atomicio import atomic_write_text, durable_append_lines
from repro.util.fields import Field, check_fields, is_int, is_object, is_str

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

FORMAT_VERSION = 1

#: Field checks of a completed row's coordinates, read on resume.
_ROW_FIELDS: dict[str, Field] = {
    "ref": (True, is_str, "a string"),
    "params": (True, is_object, "an object"),
    "seed": (True, is_int, "an integer"),
}


@dataclass(frozen=True)
class SupervisePolicy:
    """Supervision knobs of :class:`SweepRunner`.

    ``timeout_s=None`` disables per-task deadlines (a drain still
    imposes ``drain_grace_s`` so an interrupt cannot hang forever).
    """

    timeout_s: "float | None" = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff bounds must be non-negative")

    def backoff_s(self, seed: int, index: int, attempt: int) -> float:
        """Deterministic jittered exponential backoff before retry
        ``attempt`` of task ``index``: a pure function of its inputs."""
        rng = np.random.default_rng(
            substream_seed(seed, "supervisor-backoff", index, attempt)
        )
        raw = self.backoff_base_s * (2.0 ** attempt) * (0.5 + rng.random())
        return min(self.backoff_cap_s, float(raw))


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run`.

    ``rows`` are sorted by task index.  ``status`` is ``"ok"`` (every
    task produced a row), ``"degraded"`` (some tasks quarantined; their
    rows are absent) or ``"interrupted"`` (drained on a signal;
    unstarted tasks skipped).
    """

    status: str = "ok"
    rows: list[dict[str, Any]] = field(default_factory=list)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    skipped: int = 0

    def to_spec(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "rows": len(self.rows),
            "quarantined": [dict(q) for q in self.quarantined],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "skipped": self.skipped,
        }


def _worker_main(conn: Any) -> None:
    """Worker loop (module-level: must pickle into spawn): run each task
    the parent sends until it closes the pipe."""
    # Ctrl-C reaches the whole process group; the parent drains, and
    # in-flight tasks finish rather than die mid-row.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            conn.send(execute_task(conn.recv()))
    except (EOFError, OSError):  # parent closed the pipe or died
        return


@dataclass
class _Job:
    task: SweepTask
    attempt: int = 0
    not_before: float = 0.0
    deadline: "float | None" = None


class _Worker:
    """One long-lived worker process and the job it holds, if any."""

    def __init__(self, ctx: Any) -> None:
        self.job: "_Job | None" = None
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,))
        self.proc.start()
        child.close()

    def stop(self, grace_s: float = 0.0) -> None:
        """Close the pipe (an idle worker exits on EOF), then kill the
        process if it is still running after ``grace_s``."""
        self.conn.close()
        self.proc.join(grace_s)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()


class SweepRunner:
    """Run sweep tasks under supervision; collect rows in index order.

    Parameters
    ----------
    workers:
        ``1`` without a timeout runs every task inline in this process
        (no pool, no pickling) — the reference path.  Otherwise up to
        ``workers`` long-lived spawn-context worker processes run the
        tasks.  Rows are identical either way.
    policy:
        The :class:`SupervisePolicy` in force (default: no deadline,
        2 retries).
    seed:
        Seed for the deterministic backoff jitter (independent of every
        task's own model seed).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the
        runner reports ``sweep.tasks_submitted`` / ``completed`` /
        ``failed`` counters, a ``sweep.task_wall_s`` histogram and,
        when they happen, ``supervisor.retries`` / ``timeouts`` /
        ``worker_deaths`` / ``quarantined``.  Worker-side metric
        snapshots merge in task-index order after the run, so gauges
        and histogram sums do not depend on scheduling.
    quarantine_path:
        Sidecar JSONL receiving one durable line per quarantined task.
    on_row:
        Callback invoked with each row *as it completes* (completion
        order); used for durable incremental appends.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        policy: "SupervisePolicy | None" = None,
        seed: int = 0,
        registry: "MetricsRegistry | None" = None,
        quarantine_path: "str | Path | None" = None,
        on_row: "Callable[[dict[str, Any]], None] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._policy = policy if policy is not None else SupervisePolicy()
        self._seed = int(seed)
        self._registry = registry
        self._quarantine_path = (
            None if quarantine_path is None else Path(quarantine_path)
        )
        self._on_row = on_row
        self._interrupted = False
        self._wake_fd: "int | None" = None

    @property
    def workers(self) -> int:
        return self._workers

    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(n)

    def _request_drain(self, signum: int, frame: Any) -> None:
        del signum, frame
        if self._interrupted:
            raise KeyboardInterrupt
        self._interrupted = True
        if self._wake_fd is not None:
            os.write(self._wake_fd, b"\0")

    def _complete(self, outs: "list[dict[str, Any]]", out: dict[str, Any]) -> None:
        outs.append(out)
        if self._on_row is not None:
            self._on_row(out["row"])

    def _retry_or_quarantine(
        self,
        report: SweepReport,
        pending: "list[_Job]",
        job: _Job,
        reason: str,
        now: float,
    ) -> None:
        if job.attempt < self._policy.max_retries and not self._interrupted:
            report.retries += 1
            self._count("supervisor.retries")
            delay = self._policy.backoff_s(self._seed, job.task.index, job.attempt)
            pending.append(_Job(job.task, job.attempt + 1, now + delay))
            return
        record = {
            "kind": "quarantine",
            "index": job.task.index,
            "ref": job.task.ref,
            "params": dict(job.task.params),
            "seed": job.task.seed,
            "reason": reason,
            "attempts": job.attempt + 1,
        }
        report.quarantined.append(record)
        self._count("supervisor.quarantined")
        if self._quarantine_path is not None:
            durable_append_lines(
                self._quarantine_path, [json.dumps(record, sort_keys=True)]
            )

    # ------------------------------------------------------------------
    def run(self, tasks: Iterable[SweepTask]) -> SweepReport:
        """Execute all tasks; always returns a report (never raises for
        task- or worker-level failure)."""
        todo = list(tasks)
        report = SweepReport()
        outs: list[dict[str, Any]] = []
        self._interrupted = False
        previous: list[tuple[int, Any]] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous.append((signum, signal.signal(signum, self._request_drain)))
        except ValueError:  # not the main thread (tests, embedding)
            previous = []
        try:
            if self._workers == 1 and self._policy.timeout_s is None:
                for i, task in enumerate(todo):
                    if self._interrupted:
                        report.skipped = len(todo) - i
                        break
                    self._complete(outs, execute_task(task))
            elif todo:
                self._run_workers(todo, report, outs)
        finally:
            for signum, handler in previous:
                signal.signal(signum, handler)

        # Account in task-index order: gauges are last-writer-wins and
        # histogram sums are float additions, so merging in completion
        # order would make the registry depend on scheduling.
        outs.sort(key=lambda o: o["row"]["index"])
        if self._registry is not None:
            wall = self._registry.histogram("sweep.task_wall_s")
            for out in outs:
                wall.observe(out["wall_s"])
                metrics = out.get("metrics")
                if metrics:
                    self._registry.merge(restore_snapshot(metrics))
        report.rows = [out["row"] for out in outs]
        failed = sum(1 for row in report.rows if "error" in row)
        self._count("sweep.tasks_submitted", len(todo))
        self._count("sweep.tasks_completed", len(report.rows) - failed)
        self._count("sweep.tasks_failed", failed)
        if self._interrupted:
            report.status = "interrupted"
        elif report.quarantined or len(report.rows) < len(todo):
            report.status = "degraded"
        return report

    def _run_workers(
        self,
        todo: "list[SweepTask]",
        report: SweepReport,
        outs: "list[dict[str, Any]]",
    ) -> None:
        policy = self._policy
        ctx = multiprocessing.get_context("spawn")
        pending = [_Job(task) for task in todo]
        wake_r, self._wake_fd = os.pipe()
        # A slot whose worker was killed or died holds None until it is
        # next needed.
        slots: "list[_Worker | None]" = []
        drain_deadline: "float | None" = None
        try:
            # Start every worker up front so their interpreter start-ups
            # overlap.
            for _ in range(min(self._workers, len(todo))):
                slots.append(_Worker(ctx))
            while True:
                now = time.monotonic()  # repro: noqa SIM001 -- host supervision deadline, never model input
                if self._interrupted:
                    report.skipped += len(pending)
                    pending = []
                    if drain_deadline is None:
                        drain_deadline = now + policy.drain_grace_s
                # Hand ready tasks to idle workers, fresh ones in index order.
                for i, w in enumerate(slots):
                    ready = [j for j in pending if j.not_before <= now]
                    if not ready or (w is not None and w.job is not None):
                        continue
                    if w is None:
                        w = slots[i] = _Worker(ctx)
                    w.job = min(ready, key=lambda j: (j.not_before, j.task.index))
                    pending.remove(w.job)
                    if policy.timeout_s is not None:
                        w.job.deadline = now + policy.timeout_s
                    try:
                        w.conn.send(w.job.task)
                    except OSError:  # already dead: its sentinel reports it
                        pass
                busy = [w for w in slots if w is not None and w.job is not None]
                if not busy and not pending:
                    break
                wakeups = [w.job.deadline for w in busy if w.job.deadline is not None]
                if drain_deadline is not None and busy:
                    wakeups.append(drain_deadline)
                if pending and len(busy) < len(slots):
                    wakeups.append(min(j.not_before for j in pending))
                ready_fds = wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy] + [wake_r],
                    max(0.0, min(wakeups) - now) if wakeups else None,
                )
                if wake_r in ready_fds:
                    os.read(wake_r, 64)
                now = time.monotonic()  # repro: noqa SIM001 -- host supervision deadline, never model input
                for w in busy:
                    job = w.job
                    if w.conn in ready_fds or w.proc.sentinel in ready_fds:
                        try:
                            out = w.conn.recv()
                        except (EOFError, OSError):
                            w.stop(1.0)  # it is exiting: let it report its code
                            report.worker_deaths += 1
                            self._count("supervisor.worker_deaths")
                            reason = (f"worker died (exit code {w.proc.exitcode}) "
                                      f"without producing a result")
                        else:
                            w.job = None
                            self._complete(outs, out)
                            continue
                    else:
                        limits = [d for d in (job.deadline, drain_deadline) if d is not None]
                        if not limits or now < min(limits):
                            continue
                        w.stop()
                        report.timeouts += 1
                        self._count("supervisor.timeouts")
                        by_drain = drain_deadline is not None and (
                            job.deadline is None or drain_deadline <= job.deadline
                        )
                        reason = ("killed during interrupt drain" if by_drain
                                  else f"timed out after {policy.timeout_s}s wall")
                    slots[slots.index(w)] = None
                    self._retry_or_quarantine(report, pending, job, reason, now)
        finally:
            live = [w for w in slots if w is not None]
            for w in live:
                w.conn.close()
            for w in live:
                w.stop(0.0 if w.job is not None else 5.0)
            os.close(wake_r)
            os.close(self._wake_fd)
            self._wake_fd = None


# ---------------------------------------------------------------------------
# JSONL serialization (the deterministic on-disk shape)
# ---------------------------------------------------------------------------

def sweep_jsonl_lines(
    rows: Sequence[Mapping[str, Any]],
    *,
    matrix: str,
    master_seed: int,
    reps: int | None = None,
) -> list[str]:
    """Header + row lines.  Everything here must be a pure function of
    (matrix definition, master seed) — no timestamps, no worker count."""
    header: dict[str, Any] = {
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "matrix": matrix,
        "master_seed": int(master_seed),
        "n_tasks": len(rows),
    }
    if reps is not None:
        header["reps"] = int(reps)
    return [json.dumps(header, sort_keys=True)] + [
        json.dumps(dict(r), sort_keys=True) for r in rows
    ]


def write_sweep_jsonl(
    path: str | Path,
    rows: Sequence[Mapping[str, Any]],
    *,
    matrix: str,
    master_seed: int,
    reps: int | None = None,
) -> Path:
    path = Path(path)
    lines = sweep_jsonl_lines(rows, matrix=matrix, master_seed=master_seed, reps=reps)
    # Atomic: a kill mid-write must never leave a half-sweep under the
    # final name (resume reads this file and trusts complete lines).
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def read_sweep_jsonl(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a sweep JSONL back into (header, rows); validates header."""
    events = [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    if not events or events[0].get("kind") != "meta":
        raise ValueError(f"{path}: not a sweep JSONL (missing meta header)")
    version = events[0].get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    return events[0], events[1:]


# ---------------------------------------------------------------------------
# Resume (skip already-computed points)
# ---------------------------------------------------------------------------

def coordinate_digest(ref: str, params: Mapping[str, Any], seed: int) -> str:
    """Identity of one sweep point: blake2b of its canonical
    (ref, params, seed) coordinates.  Pure data, so the digest of a
    completed row equals the digest of the task that produced it —
    no row-format change is needed to key the resume set."""
    import hashlib

    text = json.dumps(
        {"ref": ref, "params": dict(params), "seed": int(seed)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def read_completed_rows(path: str | Path) -> dict[str, dict[str, Any]]:
    """Successful rows of a (possibly partial) sweep JSONL, keyed by
    coordinate digest.

    Built for kill-and-resume: a truncated final line (the process died
    mid-write) is skipped, and rows that recorded an ``error`` are
    *not* treated as complete — a resumed run re-executes them.
    Returns an empty dict when the file does not exist; raises
    :class:`SweepError` naming the file and line of a complete row
    whose coordinates are malformed.
    """
    path = Path(path)
    if not path.exists():
        return {}
    out: dict[str, dict[str, Any]] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated tail from a killed run
        if not is_object(row) or row.get("kind") != "row":
            continue
        if "error" in row or "result" not in row:
            continue
        try:
            check_fields(row, _ROW_FIELDS)
        except (KeyError, TypeError) as exc:
            raise SweepError(f"{path}:{lineno}: malformed row: {exc}") from exc
        out[coordinate_digest(row["ref"], row["params"], row["seed"])] = row
    return out


def partition_resumable(
    tasks: "Sequence[SweepTask]", completed: Mapping[str, Mapping[str, Any]]
) -> "tuple[list[SweepTask], list[dict[str, Any]]]":
    """(tasks still to run, rows already computed — re-indexed).

    A cached row is matched purely by coordinate digest, then stamped
    with the *current* task's index so the merged output is
    byte-identical to a fresh full run even if the matrix was reordered
    or re-expanded.
    """
    todo: list[SweepTask] = []
    cached: list[dict[str, Any]] = []
    for task in tasks:
        digest = coordinate_digest(task.ref, task.params, task.seed)
        row = completed.get(digest)
        if row is None:
            todo.append(task)
        else:
            fixed = dict(row)
            fixed["index"] = task.index
            cached.append(fixed)
    return todo, cached


__all__ = [
    "SupervisePolicy",
    "SweepReport",
    "SweepRunner",
    "sweep_jsonl_lines",
    "write_sweep_jsonl",
    "read_sweep_jsonl",
    "coordinate_digest",
    "read_completed_rows",
    "partition_resumable",
    "FORMAT_VERSION",
]
