"""repro.sweep — deterministic process-parallel experiment sweeps.

The subsystem turns ``(config, seed)`` replications of the repo's
benchmarks and experiments into spawn-safe task lists and runs them on
supervised worker processes, with one load-bearing guarantee: **the
collected output is byte-identical for any worker count** (see
:mod:`repro.sweep.runner` for how the format enforces that).

Pieces:

* :class:`SweepTask` / :func:`expand_matrix` — spawn-safe descriptors
  and cartesian-grid expansion with per-task ``substream_seed``
  derivation (:mod:`repro.sweep.tasks`);
* :class:`SweepRunner` (the one worker pool: deadlines, retries,
  quarantine, drain under a :class:`SupervisePolicy`), its
  :class:`SweepReport`, and the sweep JSONL reader/writer
  (:mod:`repro.sweep.runner`);
* the sweep-point functions and named matrices behind the
  ``repro sweep`` CLI (:mod:`repro.sweep.points`).
"""

from repro.sweep.runner import (
    FORMAT_VERSION,
    SupervisePolicy,
    SweepReport,
    SweepRunner,
    coordinate_digest,
    partition_resumable,
    read_completed_rows,
    read_sweep_jsonl,
    sweep_jsonl_lines,
    write_sweep_jsonl,
)
from repro.sweep.tasks import (
    MatrixSpec,
    SweepError,
    SweepTask,
    execute_task,
    expand_matrix,
    resolve_ref,
)

__all__ = [
    "FORMAT_VERSION",
    "MatrixSpec",
    "SupervisePolicy",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "coordinate_digest",
    "execute_task",
    "expand_matrix",
    "partition_resumable",
    "read_completed_rows",
    "read_sweep_jsonl",
    "resolve_ref",
    "sweep_jsonl_lines",
    "write_sweep_jsonl",
]
