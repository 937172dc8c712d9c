"""repro.recover — crash-recoverable execution.

Two robustness layers over the deterministic core:

* :mod:`repro.recover.checkpoint` — deterministic checkpoint/restore
  for manifest runs.  A checkpoint is a *state certificate*: a
  canonical, digest-stamped snapshot of every stateful component (DES
  calendar, per-process clocks, detector frontiers, RNG streams, fault
  windows).  ``restore`` re-derives the prefix from the manifest and
  proves the recomputed snapshot matches before continuing, so a
  resumed run is byte-identical to an uninterrupted one.
* :mod:`repro.recover.wal` — a write-ahead-logged streaming detector
  (``repro serve --wal``) that survives ``kill -9`` with byte-identical
  resumed detections.

Sweep supervision (per-task deadlines, deterministic-backoff retries,
quarantine, durable row streaming, SIGINT/SIGTERM drain) lives in the
one worker pool, :class:`repro.sweep.SweepRunner`.

Certification (``repro recover certify``) kills a run at every Nth
event boundary, restores from the checkpoint, and byte-compares trace
lines and detections against the uninterrupted run — for every clock
family.
"""

from repro.recover.checkpoint import (
    SNAPSHOT_VERSION,
    Checkpoint,
    CheckpointError,
    PartialRun,
    snapshot_digest,
    snapshot_state,
)
from repro.recover.certify import certify_all_families, certify_kill_anywhere
from repro.recover.stream import (
    export_record_stream,
    record_from_spec,
    record_to_spec,
)
from repro.recover.wal import WalServer

__all__ = [
    "SNAPSHOT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "PartialRun",
    "WalServer",
    "certify_all_families",
    "certify_kill_anywhere",
    "export_record_stream",
    "record_from_spec",
    "record_to_spec",
    "snapshot_digest",
    "snapshot_state",
]
