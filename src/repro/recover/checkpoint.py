"""Deterministic checkpoint/restore for manifest runs.

A live run is full of closures (scheduled callbacks, world listeners,
detector timers), so it cannot be pickled and thawed.  It does not
need to be: a run is a pure function of its manifest, so its state at
any event count is *reproducible* from ``(manifest, processed_events)``
alone.  A :class:`Checkpoint` therefore stores exactly that pair, plus
a canonical **state certificate** — a JSON-safe snapshot of every
stateful component — and its digest:

* DES kernel: clock, processed/sequence counters, the live event
  calendar as ``(time, priority, seq, label)`` entries;
* every process: sense counters, tracked variables, all configured
  clock states (the five families' stamps derive from these);
* the bound detector's retained frontier (watermark cursors, pending
  keys, incremental environment — see ``frontier_snapshot``);
* RNG registry: every stream's bit-generator state;
* fault injector: applied prefix and active windows;
* world plane: every object's attributes.

``restore`` rebuilds the run from the embedded manifest, re-executes
exactly ``processed_events`` events, recomputes the snapshot, and
raises :class:`CheckpointError` naming the first diverging section if
the digests differ — so a checkpoint can never silently resume into a
different run (changed code, changed data files).  On success the run
continues live; the certify harness proves the continuation is
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.replay.engine import (
    ExecutionResult,
    PreparedExecution,
    finalize_execution,
    prepare_execution,
)
from repro.replay.manifest import RunManifest, code_digest
from repro.util.atomicio import atomic_write_text
from repro.util.fields import Field, check_fields, is_count, is_int, is_object, is_str

#: Bump when the snapshot schema changes; old checkpoints are refused.
SNAPSHOT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint cannot be taken, loaded, or faithfully restored."""


#: Field checks of a checkpoint file (past its kind).
_FIELDS: dict[str, Field] = {
    "version": (True, is_int, "an integer"),
    "manifest": (True, is_object, "an object"),
    "processed_events": (True, is_count, "a count"),
    "state": (True, is_object, "an object"),
    "digest": (True, is_str, "a string"),
    "code_digest": (False, is_str, "a string"),
}


# ---------------------------------------------------------------------------
# State certificate
# ---------------------------------------------------------------------------

def snapshot_state(prepared: PreparedExecution) -> dict[str, Any]:
    """Canonical JSON-safe snapshot of a prepared run's mutable state.

    Every section is deterministic given (manifest, events fired) — the
    determinism contract — so equal snapshots certify equal futures.
    """
    from repro.trace.recorder import _canon

    system = prepared.system
    sim = system.sim
    world = {
        obj.oid: {
            attr: _canon(value)
            for attr, value in sorted(obj.attributes.items())
        }
        for obj in sorted(
            system.world.objects(),  # repro: noqa RACE002 -- certificate snapshot, not model input
            key=lambda o: o.oid,
        )
    }
    state: dict[str, Any] = {
        "kernel": {
            "now": float(sim.now),
            "calendar": sim.calendar_snapshot(),
        },
        "rng": system.rng.state_snapshot(),
        "processes": [p.state_snapshot() for p in system.processes],
        "world": world,
        "detector": prepared.detector.detector.frontier_snapshot(),
        "recorder": {
            "events": prepared.recorder.retained,
            "world_events": len(prepared.recorder.world_events),
            "detections": len(prepared.recorder.detections),
        },
    }
    if prepared.injector is not None:
        state["injector"] = prepared.injector.snapshot()
    return state


def snapshot_digest(state: dict[str, Any]) -> str:
    """blake2b digest of the canonical JSON encoding of a snapshot."""
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _first_divergence(
    expected: dict[str, Any], actual: dict[str, Any]
) -> str:
    """Name the first snapshot section whose canonical bytes differ."""
    for key in sorted(set(expected) | set(actual)):
        a = json.dumps(expected.get(key), sort_keys=True, default=repr)
        b = json.dumps(actual.get(key), sort_keys=True, default=repr)
        if a != b:
            return key
    return "<digest>"


# ---------------------------------------------------------------------------
# Partial execution
# ---------------------------------------------------------------------------

class PartialRun:
    """A manifest run that can be stepped event by event.

    ``prepare → begin → step… → finish`` composes to exactly what
    :meth:`repro.replay.ReplayEngine.execute` does in one call (the
    kernel guarantees ``run(until, max_events=k)`` then ``run(until)``
    ≡ ``run(until)``), so partial runs produce byte-identical traces
    and detections — the property checkpointing rests on.
    """

    def __init__(self, manifest: RunManifest) -> None:
        self.manifest = manifest
        self.prepared = prepare_execution(manifest)
        self.prepared.scenario.begin()
        self._result: ExecutionResult | None = None

    @property
    def sim(self) -> Any:
        return self.prepared.system.sim

    @property
    def processed_events(self) -> int:
        return int(self.sim.processed_events)

    @property
    def finished(self) -> bool:
        return self._result is not None

    def step_events(self, n: int) -> int:
        """Fire up to ``n`` further events (fewer if the horizon or the
        calendar is exhausted first).  Returns events actually fired."""
        if self._result is not None:
            raise CheckpointError("run already finished")
        if n < 0:
            raise CheckpointError(f"cannot step a negative count ({n})")
        before = self.processed_events
        if n:
            self.prepared.system.run(
                until=self.manifest.duration, max_events=n
            )
        return self.processed_events - before

    def step_to(self, n_events: int) -> None:
        """Advance until exactly ``n_events`` total events have fired."""
        remaining = n_events - self.processed_events
        if remaining < 0:
            raise CheckpointError(
                f"run is already past event {n_events} "
                f"(at {self.processed_events})"
            )
        if remaining and self.step_events(remaining) < remaining:
            raise CheckpointError(
                f"run ended at event {self.processed_events}, before "
                f"the requested {n_events} — manifest or code changed"
            )

    def finish(self) -> ExecutionResult:
        """Run to the manifest horizon and finalize.  Idempotent."""
        if self._result is None:
            self.prepared.system.run(until=self.manifest.duration)
            self.prepared.scenario.end()
            self._result = finalize_execution(self.prepared)
        return self._result

    def snapshot(self) -> dict[str, Any]:
        return snapshot_state(self.prepared)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """One digest-stamped recovery point of a manifest run."""

    version: int
    manifest: dict[str, Any]
    processed_events: int
    state: dict[str, Any]
    digest: str
    code_digest: str = ""

    @classmethod
    def capture(cls, run: PartialRun) -> "Checkpoint":
        """Snapshot a partial run at its current event count."""
        if run.finished:
            raise CheckpointError("cannot checkpoint a finished run")
        state = run.snapshot()
        return cls(
            version=SNAPSHOT_VERSION,
            manifest=run.manifest.to_spec(),
            processed_events=run.processed_events,
            state=state,
            digest=snapshot_digest(state),
            code_digest=code_digest(),
        )

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "kind": "repro-checkpoint",
            "version": self.version,
            "manifest": self.manifest,
            "processed_events": self.processed_events,
            "state": self.state,
            "digest": self.digest,
            "code_digest": self.code_digest,
        }
        return json.dumps(payload, sort_keys=True, indent=None) + "\n"

    @classmethod
    def from_json(cls, text: str, *, source: str = "<json>") -> "Checkpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{source}: not a checkpoint (corrupt JSON at "
                f"line {exc.lineno}, column {exc.colno})"
            ) from exc
        if not isinstance(payload, dict) or payload.get("kind") != "repro-checkpoint":
            raise CheckpointError(f"{source}: not a repro checkpoint file")
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"{source}: unsupported checkpoint version {version!r} "
                f"(this build writes {SNAPSHOT_VERSION})"
            )
        try:
            check_fields(payload, _FIELDS)
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{source}: malformed checkpoint: {exc}") from exc
        ckpt = cls(**{k: v for k, v in payload.items() if k in _FIELDS and v is not None})
        if snapshot_digest(ckpt.state) != ckpt.digest:
            raise CheckpointError(
                f"{source}: checkpoint digest does not match its state "
                "(file corrupted or hand-edited)"
            )
        return ckpt

    def save(self, path: "str | Path") -> Path:
        """Durably (atomically) write the checkpoint file."""
        path = Path(path)
        atomic_write_text(path, self.to_json())
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Checkpoint":
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"{path}: checkpoint file does not exist")
        return cls.from_json(path.read_text(), source=str(path))

    # -- restore --------------------------------------------------------
    def restore(self) -> PartialRun:
        """Rebuild the run at this checkpoint's event count, *proving*
        the recomputed state matches before handing it back."""
        try:
            manifest = RunManifest.from_spec(self.manifest)
        except ValueError as exc:
            raise CheckpointError(f"malformed embedded manifest: {exc}") from exc
        run = PartialRun(manifest)
        run.step_to(self.processed_events)
        state = run.snapshot()
        digest = snapshot_digest(state)
        if digest != self.digest:
            section = _first_divergence(self.state, state)
            hint = ""
            if self.code_digest and self.code_digest != code_digest():
                hint = " (the code digest changed since capture)"
            raise CheckpointError(
                f"restored state diverges from checkpoint at event "
                f"{self.processed_events}: section {section!r} differs"
                f"{hint}"
            )
        return run


__all__ = [
    "SNAPSHOT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "PartialRun",
    "snapshot_digest",
    "snapshot_state",
]
