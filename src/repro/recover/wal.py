"""Write-ahead-logged streaming detection (``repro serve --wal``).

A :class:`WalServer` hosts one *online* clock family over a serve
directory and ingests sensed-event records one at a time, surviving
``kill -9`` at any instant with byte-identical resumed output:

* ``serve.json`` — immutable config (the manifest naming scenario,
  seed, Δ, check period, family) written once at creation;
* ``wal.jsonl`` — the write-ahead log: every record is appended here,
  flushed and fsync'd *before* it is fed to the detector, through one
  append handle the server holds from its first ingest until
  :meth:`WalServer.finalize` or :meth:`WalServer.close`;
* ``detections.jsonl`` — one line per emitted detection, durably
  appended at each checkpoint;
* ``checkpoint.json`` — atomically replaced every ``checkpoint_every``
  ingests: ``{ingested, emitted, digest, finalized}``, where ``digest``
  is the blake2b digest of the detector's ``frontier_snapshot`` (its
  pending state, so a checkpoint costs O(pending), not O(history)).

Recovery leans on determinism instead of snapshotting the detector: a
reopened server truncates a torn WAL tail, truncates
``detections.jsonl`` back to the checkpointed ``emitted`` count
(dropping lines whose checkpoint never landed), re-feeds the first
``ingested`` WAL records through a fresh detector (and finalizes it
again if the checkpoint is finalized), and refuses the directory unless
the detector's digest equals the checkpoint's — so a serve config or
code change under the directory is caught at the checkpoint, not only
at the detections.  It then feeds the rest of the WAL, regenerating the
dropped detection lines byte for byte, because the detector's output is
a pure function of the (arrival time, record) sequence.  Records that
never reached the WAL are simply re-ingested by the caller (``serve``
skips exactly ``ingested_records`` input lines on restart).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, TextIO

from repro.core.records import SensedEventRecord
from repro.recover.checkpoint import snapshot_digest
from repro.recover.stream import record_from_spec
from repro.replay.manifest import RunManifest
from repro.sim.kernel import Simulator
from repro.util.atomicio import atomic_write_text, durable_append_lines
from repro.util.fields import Field, check_fields, is_bool, is_count, is_object, is_str

#: 2: checkpoint.json's digest covers the O(pending) frontier snapshot
#: and is verified at reopen.
SERVE_FORMAT_VERSION = 2

#: Families the streaming server can host (offline families replay a
#: complete stream at finalize and have no incremental frontier).
SERVABLE_FAMILIES = ("vector_strobe", "scalar_strobe")


class WalError(RuntimeError):
    """Serve directory is malformed, corrupt, or incompatible."""


#: Field checks of serve.json (past its kind and version).
_CONFIG_FIELDS: dict[str, Field] = {
    "manifest": (True, is_object, "an object"),
    "checkpoint_every": (True, is_count, "a count"),
}
#: Field checks of checkpoint.json.
_CHECKPOINT_FIELDS: dict[str, Field] = {
    "ingested": (True, is_count, "a count"),
    "emitted": (True, is_count, "a count"),
    "digest": (True, is_str, "a string"),
    "finalized": (True, is_bool, "a boolean"),
}


def _detection_line(detection: Any, emit_time: float) -> str:
    """Canonical detection line (the recorder's shape, minus host —
    a serve has exactly one)."""
    trig = detection.trigger
    return json.dumps({
        "detector": detection.detector,
        "trigger": [trig.pid, trig.seq],
        "var": trig.var,
        "value": repr(trig.value),
        "label": detection.label.value,
        "emit_time": emit_time,
    }, sort_keys=True)


class WalServer:
    """One recoverable streaming detector over a serve directory.

    Pass ``manifest`` to create a fresh directory; omit it to reopen
    (and recover) an existing one.  A context manager: leaving the
    ``with`` block releases the WAL append handle (:meth:`close`).
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        manifest: "RunManifest | None" = None,
        checkpoint_every: int = 64,
    ) -> None:
        self.dir = Path(directory)
        self.serve_path = self.dir / "serve.json"
        self.wal_path = self.dir / "wal.jsonl"
        self.detections_path = self.dir / "detections.jsonl"
        self.checkpoint_path = self.dir / "checkpoint.json"
        self._wal: "TextIO | None" = None   # append handle, opened by ingest
        if self.serve_path.exists():
            if manifest is not None:
                raise WalError(
                    f"{self.dir}: serve directory already exists; "
                    "reopen it without a manifest"
                )
            self._load_config()
        else:
            if manifest is None:
                raise WalError(
                    f"{self.dir}: no serve.json — pass a manifest to "
                    "create a new serve directory"
                )
            if manifest.clock_family not in SERVABLE_FAMILIES:
                raise WalError(
                    f"clock family {manifest.clock_family!r} is not "
                    f"streamable (pick one of {', '.join(SERVABLE_FAMILIES)})"
                )
            if checkpoint_every < 1:
                raise WalError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            self.manifest = manifest
            self.checkpoint_every = int(checkpoint_every)
            self.dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.serve_path, json.dumps({
                "kind": "repro-serve",
                "format_version": SERVE_FORMAT_VERSION,
                "manifest": manifest.to_spec(),
                "checkpoint_every": self.checkpoint_every,
            }, sort_keys=True) + "\n")
        self._build_detector()
        self.ingested_records = 0     # WAL lines fed to the detector
        self._emitted = 0             # detection lines durably on disk
        self._ckpt_ingested = 0       # WAL position of the last checkpoint
        self.finalized = False
        self._recover()

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        try:
            cfg = json.loads(self.serve_path.read_text())
        except json.JSONDecodeError as exc:
            raise WalError(f"{self.serve_path}: corrupt serve config: {exc}") from exc
        if not isinstance(cfg, dict) or cfg.get("kind") != "repro-serve":
            raise WalError(f"{self.serve_path}: not a repro serve directory")
        version = cfg.get("format_version")
        if version != SERVE_FORMAT_VERSION:
            raise WalError(
                f"{self.serve_path}: unsupported serve format {version!r}"
            )
        try:
            check_fields(cfg, _CONFIG_FIELDS)
            self.manifest = RunManifest.from_spec(cfg["manifest"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"{self.serve_path}: malformed config: {exc}") from exc
        self.checkpoint_every = cfg["checkpoint_every"]

    def _build_detector(self) -> None:
        from repro.detect.online import (
            OnlineScalarStrobeDetector,
            OnlineVectorStrobeDetector,
        )
        from repro.scenarios.builders import build_scenario

        # The scenario is built only for its predicate and initial
        # environment; the server's time axis is its own bare kernel,
        # advanced to each record's arrival time on ingest.
        scenario, phi, initials = build_scenario(
            self.manifest.scenario,
            seed=self.manifest.seed,
            delta=self.manifest.delta,
        )
        #: process count of the served system: every record's pid and
        #: vector widths are checked against it on ingest
        self.n_processes = len(scenario.system.processes)
        self.sim = Simulator()
        cls = (
            OnlineVectorStrobeDetector
            if self.manifest.clock_family == "vector_strobe"
            else OnlineScalarStrobeDetector
        )
        self.detector = cls(
            self.sim, phi, initials,
            delta=self.manifest.delta,
            check_period=self.manifest.check_period,
            liveness_horizon=self.manifest.liveness_horizon,
        )
        self.detector.start()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _read_wal(self) -> list[dict[str, Any]]:
        """WAL record specs, truncating a torn final line in place."""
        if not self.wal_path.exists():
            return []
        data = self.wal_path.read_bytes()
        specs: list[dict[str, Any]] = []
        good_end = 0
        pos = 0
        for raw in data.split(b"\n"):
            end = pos + len(raw)
            if raw.strip():
                try:
                    specs.append(json.loads(raw))
                except json.JSONDecodeError:
                    break                 # torn tail from a kill mid-append
            good_end = end + 1            # include the newline
            pos = end + 1
        good_end = min(good_end, len(data))
        if good_end < len(data):
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        return specs

    def _read_checkpoint(self) -> dict[str, Any]:
        """checkpoint.json's fields (no digest before the first one)."""
        if not self.checkpoint_path.exists():
            return {"ingested": 0, "emitted": 0, "digest": None, "finalized": False}
        try:
            ckpt = json.loads(self.checkpoint_path.read_text())
            check_fields(ckpt, _CHECKPOINT_FIELDS)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            # checkpoint.json is atomically replaced, so corruption
            # cannot come from a crash — refuse to guess.
            raise WalError(
                f"{self.checkpoint_path}: corrupt checkpoint: {exc!r}"
            ) from exc
        return ckpt

    def _recover(self) -> None:
        ckpt = self._read_checkpoint()
        ingested, emitted = ckpt["ingested"], ckpt["emitted"]
        specs = self._read_wal()
        if len(specs) < ingested:
            raise WalError(
                f"{self.wal_path}: WAL holds {len(specs)} records but the "
                f"checkpoint claims {ingested} — the log was "
                "truncated below its own checkpoint"
            )
        # Drop detection lines beyond the checkpoint (a crash between
        # the detection append and the checkpoint replace): re-feeding
        # the WAL regenerates them byte for byte.
        persisted: list[str] = []
        if self.detections_path.exists():
            persisted = self.detections_path.read_text().split("\n")[:-1]
            if len(persisted) != emitted:
                persisted = persisted[:emitted]
                atomic_write_text(
                    self.detections_path,
                    "".join(ln + "\n" for ln in persisted),
                )
        elif emitted:
            raise WalError(
                f"{self.detections_path}: missing but checkpoint claims "
                f"{emitted} emitted detections"
            )
        for spec in specs[:ingested]:
            self._feed(*record_from_spec(spec))
        if ckpt["finalized"]:
            if len(specs) > ingested:
                raise WalError(
                    f"{self.wal_path}: WAL holds {len(specs)} records "
                    f"past a checkpoint finalized at {ingested}"
                )
            self.detector.finalize()
            self.finalized = True
        if ckpt["digest"] is not None and self._digest() != ckpt["digest"]:
            raise WalError(
                f"{self.checkpoint_path}: detector state after re-feeding "
                f"{ingested} WAL records does not match the checkpoint "
                "digest — serve config or code changed under the directory"
            )
        for spec in specs[ingested:]:
            self._feed(*record_from_spec(spec))
        self.ingested_records = len(specs)
        self._ckpt_ingested = len(specs)
        emissions = self.detector.emissions
        if len(emissions) < emitted or [
            _detection_line(d, t) for d, t in emissions[:emitted]
        ] != persisted:
            raise WalError(
                f"{self.dir}: WAL replay regenerated {len(emissions)} "
                f"detections that do not extend the {emitted} on disk — "
                "serve config or code changed under the directory"
            )
        self._emitted = emitted
        # Persist anything the crash lost, then stamp a clean checkpoint.
        if len(emissions) > emitted or len(specs) != ingested:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _feed(self, arrival: float, record: SensedEventRecord) -> None:
        if arrival > self.sim.now:
            self.sim.run(until=arrival)
        self.detector.feed(record)

    def _check_record(self, arrival: float, record: SensedEventRecord) -> None:
        """Reject a record that decodes but cannot belong to the served
        system: an arrival outside ``[0, duration]`` (every served
        stream comes from running the manifest to ``duration``; NaN
        fails the test too), a pid, or a vector width, other than its
        process count, or a value the served predicate cannot evaluate
        (tried over the initial environment with the record's variable
        substituted), or a record without the served family's strobe
        stamp."""
        self.detector.check_stamp(record)
        if not 0.0 <= arrival <= self.manifest.duration:
            raise ValueError(
                f"arrival t={arrival} outside [0, {self.manifest.duration}]"
            )
        n = self.n_processes
        if not 0 <= record.pid < n:
            raise ValueError(f"pid {record.pid} outside the {n} processes")
        for stamp in (record.vector, record.strobe_vector):
            if stamp is not None and stamp.n != n:
                raise ValueError(f"vector width {stamp.n}, expected {n}")
        env = dict(self.detector.initials)
        env[record.var] = record.value
        try:
            self.detector.predicate.evaluate(env)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(
                f"the predicate cannot evaluate {record.var}={record.value!r}: {exc}"
            ) from exc

    def ingest(self, spec: dict[str, Any]) -> None:
        """WAL-first ingest of one record spec; checkpoints every
        ``checkpoint_every`` records.  A spec that does not decode to a
        record of the served system raises :class:`WalError` and leaves
        the WAL untouched, so one malformed line cannot poison every
        later reopen."""
        if self.finalized:
            raise WalError(f"{self.dir}: serve already finalized")
        try:
            arrival, record = record_from_spec(spec)
            self._check_record(arrival, record)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise WalError(
                f"{self.dir}: malformed record {spec!r}: {exc!r}"
            ) from exc
        if self._wal is None:
            # Opened after _recover truncated any torn tail, so every
            # append lands at the repaired end.
            self._wal = open(self.wal_path, "a", encoding="utf-8")
        durable_append_lines(self._wal, [json.dumps(spec, sort_keys=True)])
        self._feed(arrival, record)
        self.ingested_records += 1
        if self.ingested_records - self._ckpt_ingested >= self.checkpoint_every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _digest(self) -> str:
        return snapshot_digest({"frontier": self.detector.frontier_snapshot()})

    def checkpoint(self) -> dict[str, Any]:
        """Durably append the detections emitted since the last
        checkpoint and replace checkpoint.json."""
        new = [
            _detection_line(d, t)
            for d, t in self.detector.emissions[self._emitted:]
        ]
        if new:
            durable_append_lines(self.detections_path, new)
            self._emitted += len(new)
        state = {
            "ingested": self.ingested_records,
            "emitted": self._emitted,
            "digest": self._digest(),
            "finalized": self.finalized,
        }
        # The replace fsyncs the directory, which also makes a newly
        # created detections.jsonl durable.
        atomic_write_text(
            self.checkpoint_path,
            json.dumps(state, sort_keys=True) + "\n",
        )
        self._ckpt_ingested = self.ingested_records
        return state

    def finalize(self) -> dict[str, Any]:
        """Flush the detector regardless of stability (end of stream)
        and persist everything; releases the WAL handle, which a
        finalized server never appends to again.  Idempotent."""
        self.close()
        if not self.finalized:
            self.detector.finalize()
            self.finalized = True
        return self.checkpoint()

    def close(self) -> None:
        """Release the WAL append handle.  Idempotent; a later
        :meth:`ingest` reopens it.  Every ingested record is already
        durable, so closing persists nothing — call :meth:`checkpoint`
        or :meth:`finalize` for the detections."""
        fh, self._wal = self._wal, None
        if fh is not None:
            fh.close()

    def __enter__(self) -> "WalServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        return {
            "dir": str(self.dir),
            "scenario": self.manifest.scenario,
            "clock_family": self.manifest.clock_family,
            "checkpoint_every": self.checkpoint_every,
            "ingested": self.ingested_records,
            "emitted": self._emitted,
            "detections": len(self.detector.emissions),
            "finalized": self.finalized,
        }


__all__ = ["WalServer", "WalError", "SERVABLE_FAMILIES", "SERVE_FORMAT_VERSION"]
