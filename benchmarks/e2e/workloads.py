"""The three end-to-end workloads, each a closed loop with one caller.

Every workload splits one rep into three steps so the harness times
only the system's work:

* ``inputs()`` builds the rep's input (untimed; fresh objects each rep,
  so no lazily cached timestamp encoding carries over between reps);
* ``run(inputs, lap)`` is the timed call into ``repro``; it calls
  ``lap()`` between the segments of the rep (one scenario run, one
  record stream, one block of ingest calls), so the harness can time
  each segment;
* ``check(output)`` compares the output with a reference (untimed) and
  returns the rep's operation counts.

Every rep does the same work in the same segments, so a segment's
fastest time over the reps is its cost with the least interference
from other tenants of the host.

Only public names of ``repro`` are used.  ``prepare(seed, sizes)``
computes the inputs and references that are too costly to build in the
measured process (a full scenario run for the serve stream); its result
is plain JSON so the harness can hand it over through a file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.detect.strobe_vector import VectorStrobeDetector
from repro.recover import WalServer
from repro.recover.stream import record_to_spec
from repro.replay import ReplayEngine, RunManifest, prepare_execution
from repro.sweep.points import (
    detections_digest,
    synth_records,
    throughput_predicate,
)

#: Δ bound and online flush period of the scenario-driven workloads.
DELTA = 0.05
CHECK_PERIOD = 0.1
#: Width of the synthetic record stream.
STREAM_N = 4
STREAM_RACE_FRAC = 0.3


@dataclass
class Rep:
    """Counts of one checked rep.  ``ops`` is the throughput numerator
    (records); ``attempted``/``failed`` count operations (a scenario
    run, a rep or an ingest call) for the error rate."""

    ops: int
    attempted: int
    failed: int


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _hall_manifest(seed: int, duration: float) -> RunManifest:
    return RunManifest(
        "hall", seed, duration=duration, delta=DELTA,
        clock_family="vector_strobe", check_period=CHECK_PERIOD,
    )


def _detection_keys(emissions) -> list[list[Any]]:
    return [[d.trigger.pid, d.trigger.seq, d.label.value] for d, _ in emissions]


class HallOnline:
    """``ReplayEngine().execute`` of ``runs`` short ``hall`` manifests,
    seeds ``seed * runs + k``: the record/replay path every CLI command
    shares, whole stack live, one segment per manifest."""

    name = "hall_online"

    def __init__(self, seed: int, sizes: dict, inputs: dict, workdir: Path,
                 references: dict) -> None:
        runs = int(sizes["runs"])
        self.manifests = [_hall_manifest(seed * runs + k, sizes["duration"])
                          for k in range(runs)]
        self.attempted = runs
        self.emit_digest: "str | None" = None

    @staticmethod
    def prepare(seed: int, sizes: dict) -> dict:
        return {}

    def setup(self) -> None:
        prepare_execution(self.manifests[0])

    def inputs(self) -> list[RunManifest]:
        return self.manifests

    def run(self, manifests: list[RunManifest], lap) -> list:
        results = []
        for i, manifest in enumerate(manifests):
            if i:
                lap()
            results.append(ReplayEngine().execute(manifest))
        return results

    def check(self, results: list) -> Rep:
        """Per manifest, online labels must equal an offline detector's
        over the same host store; emissions (with emit times) must
        repeat every rep."""
        failed, ops, emits = 0, 0, []
        for result in results:
            store = result.detector.detector.store
            offline = VectorStrobeDetector(
                result.scenario.predicate, result.scenario.initials
            )
            offline.feed_many(store.all())
            failed += detections_digest(result.detections) != detections_digest(
                offline.finalize()
            )
            emits.append(result.recorder.detections)
            ops += len(store)
        emit = _digest(emits)
        if self.emit_digest is None:
            self.emit_digest = emit
        if emit != self.emit_digest:
            failed = len(results)
        return Rep(ops=ops, attempted=len(results), failed=failed)

    def checks(self) -> dict:
        return {"emit_digest": self.emit_digest}


class StreamOffline:
    """Offline ``VectorStrobeDetector`` over ``streams`` synthetic record
    streams, seeds ``seed * streams + k``: the O(m²·n) race kernel does
    almost all the work, no other layer runs.  One segment per stream."""

    name = "stream_offline"

    def __init__(self, seed: int, sizes: dict, inputs: dict, workdir: Path,
                 references: dict) -> None:
        self.records = int(sizes["records"])
        streams = int(sizes["streams"])
        self.seeds = [seed * streams + k for k in range(streams)]
        ref = references.get(self.name, {})
        self.reference = (
            ref.get("digests", {}).get(str(seed))
            if ref.get("sizes") == sizes else None
        )
        self.attempted = 1
        self.labels_digest: "str | None" = None

    @staticmethod
    def prepare(seed: int, sizes: dict) -> dict:
        return {}

    def _detector(self) -> VectorStrobeDetector:
        return VectorStrobeDetector(
            throughput_predicate(STREAM_N), {f"v{i}": 0 for i in range(STREAM_N)}
        )

    def setup(self) -> None:
        self._detector()

    def inputs(self) -> list[list]:
        return [synth_records(self.records, n=STREAM_N, seed=s,
                              race_frac=STREAM_RACE_FRAC) for s in self.seeds]

    def run(self, streams: list[list], lap) -> list:
        out = []
        for i, records in enumerate(streams):
            if i:
                lap()
            det = self._detector()
            det.feed_many(records)
            out.append(det.finalize())
        return out

    def check(self, detections: list) -> Rep:
        """The digest of all streams' detections must repeat every rep
        and, for seeds with a stored reference, equal it."""
        digest = _digest([detections_digest(d) for d in detections])
        if self.labels_digest is None:
            self.labels_digest = digest
        ok = digest == self.labels_digest
        if self.reference is not None:
            ok = ok and digest == self.reference
        return Rep(ops=self.records * len(self.seeds), attempted=1,
                   failed=0 if ok else 1)

    def checks(self) -> dict:
        return {"labels_digest": self.labels_digest,
                "reference": self.reference}


class ServeWal:
    """A fresh ``WalServer`` ingests the first ``records`` deliveries of
    the host-0 record stream of a ``hall`` run, then finalizes: every
    record is WAL-appended and fsync'd, with a checkpoint every
    ``checkpoint_every`` records.  A fixed record count keeps the
    quadratic checkpoint cost the same for every seed.  A segment is
    ``lap_every`` ingest calls; the last one includes ``finalize``."""

    name = "serve_wal"

    def __init__(self, seed: int, sizes: dict, inputs: dict, workdir: Path,
                 references: dict) -> None:
        self.manifest = _hall_manifest(seed, sizes["duration"])
        self.checkpoint_every = int(sizes["checkpoint_every"])
        self.lap_every = int(sizes["lap_every"])
        self.stream = inputs["stream"]
        self.reference = inputs["detections"]
        self.workdir = Path(workdir)
        self._dirs = itertools.count()
        self.attempted = len(self.stream)

    @staticmethod
    def prepare(seed: int, sizes: dict) -> dict:
        """The stream prefix, and the detections of the live online
        detector in the run that produced it, stopped at the prefix's
        last delivery and finalized there — the server's state at its
        own ``finalize``."""
        manifest = _hall_manifest(seed, sizes["duration"])
        prepared = prepare_execution(manifest)
        system = prepared.system
        stream: list[dict] = []

        def collect(record) -> None:
            stream.append(record_to_spec(record, arrival=system.sim.now))

        root = system.processes[0]
        root.add_record_listener(collect)
        root.add_strobe_listener(collect)
        prepared.scenario.run(manifest.duration)
        n = int(sizes["records"])
        if len(stream) < n:
            raise ValueError(f"hall seed {seed} delivers {len(stream)} < {n} records")
        live = prepare_execution(manifest)
        live.scenario.begin()
        live.system.run(until=stream[n - 1]["t"])
        live.detector.detector.finalize()
        return {
            "stream": stream[:n],
            "detections": _detection_keys(live.detector.detector.emissions),
        }

    def _server(self) -> WalServer:
        return WalServer(
            self.workdir / f"serve-{os.getpid()}-{next(self._dirs)}",
            manifest=self.manifest, checkpoint_every=self.checkpoint_every,
        )

    def setup(self) -> None:
        shutil.rmtree(self._server().dir)

    def inputs(self) -> list:
        return self.stream

    def run(self, stream: list, lap) -> WalServer:
        server = self._server()
        for i, spec in enumerate(stream, 1):
            server.ingest(spec)
            if i % self.lap_every == 0 and i < len(stream):
                lap()
        server.finalize()
        return server

    def check(self, server: WalServer) -> Rep:
        """Served detections must equal the live detector's; a mismatch
        fails every ingest call of the rep."""
        shutil.rmtree(server.dir)
        ok = _detection_keys(server.detector.emissions) == self.reference
        n = len(self.stream)
        return Rep(ops=n, attempted=n, failed=0 if ok else n)

    def checks(self) -> dict:
        return {"detections_digest": _digest(self.reference),
                "records": len(self.stream)}


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (HallOnline, StreamOffline, ServeWal)
}


def make(name: str, seed: int, sizes: dict, inputs: dict, workdir: Path,
         references: dict):
    """Construct a workload; ``inputs`` is what its ``prepare`` returned."""
    return WORKLOAD_CLASSES[name](seed, sizes, inputs, workdir, references)
