"""Deterministic re-execution of recorded runs.

:class:`ReplayEngine` turns a :class:`~repro.replay.manifest.RunManifest`
back into a live run: rebuild the named scenario profile from the
recorded seed, attach a fresh flight recorder and the manifest's clock
family, arm the recorded fault plan, run for the recorded duration.
Because a run is a pure function of ``(config, seed)`` and recording
is passive, the re-execution *is* the original run — and
:meth:`ReplayEngine.verify` proves it, byte for byte, against the
recorded trace file.

Record and replay share this one code path on purpose:
``repro trace record`` builds a manifest and calls
:meth:`ReplayEngine.execute`, so there is no "recording variant" of
the run for replay to drift from.

When verification fails, the report names the first diverging line
(recorded vs. replayed bytes) and walks the recorded
:class:`~repro.trace.graph.CausalGraph` to show the causal history the
diverging event depends on — plus whether the code digest still
matches, so a code change is never mistaken for nondeterminism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.replay.families import BoundDetector, build_detector
from repro.replay.manifest import RunManifest, code_digest


class ReplayError(ValueError):
    """A trace cannot be replayed (no manifest, truncated history,
    opaque world values, unknown profile)."""


@dataclass
class ExecutionResult:
    """One engine execution: the rebuilt scenario, its recorder, and
    the finalized detections."""

    manifest: RunManifest
    scenario: Any
    recorder: Any
    detector: BoundDetector
    detections: list = field(default_factory=list)
    injector: Any = None

    @property
    def trace_lines(self) -> list[str]:
        from repro.trace.export import trace_jsonl_lines

        return trace_jsonl_lines(self.recorder)


@dataclass
class PreparedExecution:
    """A manifest's run, fully wired but not yet executed.

    ``prepare_execution`` builds everything :meth:`ReplayEngine.execute`
    needs *before* the run loop starts — scenario, recorder, bound
    detector, armed injector — and ``finalize_execution`` performs the
    post-run steps.  The split exists for :mod:`repro.recover`, whose
    checkpointed partial runs interleave bounded stepping between the
    same preparation and finalization, so a resumed run shares the
    record/replay code path byte for byte.
    """

    manifest: RunManifest
    scenario: Any
    predicate: Any
    initials: Any
    recorder: Any
    detector: BoundDetector
    injector: Any = None

    @property
    def system(self) -> Any:
        return self.scenario.system


def prepare_execution(manifest: RunManifest) -> PreparedExecution:
    """Build and wire (but do not run) the manifest's scenario."""
    from repro.scenarios.builders import build_scenario
    from repro.obs import Observability, instrument
    from repro.trace import FlightRecorder

    try:
        scenario, phi, initials = build_scenario(
            manifest.scenario, seed=manifest.seed, delta=manifest.delta
        )
    except ValueError as exc:
        raise ReplayError(str(exc)) from exc
    system = scenario.system
    recorder = FlightRecorder(system.sim, capacity=manifest.capacity)
    instrument(system, Observability(recorder=recorder))
    bound = build_detector(
        manifest, scenario, phi, initials, recorder=recorder, host=0
    )
    injector = None
    if manifest.plan is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(system, manifest.plan)
        injector.arm()
    return PreparedExecution(
        manifest=manifest, scenario=scenario, predicate=phi,
        initials=initials, recorder=recorder, detector=bound,
        injector=injector,
    )


def finalize_execution(prepared: PreparedExecution) -> ExecutionResult:
    """Post-run steps shared by full and checkpoint-resumed runs:
    finalize the detector and stamp the recorder's meta purely from
    the manifest (so trace bytes stay a function of the manifest)."""
    manifest = prepared.manifest
    detections = prepared.detector.finalize(end_time=manifest.duration)
    prepared.recorder.meta.update({
        "scenario": manifest.scenario,
        "seed": manifest.seed,
        "delta": manifest.delta,
        "duration": manifest.duration,
        "predicate": str(prepared.predicate),
        "clock_family": manifest.clock_family,
        "manifest": manifest.to_spec(),
    })
    if manifest.plan is not None:
        prepared.recorder.meta["plan"] = manifest.plan.to_spec()
    return ExecutionResult(
        manifest=manifest, scenario=prepared.scenario,
        recorder=prepared.recorder, detector=prepared.detector,
        detections=list(detections), injector=prepared.injector,
    )


class ReplayEngine:
    """Execute manifests; verify recorded traces against re-execution."""

    def execute(self, manifest: RunManifest) -> ExecutionResult:
        """Run the manifest end to end and return the result.

        This is the *shared* record/replay path: the recorder's meta is
        fully derived from the manifest, so two executions of the same
        manifest produce byte-identical trace lines.
        """
        prepared = prepare_execution(manifest)
        prepared.scenario.run(manifest.duration)
        return finalize_execution(prepared)

    # ------------------------------------------------------------------
    def manifest_of(self, trace_path: "str | Path") -> RunManifest:
        """The manifest embedded in a trace file; refuses traces that
        cannot be replayed faithfully."""
        from repro.trace.export import read_trace

        trace = read_trace(trace_path)
        if trace.truncated:
            raise ReplayError(
                f"{trace_path}: trace history is truncated (ring overflow "
                "evicted events); a replay could not be compared against "
                "it — re-record with a larger --capacity"
            )
        spec = trace.manifest_spec
        if spec is None:
            raise ReplayError(
                f"{trace_path}: trace carries no replay manifest "
                "(recorded by an older version, or hand-built); "
                "re-record it with `repro trace record`"
            )
        try:
            return RunManifest.from_spec(spec)
        except ValueError as exc:
            raise ReplayError(
                f"{trace_path}: malformed replay manifest: {exc}"
            ) from exc

    def verify(self, trace_path: "str | Path") -> dict[str, Any]:
        """Re-execute a recorded trace and prove bit-identity.

        Returns a JSON-safe report.  ``identical`` is True when the
        re-recorded trace is byte-identical to the file (which implies
        identical detections).  Otherwise the report carries the first
        diverging line, its tie-break/structural ``kind``, and
        CausalGraph context.
        """
        manifest = self.manifest_of(trace_path)
        recorded_lines = [
            line for line in Path(trace_path).read_text().splitlines()
            if line.strip()
        ]
        result = self.execute(manifest)
        replayed_lines = result.trace_lines
        digest_now = code_digest()
        report: dict[str, Any] = {
            "trace": str(trace_path),
            "scenario": manifest.scenario,
            "clock_family": manifest.clock_family,
            "recorded_lines": len(recorded_lines),
            "replayed_lines": len(replayed_lines),
            "detections": len(result.detections),
            "code_digest_recorded": manifest.code_digest,
            "code_digest_now": digest_now,
            "code_digest_match": manifest.code_digest == digest_now,
        }
        from repro.trace.export import first_divergence

        div = first_divergence(recorded_lines, replayed_lines)
        report["identical"] = div is None
        if div is not None:
            report["divergence"] = {
                "lineno": div["lineno"],
                "recorded": div["a"],
                "replayed": div["b"],
                "kind": div["kind"],
                "causal_context": self._causal_context(trace_path, div["a"]),
            }
        return report

    def _causal_context(
        self, trace_path: "str | Path", line: "str | None"
    ) -> list[dict[str, Any]]:
        """The recorded causal-history tail of a diverging event line —
        the last few events the recorded run says it depended on."""
        if line is None:
            return []
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            return []
        gseq = row.get("gseq")
        if gseq is None or row.get("kind") not in (
            "c", "n", "a", "s", "r", "drop"
        ):
            return []
        from repro.trace import CausalGraph, TraceError, read_trace

        try:
            graph = CausalGraph(read_trace(trace_path).events)
            history = graph.causal_history(int(gseq))
        except TraceError:
            return []
        return [
            {
                "gseq": e.gseq, "pid": e.pid, "kind": e.kind, "t": e.t,
                "digest": e.digest, "mid": e.mid,
            }
            for e in history[-6:]
        ]


__all__ = [
    "ReplayEngine",
    "ReplayError",
    "ExecutionResult",
    "PreparedExecution",
    "prepare_execution",
    "finalize_execution",
]
