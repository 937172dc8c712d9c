"""Counterfactual re-execution — swap the time model, keep the world.

The paper's spec-vs-implementation question ("which occurrences of φ
*would* this time model have detected?") becomes directly computable
once a run's world-plane stream is recorded: hold the §2.2 world
events fixed — replayed verbatim from the trace via
:class:`~repro.sim.schedule.RecordedSchedule`, with the scenario's
world generators switched off — and re-run the sensing, transport and
detection planes under a different clock family, Δ bound, detector
sync period, or fault plan.  Message *send order* follows from the
fixed world order (every strobe is caused by a sensed world change);
deliveries are re-derived under the new network model, which is
exactly the counterfactual being asked.

The result is a :class:`CounterfactualDiff`: every detection of either
run classified ``kept`` / ``appeared`` / ``disappeared``, and every
appeared/disappeared detection carrying a CausalGraph-attributed
explanation — the delivery path and latency split on the side where it
exists, and a sensed/dropped/delivered-but-judged-differently
classification on the side where it does not.

Limits vs. true re-simulation (see ``docs/replay.md``): actuation
feedback into the world is replayed, not re-derived — a counterfactual
that would have actuated differently still sees the recorded world.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.faults.plan import FaultError, FaultPlan
from repro.replay.engine import ReplayError
from repro.replay.manifest import CLOCK_FAMILIES, RunManifest
from repro.util.fields import Field, check_fields, is_bool, is_object, is_real, is_str

#: Tolerance when matching sense times across runs (trace times are
#: exact binary floats from one kernel, so this is belt and braces).
_T_EPS = 1e-9


#: Field checks of a decoded counterfactual spec (every field optional).
_SPEC_FIELDS: dict[str, Field] = {
    "clock_family": (False, is_str, "a string"),
    "delta": (False, is_real, "a finite number"),
    "check_period": (False, is_real, "a finite number"),
    "plan": (False, is_object, "an object"),
    "drop_plan": (False, is_bool, "a boolean"),
    "liveness_horizon": (False, is_real, "a finite number"),
    "set_liveness_horizon": (False, is_bool, "a boolean"),
}


@dataclass(frozen=True, slots=True)
class CounterfactualSpec:
    """What to swap.  ``None`` means *keep the recorded value*.

    ``plan`` replaces the fault plan; ``drop_plan`` removes it (the
    two are mutually exclusive).  ``liveness_horizon`` needs its own
    presence flag because ``None`` is a meaningful value (disable the
    liveness bound).
    """

    clock_family: "str | None" = None
    delta: "float | None" = None
    check_period: "float | None" = None
    plan: "FaultPlan | None" = None
    drop_plan: bool = False
    liveness_horizon: "float | None" = None
    set_liveness_horizon: bool = False

    def __post_init__(self) -> None:
        if self.clock_family is not None and self.clock_family not in CLOCK_FAMILIES:
            raise ValueError(
                f"unknown clock family {self.clock_family!r} "
                f"(have {', '.join(CLOCK_FAMILIES)})"
            )
        if self.delta is not None and not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.check_period is not None \
                and not 0 < self.check_period < math.inf:
            raise ValueError(
                f"check_period must be positive, got {self.check_period}"
            )
        if self.plan is not None and self.drop_plan:
            raise ValueError("plan and drop_plan are mutually exclusive")
        if self.liveness_horizon is not None and not self.set_liveness_horizon:
            raise ValueError(
                "set set_liveness_horizon=True to change the liveness horizon"
            )

    def is_identity(self) -> bool:
        return (
            self.clock_family is None and self.delta is None
            and self.check_period is None and self.plan is None
            and not self.drop_plan and not self.set_liveness_horizon
        )

    def apply(self, manifest: RunManifest) -> RunManifest:
        """The swapped manifest for the counterfactual run."""
        changes: dict[str, Any] = {}
        if self.clock_family is not None:
            changes["clock_family"] = self.clock_family
        if self.delta is not None:
            changes["delta"] = self.delta
        if self.check_period is not None:
            changes["check_period"] = self.check_period
        if self.drop_plan:
            changes["plan"] = None
        elif self.plan is not None:
            changes["plan"] = self.plan
        if self.set_liveness_horizon:
            changes["liveness_horizon"] = self.liveness_horizon
        return manifest.with_(**changes)

    # -- serialization --------------------------------------------------
    def to_spec(self) -> dict[str, Any]:
        return {
            "clock_family": self.clock_family,
            "delta": self.delta if self.delta is None else float(self.delta),
            "check_period": (
                self.check_period
                if self.check_period is None else float(self.check_period)
            ),
            "plan": self.plan.to_spec() if self.plan is not None else None,
            "drop_plan": bool(self.drop_plan),
            "liveness_horizon": (
                self.liveness_horizon
                if self.liveness_horizon is None
                else float(self.liveness_horizon)
            ),
            "set_liveness_horizon": bool(self.set_liveness_horizon),
        }

    @staticmethod
    def from_spec(spec: Mapping[str, Any]) -> "CounterfactualSpec":
        """The spec of a decoded object; ``ValueError`` if it is not one."""
        try:
            check_fields(spec, _SPEC_FIELDS)
            plan = FaultPlan.from_spec(spec["plan"]) if spec.get("plan") else None
        except (TypeError, FaultError) as exc:
            raise ValueError(f"counterfactual {exc}") from exc
        given = {k: v for k, v in spec.items() if k in _SPEC_FIELDS and v is not None}
        return CounterfactualSpec(**{**given, "plan": plan})

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "CounterfactualSpec":
        return CounterfactualSpec.from_spec(json.loads(text))


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

#: A detection's cross-run identity: sense true-time, origin pid,
#: variable, value repr.  (pid, seq) keys do NOT survive a fault-plan
#: swap — removing a crash shifts later sense seqs — but the world
#: stream is fixed, so the sense *time* is the stable anchor.
DetKey = "tuple[float, int, str, str]"


@dataclass
class CounterfactualDiff:
    """Every detection of either run, classified."""

    baseline_manifest: dict[str, Any]
    spec: dict[str, Any]
    counterfactual_manifest: dict[str, Any]
    kept: list[dict[str, Any]] = field(default_factory=list)
    appeared: list[dict[str, Any]] = field(default_factory=list)
    disappeared: list[dict[str, Any]] = field(default_factory=list)
    world_events: int = 0

    def to_report(self) -> dict[str, Any]:
        return {
            "baseline_manifest": self.baseline_manifest,
            "spec": self.spec,
            "counterfactual_manifest": self.counterfactual_manifest,
            "world_events": self.world_events,
            "counts": {
                "kept": len(self.kept),
                "appeared": len(self.appeared),
                "disappeared": len(self.disappeared),
            },
            "kept": self.kept,
            "appeared": self.appeared,
            "disappeared": self.disappeared,
        }


def _det_key(graph: Any, det: Mapping[str, Any]) -> "tuple | None":
    """(sense_t, pid, var, value) identity of one detection entry, or
    None when the sense event is missing from its own trace."""
    from repro.trace import TraceError

    try:
        sense = graph.sense_event(tuple(det["trigger"]))
    except TraceError:
        return None
    return (round(sense.t, 9), int(det["trigger"][0]), det["var"], det["value"])


def _presence_explanation(
    graph: Any, det: Mapping[str, Any]
) -> dict[str, Any]:
    """Why the detection exists on this side: exact delivery path and
    latency split from the CausalGraph."""
    from repro.trace import TraceError

    try:
        attribution = graph.attribute_latency(det)
    except TraceError as exc:
        return {"error": str(exc)}
    return attribution


def _absence_explanation(
    graph: Any, key: "tuple", det: Mapping[str, Any]
) -> dict[str, Any]:
    """Why the detection is missing on this side, classified against
    this side's CausalGraph: never sensed, dropped in transit, or
    delivered but judged differently by the detector."""
    sense_t, pid, _var, _value = key
    host = int(det["host"])
    candidates = [
        e for e in graph.events()
        if e.kind == "n" and e.pid == pid and abs(e.t - sense_t) <= _T_EPS
    ]
    if not candidates:
        return {
            "reason": "never_sensed",
            "detail": (
                f"p{pid} records no sense event at t={sense_t}: the "
                "process was crashed or the sensing path was suppressed "
                "under this run's fault plan"
            ),
        }
    sense = min(candidates, key=lambda e: e.gseq)
    out: dict[str, Any] = {"sense_gseq": sense.gseq, "sense_t": sense.t}
    if pid == host:
        out.update(
            reason="not_detected",
            detail=(
                f"sensed locally at the host p{host} but not emitted: the "
                "detector's ordering/stability judgment differs under this "
                "time model"
            ),
        )
        return out
    received = [
        e for e in graph.events()
        if e.kind == "r" and e.pid == host and e.digest == sense.digest
    ]
    if received:
        first = min(received, key=lambda e: e.gseq)
        out.update(
            reason="not_detected",
            received_gseq=first.gseq,
            received_t=first.t,
            detail=(
                f"delivered to p{host} at t={first.t} but not emitted: the "
                "detector's ordering/stability judgment differs under this "
                "time model"
            ),
        )
        return out
    drops = [
        e for e in graph.events()
        if e.kind == "drop" and e.pid == host and e.digest == sense.digest
    ]
    if drops:
        first = min(drops, key=lambda e: e.gseq)
        out.update(
            reason="dropped",
            drop=first.drop,
            drop_t=first.t,
            detail=(
                f"record left p{pid} but was dropped at p{host} "
                f"({first.drop}) at t={first.t}"
            ),
        )
        return out
    out.update(
        reason="undelivered",
        detail=(
            f"sensed at p{pid} but never delivered to or dropped at "
            f"p{host} (still in flight at end of run, or never sent)"
        ),
    )
    return out


def diff_detections(
    baseline_graph: Any,
    baseline_detections: "list[dict[str, Any]]",
    cf_graph: Any,
    cf_detections: "list[dict[str, Any]]",
) -> "tuple[list, list, list]":
    """(kept, appeared, disappeared) with per-change explanations."""
    base_by_key: dict[tuple, dict[str, Any]] = {}
    for det in baseline_detections:
        key = _det_key(baseline_graph, det)
        if key is not None:
            base_by_key.setdefault(key, dict(det))
    cf_by_key: dict[tuple, dict[str, Any]] = {}
    for det in cf_detections:
        key = _det_key(cf_graph, det)
        if key is not None:
            cf_by_key.setdefault(key, dict(det))

    kept, appeared, disappeared = [], [], []
    for key in sorted(base_by_key):
        det = base_by_key[key]
        entry = {"key": list(key), "detection": det}
        if key in cf_by_key:
            cf_det = cf_by_key[key]
            entry["counterfactual"] = {
                "label": cf_det["label"],
                "emit_time": cf_det["emit_time"],
                "detector": cf_det["detector"],
            }
            kept.append(entry)
        else:
            entry["explanation"] = {
                "baseline": _presence_explanation(baseline_graph, det),
                "counterfactual": _absence_explanation(cf_graph, key, det),
            }
            disappeared.append(entry)
    for key in sorted(cf_by_key):
        if key in base_by_key:
            continue
        det = cf_by_key[key]
        appeared.append({
            "key": list(key),
            "detection": det,
            "explanation": {
                "counterfactual": _presence_explanation(cf_graph, det),
                "baseline": _absence_explanation(baseline_graph, key, det),
            },
        })
    return kept, appeared, disappeared


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_counterfactual(
    trace_path: "str | Any", spec: CounterfactualSpec
) -> CounterfactualDiff:
    """Re-execute a recorded trace under ``spec``'s swapped time model.

    The recorded world-plane stream is replayed verbatim (generators
    off); sensing, strobes, deliveries and detection are re-derived
    under the swapped model.  Returns the classified diff.
    """
    from repro.replay.families import build_detector
    from repro.scenarios.builders import build_scenario
    from repro.sim.schedule import RecordedSchedule
    from repro.obs import Observability, instrument
    from repro.trace import CausalGraph, FlightRecorder
    from repro.trace.export import read_trace

    from repro.replay.engine import ReplayEngine

    engine = ReplayEngine()
    manifest = engine.manifest_of(trace_path)
    trace = read_trace(trace_path)
    if not trace.world:
        raise ReplayError(
            f"{trace_path}: trace carries no world-plane stream "
            "(format_version 1?); counterfactual re-execution needs the "
            "recorded world events — re-record with the current version"
        )
    if int(trace.summary.get("world_opaque", 0)) > 0:
        raise ReplayError(
            f"{trace_path}: {trace.summary['world_opaque']} world value(s) "
            "were not JSON-native scalars and cannot be replayed"
        )

    cf_manifest = spec.apply(manifest)
    try:
        scenario, phi, initials = build_scenario(
            cf_manifest.scenario, seed=cf_manifest.seed, delta=cf_manifest.delta
        )
    except ValueError as exc:
        raise ReplayError(str(exc)) from exc
    system = scenario.system
    recorder = FlightRecorder(system.sim, capacity=cf_manifest.capacity)
    instrument(system, Observability(recorder=recorder))
    bound = build_detector(
        cf_manifest, scenario, phi, initials, recorder=recorder, host=0
    )
    if cf_manifest.plan is not None:
        from repro.faults import FaultInjector

        FaultInjector(system, cf_manifest.plan).arm()
    schedule = RecordedSchedule(trace.world)
    schedule.arm(system.sim, system.world)
    # Generators stay off: the world plane is the recorded stream, so
    # we drive the kernel directly instead of scenario.run().
    system.run(until=cf_manifest.duration)
    bound.finalize(end_time=cf_manifest.duration)

    baseline_graph = CausalGraph(trace.events)
    cf_graph = CausalGraph(recorder.events())
    kept, appeared, disappeared = diff_detections(
        baseline_graph, trace.detections, cf_graph, recorder.detections
    )
    return CounterfactualDiff(
        baseline_manifest=manifest.to_spec(),
        spec=spec.to_spec(),
        counterfactual_manifest=cf_manifest.to_spec(),
        kept=kept,
        appeared=appeared,
        disappeared=disappeared,
        world_events=len(trace.world),
    )


__all__ = [
    "CounterfactualSpec",
    "CounterfactualDiff",
    "run_counterfactual",
    "diff_detections",
]
