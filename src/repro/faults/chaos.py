"""The chaos harness: certify §4.2.2's *no-ripple* claim.

    "a message loss may result in the wrong detection of the predicate
    in the temporal vicinity of the lost message.  However, there will
    be no long-term ripple effects."

:func:`run_chaos` runs a scenario twice from the same seed — once
fault-free, once under a :class:`~repro.faults.plan.FaultPlan` — and
compares the two online-detection streams.  World randomness lives on
substreams independent of the network and fault streams, so the two
runs share the *same ground truth*; every detection mismatch is
attributable to the injected faults alone.

The ripple check: every mismatch must fall inside a fault window or
within ``ripple_horizon`` seconds after its clearing action.  A
mismatch *before* the first fault (un-attributable) or long after the
last clear (a ripple) fails the run.

Detections are compared as a multiset of ``(true_time, pid, var,
value)`` keys — the detection *label* (FIRM vs BORDERLINE) is
deliberately excluded, since a lost strobe legitimately flips
concurrency information without being a "wrong detection" in the
paper's sense, and sequence numbers shift after a restart.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.faults.plan import FaultPlan, FaultWindow, window_at

#: Quarantine horizon used by the chaos detectors (advisory; motion
#: gaps in the office run tens of seconds, so keep this generous).
LIVENESS_HORIZON = 30.0


def default_plan() -> FaultPlan:
    """The canned everything-at-once plan: crash→restart, partition→
    heal, burst loss, a drift spike, and a strobe register glitch —
    one of each §4.2.2 failure class in a single run."""
    from repro.faults.plan import FaultEvent

    return FaultPlan(
        name="default",
        events=(
            FaultEvent(40.0, "crash", {"pid": 1, "mode": "recover"}, duration=12.0),
            FaultEvent(70.0, "partition", {"groups": [[0], [1]]}, duration=10.0),
            FaultEvent(95.0, "burst_loss",
                       {"p_bad": 0.9, "p_bg": 0.05, "start_bad": True},
                       duration=10.0),
            FaultEvent(110.0, "clock_drift", {"pid": 0, "delta_ppm": 400.0},
                       duration=10.0),
            FaultEvent(125.0, "strobe_perturb", {"pid": 1, "ticks": 3}),
        ),
    )


#: Chaos scenario name → builders profile.  Only profiles whose
#: fault-free run consumes no network randomness qualify (synchronous
#: delay, no loss): the fault plan must not shift any model rng stream,
#: or baseline-vs-faulty mismatches would stop being attributable to
#: the faults.
_PROFILE_BY_SCENARIO = {"smart_office": "smart_office_chaos"}


def _run_once(
    scenario: str,
    seed: int,
    duration: float,
    plan: FaultPlan | None,
    trace_capacity: int | None = None,
) -> "tuple[dict[str, Any], Any]":
    """One run; returns (result, recorder-or-None).

    Each run goes through :class:`~repro.replay.engine.ReplayEngine`
    with a full :class:`~repro.replay.manifest.RunManifest`, so a trace
    recorded here verifies bit-identically under ``repro replay
    verify`` and feeds counterfactual re-execution directly.  The
    flight recorder is passive, so the result is identical whether or
    not ``trace_capacity`` asks to keep it — the twin-run test pins
    this.
    """
    from repro.replay.engine import ReplayEngine
    from repro.replay.manifest import RunManifest, code_digest

    profile = _PROFILE_BY_SCENARIO.get(scenario)
    if profile is None:
        raise ValueError(f"unknown chaos scenario {scenario!r}")
    manifest = RunManifest(
        scenario=profile,
        seed=seed,
        duration=duration,
        delta=0.0,
        clock_family="vector_strobe",
        check_period=0.1,
        capacity=trace_capacity if trace_capacity is not None else 65536,
        liveness_horizon=LIVENESS_HORIZON,
        plan=plan,
        code_digest=code_digest(),
    )
    run = ReplayEngine().execute(manifest)
    det = run.detector.detector
    system = run.scenario.system
    injector = run.injector
    recorder = run.recorder if trace_capacity is not None else None
    stats = system.net.stats
    result = {
        "detections": [
            (round(d.trigger.true_time, 9), d.trigger.pid, d.trigger.var,
             repr(d.trigger.value))
            for d in det.detections
        ],
        "labels": [d.label.name for d in det.detections],
        "late_records": det.late_records,
        "quarantine_events": det.quarantine_events,
        "restarts": sum(p.restarts for p in system.processes),
        "net": {
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped_loss": stats.dropped_loss,
            "dropped_partition": stats.dropped_partition,
            "dropped_crashed": stats.dropped_crashed,
            "dropped_burst": stats.dropped_burst,
        },
        "faults_applied": list(injector.applied) if injector else [],
    }
    return result, recorder


def _attribute(
    times: list[float], windows: list[FaultWindow], horizon: float, duration: float
) -> tuple[list[dict[str, Any]], list[float], bool]:
    """Assign each mismatch time to the latest window that started at
    or before it; compute per-window error-window lengths."""
    per_window: list[list[float]] = [[] for _ in windows]
    unattributed: list[float] = []
    for t in sorted(times):
        best = window_at(windows, t)
        if best < 0:
            unattributed.append(t)
        else:
            per_window[best].append(t)
    rows: list[dict[str, Any]] = []
    all_ok = not unattributed
    for w, ts in zip(windows, per_window):
        clear = min(w.clear, duration)
        last = max(ts) if ts else None
        err = max(0.0, last - clear) if last is not None else 0.0
        ok = err <= horizon
        all_ok = all_ok and ok
        rows.append({
            "action": w.action,
            "start": w.start,
            "clear": clear,
            "params": dict(w.params),
            "mismatches": len(ts),
            "last_mismatch": last,
            "error_window_s": round(err, 9),
            "ok": ok,
        })
    return rows, unattributed, all_ok


def run_chaos(
    scenario: str = "smart_office",
    *,
    seed: int = 0,
    duration: float = 180.0,
    plan: FaultPlan | None = None,
    ripple_horizon: float = 20.0,
    trace_capacity: int | None = None,
) -> dict[str, Any]:
    """Run the scenario fault-free and under ``plan``; return the
    chaos report (JSON-serializable, fully deterministic — no wall
    times, no environment state).

    With ``trace_capacity``, both runs carry a flight recorder and the
    report gains a non-serialized ``recorders`` entry —
    ``(baseline, faulty)`` :class:`~repro.trace.recorder.FlightRecorder`
    pair — for `repro trace diff`-style twin analysis.  Strip it (or
    use :func:`report_json`, which ignores it) before serializing.
    """
    if plan is None:
        plan = default_plan()
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if ripple_horizon < 0:
        raise ValueError(f"ripple_horizon must be >= 0, got {ripple_horizon}")

    base, base_rec = _run_once(scenario, seed, duration, None, trace_capacity)
    faulty, faulty_rec = _run_once(scenario, seed, duration, plan, trace_capacity)

    base_keys = Counter(tuple(k) for k in base["detections"])
    fault_keys = Counter(tuple(k) for k in faulty["detections"])
    missing = base_keys - fault_keys     # in baseline, lost under faults
    spurious = fault_keys - base_keys    # only under faults

    times: list[float] = []
    for key, count in sorted(missing.items()):
        times.extend([key[0]] * count)
    for key, count in sorted(spurious.items()):
        times.extend([key[0]] * count)

    windows, unattributed, ripple_ok = _attribute(
        times, plan.windows(), ripple_horizon, duration
    )

    def _summary(run: dict[str, Any]) -> dict[str, Any]:
        out = dict(run)
        out["detections"] = len(run["detections"])
        del out["labels"]
        return out

    report: dict[str, Any] = {
        "scenario": scenario,
        "seed": seed,
        "duration": duration,
        "ripple_horizon": ripple_horizon,
        "plan": plan.to_spec(),
        "baseline": _summary(base),
        "faulty": _summary(faulty),
        "mismatches": {
            "missing": sum(missing.values()),
            "spurious": sum(spurious.values()),
            "times": [round(t, 9) for t in sorted(times)],
        },
        "windows": windows,
        "unattributed": [round(t, 9) for t in unattributed],
        "ripple_ok": ripple_ok,
    }
    if trace_capacity is not None:
        report["recorders"] = (base_rec, faulty_rec)
    return report


def report_json(report: dict[str, Any]) -> str:
    """Canonical JSON for the chaos report — the byte-identical
    artifact CI compares across runs and worker counts.  The live
    ``recorders`` entry (present on traced runs) is excluded."""
    return json.dumps(
        {k: v for k, v in report.items() if k != "recorders"},
        sort_keys=True, separators=(",", ":"),
    )


__all__ = [
    "LIVENESS_HORIZON",
    "default_plan",
    "run_chaos",
    "report_json",
]
