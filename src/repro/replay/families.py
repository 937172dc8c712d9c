"""Clock-family registry — one constructor per detection time model.

A manifest's ``clock_family`` names *which time model watches the
run*: the two online strobe detectors (vector / scalar, with their 2Δ
stability watermark and ``check_period`` flush timer), their offline
replay counterparts, and physical-clock replay.  The registry gives
record, replay and counterfactual execution one shared way to build,
attach and finalize whichever family a manifest names — a
counterfactual clock swap is nothing more than re-running with a
different registry entry.

Online families detect *during* the run and log detections through
the recorder they bind when they attach to an instrumented host
process, at emission time; offline families sort the complete
record stream *after* the run, so their detections are logged at
finalize with ``emit_time`` = end of run (there is no meaningful
earlier emission instant for a post-hoc replay detector).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.replay.manifest import CLOCK_FAMILIES, RunManifest

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.recorder import FlightRecorder


class BoundDetector:
    """A detector wired for one run, uniform across families.

    ``finalize`` returns the family's detections and, for offline
    families, logs them into the bound recorder (online families have
    already logged theirs at emission).
    """

    def __init__(
        self, detector: Any, *, online: bool, host: int,
        recorder: "FlightRecorder | None",
    ) -> None:
        self.detector = detector
        self.online = online
        self.host = host
        self._recorder = recorder
        self._final: "list[Any] | None" = None

    def finalize(self, *, end_time: float) -> list[Any]:
        if self._final is not None:
            return self._final
        detections = self.detector.finalize()
        if not self.online and self._recorder is not None:
            for d in detections:
                self._recorder.record_detection(
                    d, emit_time=end_time, host=self.host
                )
        self._final = list(detections)
        return self._final


def build_detector(
    manifest: RunManifest,
    scenario: Any,
    predicate: Any,
    initials: Mapping[str, Any],
    *,
    recorder: "FlightRecorder | None" = None,
    host: int = 0,
) -> BoundDetector:
    """Build, attach and (for online families) start the manifest's
    clock family on ``scenario``.  Attaching binds an online detector
    to the host process's observer; an offline one logs its detections
    to ``recorder`` at finalize."""
    family = manifest.clock_family
    if family not in CLOCK_FAMILIES:
        raise ValueError(f"unknown clock family {family!r}")
    sim = scenario.system.sim
    if family in ("vector_strobe", "scalar_strobe"):
        from repro.detect.online import (
            OnlineScalarStrobeDetector,
            OnlineVectorStrobeDetector,
        )

        cls = (
            OnlineVectorStrobeDetector
            if family == "vector_strobe" else OnlineScalarStrobeDetector
        )
        det = cls(
            sim, predicate, initials,
            delta=manifest.delta,
            check_period=manifest.check_period,
            liveness_horizon=manifest.liveness_horizon,
        )
        scenario.attach_detector(det, host=host)
        det.start()
        return BoundDetector(det, online=True, host=host, recorder=recorder)

    if family == "offline_vector_strobe":
        from repro.detect.strobe_vector import VectorStrobeDetector

        det = VectorStrobeDetector(predicate, initials)
    elif family == "offline_scalar_strobe":
        from repro.detect.strobe_scalar import ScalarStrobeDetector

        det = ScalarStrobeDetector(predicate, initials)
    else:  # "physical"
        from repro.detect.physical import PhysicalClockDetector

        det = PhysicalClockDetector(predicate, initials)
    scenario.attach_detector(det, host=host)
    return BoundDetector(det, online=False, host=host, recorder=recorder)


__all__ = ["BoundDetector", "build_detector"]
