"""ε-synchronized physical-clock detection (Mayo–Kearns / Stoller).

Each record carries the sensing process's *local* wall-clock reading
(synchronized to within skew ε by a protocol from
:mod:`repro.clocks.sync`, or not at all).  The observer sorts records
by reported timestamp and replays the global state along that total
order, reporting a detection at every rising edge of φ.

Accuracy: when two world events at different locations occur closer
together than the clock error, the reported order can invert the true
order, producing false positives *and* false negatives — the
"races" of §3.3 item 2; the classic bound is that predicate intervals
shorter than 2ε may be missed [28].  Experiment E1 sweeps exactly
this.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.detect.base import Detection, Detector
from repro.predicates.base import Predicate


class PhysicalClockDetector(Detector):
    """Replay-by-physical-timestamp detection of Instantaneously(φ)."""

    name = "physical"

    def __init__(self, predicate: Predicate, initials: Mapping[str, Any]) -> None:
        super().__init__(predicate, initials)

    def finalize(self) -> list[Detection]:
        records = self.store.all()
        missing = [r for r in records if r.physical is None]
        if missing:
            raise ValueError(
                f"{len(missing)} records lack physical stamps; configure "
                "ClockConfig(physical=True)"
            )
        # Total order: reported wall time, pid/seq tiebreak.
        ordered = sorted(records, key=lambda r: (r.physical, r.pid, r.seq))
        self.detections, _ = self._rising_edges(ordered, dict(self.initials), False)
        return self.detections


__all__ = ["PhysicalClockDetector"]
