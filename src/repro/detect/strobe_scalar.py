"""Scalar-strobe detection — the lightweight option of [25].

Records are stamped with the strobe scalar clock (SSC1–SSC2).  The
observer sorts by ``(clock value, pid, seq)`` — a linearization
consistent with each process's local order (local strobe values are
strictly increasing) and with the strobe-induced catch-up order — and
replays the global state, reporting rising edges of φ.

Accuracy (§3.3): scalar strobes carry no concurrency information, so
races within Δ can be serialized in the wrong order.  This yields both
false negatives *and* false positives, whereas vector strobes avoid
transient states that provably never co-existed.  Experiment E2
compares the two.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.records import SensedEventRecord
from repro.detect.base import Detection, Detector
from repro.predicates.base import Predicate


class ScalarStrobeDetector(Detector):
    """Replay-by-scalar-strobe detection of Instantaneously(φ)."""

    name = "strobe_scalar"

    def __init__(self, predicate: Predicate, initials: Mapping[str, Any]) -> None:
        super().__init__(predicate, initials)

    @staticmethod
    def _sort_key(r: SensedEventRecord):
        return (r.strobe_scalar.value, r.pid, r.seq)

    def frontier_snapshot(self) -> dict[str, Any]:
        """Base summary plus the (value, pid, seq) linearization tail."""
        snap = super().frontier_snapshot()
        records = [r for r in self.store.all() if r.strobe_scalar is not None]
        snap["linearization_tail"] = (
            list(max(map(self._sort_key, records))) if records else None
        )
        return snap

    def finalize(self) -> list[Detection]:
        records = self.store.all()
        missing = [r for r in records if r.strobe_scalar is None]
        if missing:
            raise ValueError(
                f"{len(missing)} records lack strobe_scalar stamps; configure "
                "ClockConfig(strobe_scalar=True)"
            )
        ordered = sorted(records, key=self._sort_key)
        self.detections, _ = self._rising_edges(ordered, dict(self.initials), False)
        return self.detections


__all__ = ["ScalarStrobeDetector"]
