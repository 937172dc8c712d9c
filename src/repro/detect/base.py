"""Detector interfaces and shared machinery."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Any, Iterable, Mapping

from repro.core.records import SensedEventRecord
from repro.predicates.base import Predicate


class DetectionLabel(Enum):
    """Confidence class of a detection (§5's "borderline bin").

    * ``FIRM`` — every ordering of the racing events yields φ true.
    * ``BORDERLINE`` — φ's truth depends on how a race resolves; the
      application chooses how to treat these ("to err on the safe
      side, such entries can be treated as positives", §5).
    """

    FIRM = "firm"
    BORDERLINE = "borderline"


@dataclass(frozen=True, slots=True)
class Detection:
    """One reported occurrence of the predicate.

    Attributes
    ----------
    detector:
        Emitting detector's name.
    trigger:
        The record whose application made φ (appear to become) true.
        ``trigger.true_time`` is used *only* by the scoring oracle.
    env:
        The variable environment at detection.
    label:
        FIRM or BORDERLINE.
    detail:
        Free-form extra info (race set size, interval combination...).
    """

    detector: str
    trigger: SensedEventRecord
    env: dict
    label: DetectionLabel = DetectionLabel.FIRM
    detail: Any = None

    @property
    def firm(self) -> bool:
        return self.label is DetectionLabel.FIRM


#: Length of :meth:`RecordStore.keys_tail`, the frontier snapshot's
#: ``record_keys_tail``.
TAIL_KEYS = 8


class RecordStore:
    """Deduplicating accumulator of sensed records.

    A record may reach a detector several times (once per strobe copy
    when the detector taps several processes, or via both the local and
    the strobe path at the root); the store keeps the first copy of
    each ``(pid, seq)``.
    """

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], SensedEventRecord] = {}
        #: :meth:`keys_tail` as of the first ``_tail_len`` records
        self._tail: list[tuple[int, int]] = []
        self._tail_len = 0
        self.duplicates = 0

    def add(self, record: SensedEventRecord) -> bool:
        """Returns True if the record was new."""
        key = record.key()
        if key in self._records:
            self.duplicates += 1
            return False
        self._records[key] = record
        return True

    def __len__(self) -> int:
        return len(self._records)

    def keys_tail(self) -> list[tuple[int, int]]:
        """The :data:`TAIL_KEYS` largest ``(pid, seq)`` identities,
        ascending (``sorted(keys)[-TAIL_KEYS:]``).  Reads only the keys
        added since the last call: the store never drops a record, and
        a dict iterates in insertion order."""
        fresh = len(self._records) - self._tail_len
        if fresh:
            added = islice(reversed(self._records), fresh)
            self._tail = sorted([*self._tail, *added])[-TAIL_KEYS:]
            self._tail_len = len(self._records)
        return list(self._tail)

    def all(self) -> list[SensedEventRecord]:
        """Records sorted by (pid, seq)."""
        return [self._records[k] for k in sorted(self._records)]

    def by_process(self, n: int) -> list[list[SensedEventRecord]]:
        """Per-process record lists in seq order."""
        out: list[list[SensedEventRecord]] = [[] for _ in range(n)]
        for (pid, _), rec in sorted(self._records.items()):
            out[pid].append(rec)
        return out


class Detector:
    """Base class: feed records in, call finalize() for detections.

    Online detectors may also emit during :meth:`feed`; ``detections``
    accumulates everything.
    """

    name = "detector"
    #: pid of the process this detector is attached to
    _host = 0

    def __init__(self, predicate: Predicate, initials: Mapping[str, Any]) -> None:
        missing = [v for v in predicate.variables if v not in initials]
        if missing:
            raise ValueError(
                f"initial values required for all predicate variables; missing {missing}"
            )
        self.predicate = predicate
        self.initials = dict(initials)
        self.store = RecordStore()
        self.detections: list[Detection] = []

    # -- ingestion ------------------------------------------------------
    def feed(self, record: SensedEventRecord) -> None:
        """Ingest one record (order-insensitive)."""
        self.store.add(record)

    def feed_many(self, records: Iterable[SensedEventRecord]) -> None:
        for r in records:
            self.feed(r)

    def attach(self, process, *, local: bool = True, strobes: bool = True) -> None:
        """Tap a :class:`~repro.core.process.SensorProcess` so its
        record streams flow into this detector, and bind the process's
        observer (if any) with this detector hosted at its pid."""
        if local:
            process.add_record_listener(self.feed)
        if strobes:
            process.add_strobe_listener(self.feed)
        self._host = process.pid
        if process.observer is not None:
            self.bind_observer(process.observer)

    def bind_observer(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability`; the base
        detector has nothing to observe."""

    # -- finalization ----------------------------------------------------
    def finalize(self) -> list[Detection]:
        """Run/complete detection; returns all detections."""
        raise NotImplementedError

    # -- recovery ---------------------------------------------------------
    def frontier_snapshot(self) -> dict[str, Any]:
        """JSON-safe summary of the detector's ingestion frontier.

        The base form covers what every detector holds: the dedup
        store and the detections emitted so far.  Online detectors
        extend it with their watermark state (:mod:`repro.detect.online`).
        Consumed by :mod:`repro.recover` as a state *certificate* —
        two runs with equal snapshots continue identically.
        """
        return {
            "name": self.name,
            "records": len(self.store),
            "record_keys_tail": [list(k) for k in self.store.keys_tail()],
            "duplicates": self.store.duplicates,
            "detections": len(self.detections),
        }

    # -- shared rising-edge step -----------------------------------------
    def _rising_edges(
        self,
        ordered: Iterable[SensedEventRecord],
        env: dict,
        prev: bool,
        detail: dict | None = None,
    ) -> tuple[list[Detection], bool]:
        """Apply ``ordered`` records to ``env`` in turn and return a FIRM
        detection at every record where φ turns true, and φ after the
        last record.  ``prev`` is φ before the first; a record where φ
        is undefined leaves it as it was.  ``env`` is copied only into a
        detection, and so is ``detail``."""
        found = []
        evaluate = self.predicate.evaluate_safe
        for rec in ordered:
            env[rec.var] = rec.value
            cur = evaluate(env)
            if cur is None:
                continue
            if cur and not prev:
                found.append(Detection(
                    self.name, rec, dict(env), DetectionLabel.FIRM,
                    detail=None if detail is None else dict(detail),
                ))
            prev = bool(cur)
        return found, prev


__all__ = ["Detector", "Detection", "DetectionLabel", "RecordStore"]
