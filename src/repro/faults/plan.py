"""Declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultEvent`s — (sim-time,
action, params) triples, optionally with a ``duration`` that expands
into the paired clearing action — describing everything that goes
wrong in a run.  Plans are data: they round-trip through JSON
(canonical form, for byte-identical chaos reports), compose with
``+``, and are executed by :class:`~repro.faults.injector.FaultInjector`
on the simulation kernel.

The action taxonomy mirrors §4.2.2's failure discussion:

========================  =====================================================
action                    effect (see the injector for exact semantics)
========================  =====================================================
``crash``                 fail-stop (or fail-recover) a process
``restart``               reboot a fail-recover crashed process
``partition``             install a :class:`~repro.net.topology.PartitionOverlay`
``heal``                  remove the partition overlay
``burst_loss``            install a Gilbert–Elliott loss override window
``burst_loss_end``        remove the loss override
``clock_drift``           inject a drift spike on a physical clock
``clock_drift_end``       remove the drift spike
``clock_freeze``          freeze a physical clock register
``clock_unfreeze``        thaw it
``strobe_perturb``        corrupt a strobe clock forward by k ticks
========================  =====================================================
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence


class FaultError(Exception):
    """Raised on malformed plans or inapplicable fault actions."""


def is_finite_real(value: object) -> bool:
    """True for a finite real number; ``bool``, NaN, ±inf, strings and
    ``None`` are not (JSON decodes all of them without complaint)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


#: Every action the injector understands.
ACTIONS = frozenset({
    "crash", "restart",
    "partition", "heal",
    "burst_loss", "burst_loss_end",
    "clock_drift", "clock_drift_end",
    "clock_freeze", "clock_unfreeze",
    "strobe_perturb",
})

#: start-action → its clearing action (``duration`` expands via this).
PAIRED: Mapping[str, str] = {
    "crash": "restart",
    "partition": "heal",
    "burst_loss": "burst_loss_end",
    "clock_drift": "clock_drift_end",
    "clock_freeze": "clock_unfreeze",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    time:
        Absolute sim-time the fault fires at.
    action:
        One of :data:`ACTIONS`.
    params:
        Action-specific parameters (``pid``, ``groups``, ``p_bad``,
        ``delta_ppm``, ``ticks``, …).  Stored as a plain dict; treat as
        immutable.
    duration:
        Only on paired actions (:data:`PAIRED` keys): auto-schedules the
        clearing action at ``time + duration`` with the same params.
    """

    time: float
    action: str
    params: Mapping[str, Any] = field(default_factory=dict)
    duration: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.action, str) or self.action not in ACTIONS:
            raise FaultError(f"unknown fault action {self.action!r}")
        if not is_finite_real(self.time) or self.time < 0:
            raise FaultError(f"fault time must be a finite number >= 0, got {self.time!r}")
        if not isinstance(self.params, Mapping):
            raise FaultError(f"fault params must be a mapping, got {self.params!r}")
        if self.duration is not None:
            if self.action not in PAIRED:
                raise FaultError(
                    f"action {self.action!r} takes no duration "
                    f"(only {sorted(PAIRED)} do)"
                )
            if not is_finite_real(self.duration) or self.duration <= 0:
                raise FaultError(
                    f"duration must be a finite positive number, got {self.duration!r}"
                )
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "params", dict(self.params))
        if self.duration is not None:
            object.__setattr__(self, "duration", float(self.duration))

    def clear_event(self) -> "FaultEvent | None":
        """The auto-generated clearing event, or None without a duration."""
        if self.duration is None:
            return None
        return FaultEvent(
            time=self.time + self.duration,
            action=PAIRED[self.action],
            params=dict(self.params),
        )

    def to_spec(self) -> dict[str, Any]:
        spec: dict[str, Any] = {"time": self.time, "action": self.action}
        if self.params:
            spec["params"] = dict(self.params)
        if self.duration is not None:
            spec["duration"] = self.duration
        return spec

    @staticmethod
    def from_spec(spec: Mapping[str, Any]) -> "FaultEvent":
        if not isinstance(spec, Mapping):
            raise FaultError(f"fault event must be an object, got {spec!r}")
        known = {"time", "action", "params", "duration"}
        extra = set(spec) - known
        if extra:
            raise FaultError(f"unknown fault-event keys {sorted(extra)}")
        if "time" not in spec or "action" not in spec:
            raise FaultError("fault event needs 'time' and 'action'")
        return FaultEvent(
            time=spec["time"],
            action=spec["action"],
            params=spec.get("params", {}),
            duration=spec.get("duration"),
        )


@dataclass(frozen=True)
class FaultWindow:
    """A (start, clear) pair derived from a plan — the unit the chaos
    harness attributes detection mismatches to.  Instant actions
    (``restart``, ``strobe_perturb``, …) get ``clear == start``."""

    action: str
    start: float
    clear: float
    params: Mapping[str, Any] = field(default_factory=dict)


def window_at(windows: Sequence[FaultWindow], t: float) -> int:
    """Index of the latest window that started at or before ``t`` (with
    1 ns slack for float noise), or -1 — the one attribution rule the
    chaos report and ``trace diff`` share."""
    best = -1
    for i, w in enumerate(windows):
        if w.start <= t + 1e-9:
            best = i
    return best


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable set of fault events.

    Events may be given in any order; :meth:`expanded` yields them with
    auto-generated clears, sorted by fire time (ties broken by position
    in the plan — deterministic).
    """

    name: str
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise FaultError(f"fault plan needs a name, got {self.name!r}")
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(
            name=f"{self.name}+{other.name}",
            events=self.events + other.events,
        )

    # ------------------------------------------------------------------
    def expanded(self) -> list[FaultEvent]:
        """Events plus auto-clears, in deterministic firing order."""
        out: list[tuple[float, int, FaultEvent]] = []
        for idx, ev in enumerate(self.events):
            out.append((ev.time, idx, ev))
            clear = ev.clear_event()
            if clear is not None:
                # Clears inherit the start's index so a clear firing at
                # the same instant as a later start keeps plan order.
                out.append((clear.time, idx, clear))
        out.sort(key=lambda item: (item[0], item[1]))
        return [ev for _, _, ev in out]

    def windows(self) -> list[FaultWindow]:
        """(start, clear) windows for mismatch attribution.

        Duration-style events pair trivially.  Explicit clears
        (``restart`` matching an earlier duration-less ``crash``, …)
        are matched greedily to the most recent open start with the
        same action and ``pid`` param.  Unmatched starts stay open to
        the end (``clear = inf``); instant actions clear immediately.
        """
        starts = {v: k for k, v in PAIRED.items()}
        rows: list[list[Any]] = []          # [action, start, clear, params]
        open_by_key: dict[tuple[str, Any], list[int]] = {}
        for ev in self.expanded():
            if ev.action in PAIRED:
                key = (ev.action, ev.params.get("pid"))
                rows.append([ev.action, ev.time, float("inf"), dict(ev.params)])
                open_by_key.setdefault(key, []).append(len(rows) - 1)
            elif ev.action in starts:
                key = (starts[ev.action], ev.params.get("pid"))
                stack = open_by_key.get(key)
                if stack:
                    rows[stack.pop()][2] = ev.time
            else:
                rows.append([ev.action, ev.time, ev.time, dict(ev.params)])
        wins = [FaultWindow(a, s, c, p) for a, s, c, p in rows]
        return sorted(wins, key=lambda w: (w.start, w.clear, w.action))

    # ------------------------------------------------------------------
    def to_spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "events": [ev.to_spec() for ev in self.events],
        }

    @staticmethod
    def from_spec(spec: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(spec, Mapping):
            raise FaultError(f"fault plan must be an object, got {spec!r}")
        known = {"name", "events"}
        extra = set(spec) - known
        if extra:
            raise FaultError(f"unknown fault-plan keys {sorted(extra)}")
        events = spec.get("events", ())
        if not isinstance(events, (list, tuple)):
            raise FaultError(f"fault-plan events must be a list, got {events!r}")
        return FaultPlan(
            name=spec.get("name", ""),
            events=tuple(FaultEvent.from_spec(e) for e in events),
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance)."""
        return json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_spec(json.loads(text))


__all__ = [
    "ACTIONS",
    "PAIRED",
    "FaultError",
    "FaultEvent",
    "FaultWindow",
    "FaultPlan",
    "is_finite_real",
    "window_at",
]
