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
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.util.fields import (
    Field, check_fields, is_bool, is_int, is_int_pair, is_list, is_prob, is_real, is_str,
    list_of, one_of,
)


class FaultError(Exception):
    """Raised on malformed plans or inapplicable fault actions."""


_PID: Field = (False, is_int, "an integer")
_DRIFT: dict[str, Field] = {
    "pid": _PID, "delta_ppm": (False, is_real, "a finite number"),
}
_LOSS: dict[str, Field] = {
    **{name: (False, is_prob, "a probability in [0, 1]")
       for name in ("p_gb", "p_bg", "p_good", "p_bad")},
    "start_bad": (False, is_bool, "a boolean"),
}

#: Field checks of each action's ``params``; a key the table does not
#: name is kept but never read.  A clearing action inherits its start's
#: params.
PARAMS: Mapping[str, Mapping[str, Field]] = {
    "crash": {"pid": _PID, "mode": (
        False, one_of(("stop", "recover")), "'stop' or 'recover'")},
    "restart": {"pid": _PID},
    "partition": {
        "groups": (False, list_of(list_of(is_int)), "a list of integer lists"),
        "cut_edges": (False, list_of(is_int_pair), "a list of [a, b] pairs"),
    },
    "heal": {},
    "burst_loss": _LOSS,
    "burst_loss_end": {},
    "clock_drift": _DRIFT,
    "clock_drift_end": _DRIFT,
    "clock_freeze": {"pid": _PID},
    "clock_unfreeze": {"pid": _PID},
    "strobe_perturb": {
        "pid": _PID,
        "ticks": (False, is_int, "an integer"),
        "clock": (False, one_of(("both", "vector", "scalar")),
                  "'both', 'vector' or 'scalar'"),
    },
}

#: Every action the injector understands.
ACTIONS = frozenset(PARAMS)

#: start-action → its clearing action (``duration`` expands via this).
PAIRED: Mapping[str, str] = {
    "crash": "restart",
    "partition": "heal",
    "burst_loss": "burst_loss_end",
    "clock_drift": "clock_drift_end",
    "clock_freeze": "clock_unfreeze",
}

#: Field checks of a decoded fault event; the constructor checks the
#: ranges and ``params`` (an object, see :data:`PARAMS`).
_EVENT_FIELDS: dict[str, Field] = {
    "time": (True, is_real, "a finite number"),
    "action": (True, is_str, "a string"),
    "duration": (False, is_real, "a finite number"),
}
_PLAN_FIELDS: dict[str, Field] = {
    "name": (False, is_str, "a string"),
    "events": (False, is_list, "a list"),
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
        if self.action not in ACTIONS:
            raise FaultError(f"unknown fault action {self.action!r}")
        if not 0 <= self.time < math.inf:
            raise FaultError(f"fault time must be a finite number >= 0, got {self.time!r}")
        try:
            check_fields(self.params, PARAMS[self.action])
        except (KeyError, TypeError) as exc:
            raise FaultError(f"{self.action} params: {exc}") from exc
        if self.action == "partition" and self.params.get("groups") is None \
                and self.params.get("cut_edges") is None:
            raise FaultError("partition needs 'groups' or 'cut_edges'")
        if self.duration is not None:
            if self.action not in PAIRED:
                raise FaultError(
                    f"action {self.action!r} takes no duration "
                    f"(only {sorted(PAIRED)} do)"
                )
            if not 0 < self.duration < math.inf:
                raise FaultError(
                    f"duration must be a finite positive number, got {self.duration!r}"
                )
            if not math.isfinite(self.time + self.duration):
                raise FaultError(
                    f"clear time {self.time!r} + {self.duration!r} is not finite"
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
        try:
            check_fields(spec, _EVENT_FIELDS)
        except KeyError as exc:
            raise FaultError(f"fault event needs {exc}") from exc
        except TypeError as exc:
            raise FaultError(f"fault {exc}") from exc
        extra = set(spec) - {"params", *_EVENT_FIELDS}
        if extra:
            raise FaultError(f"unknown fault-event keys {sorted(extra)}")
        return FaultEvent(**spec)


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
        try:
            check_fields(spec, _PLAN_FIELDS)
        except TypeError as exc:
            raise FaultError(f"fault plan {exc}") from exc
        extra = set(spec) - set(_PLAN_FIELDS)
        if extra:
            raise FaultError(f"unknown fault-plan keys {sorted(extra)}")
        return FaultPlan(
            name=spec.get("name", ""),
            events=tuple(FaultEvent.from_spec(e) for e in spec.get("events") or ()),
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
    "PARAMS",
    "window_at",
]
