"""The observer plane: one handle, one hook, one wiring call.

An :class:`Observability` carries whatever observes a run: a metrics
registry, a span tracer and a flight recorder, each optional.  Every
observed component exposes ``bind_observer(obs)`` and keeps ``None``
handles until bound (their hot paths then cost one ``is None`` test);
a part that is ``None`` binds nothing, so a recorder-only observer
pays no metric handle and a registry-only one records no trace.
:func:`instrument` walks a :class:`~repro.core.system.PervasiveSystem`
and binds every layer in one call.  Processes remember their
observer: a restarted process binds its fresh clocks to it, and a
detector attached to a process binds to it with ``host`` = that pid.

The sampler rides the kernel's *post-event* hook rather than a
scheduled timer, so turning sampling on adds **zero** events to the
simulation — event ordering and every RNG stream are untouched (the
determinism test pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PervasiveSystem
    from repro.sim.kernel import Simulator
    from repro.trace.recorder import FlightRecorder


@dataclass
class Observability:
    """The observers of one run; ``None`` means not bound."""

    registry: MetricsRegistry | None = None
    tracer: SpanTracer | None = None
    recorder: "FlightRecorder | None" = None


def _attach_sampler(
    sim: "Simulator", registry: MetricsRegistry, *, every_events: int = 1000
) -> None:
    """Sample all scalar metric values every ``every_events`` fired
    events, dual-stamped (sim.now, wall clock).  Pure observation: no
    events are scheduled, no RNG is consumed."""
    if every_events < 1:
        raise ValueError(f"every_events must be >= 1, got {every_events}")
    state = {"k": 0}

    def hook(_ev) -> None:
        state["k"] += 1
        if state["k"] >= every_events:
            state["k"] = 0
            registry.sample(sim.now, time.time())

    sim.add_post_hook(hook)


def instrument(
    system: "PervasiveSystem",
    obs: Observability,
    *,
    sample_every: int | None = None,
) -> None:
    """Bind ``obs`` through every layer of ``system``.

    Binds the kernel, the world plane (recorder only), the transport
    and its loss model, and every process with its clocks.  Detectors
    bind when they attach to an instrumented process, so instrument
    first and attach after.  ``sample_every`` needs a registry.
    """
    if sample_every is not None and obs.registry is None:
        raise ValueError("sample_every needs an observer with a registry")
    system.sim.bind_observer(obs)
    if obs.recorder is not None:
        system.world.add_listener(obs.recorder.record_world)
    system.net.bind_observer(obs)
    for proc in system.processes:
        proc.bind_observer(obs)
    if sample_every is not None:
        _attach_sampler(system.sim, obs.registry, every_events=sample_every)


__all__ = ["Observability", "instrument"]
