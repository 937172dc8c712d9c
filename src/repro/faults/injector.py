"""Executes a :class:`~repro.faults.plan.FaultPlan` on a live system.

The injector schedules every expanded plan event on the simulation
kernel at :data:`~repro.sim.kernel.PRIORITY_EARLY`, so a fault firing
at t takes effect before any model event at t (a message in flight at
the crash instant is dropped, not half-delivered).

Determinism
-----------
Any randomness a fault needs (today: the Gilbert–Elliott chain behind
``burst_loss``) draws from a fault-private :class:`RngRegistry` under
the names ``("faults", plan.name, index, action)`` — the same stream
as ``substream_seed(seed, ...)`` by construction, and never one of
the system's model streams.  Two consequences, both load-bearing
for the chaos harness:

* the same (plan, seed) replays bit-identically, in-process or across
  sweep workers;
* the *base* network rng consumes the same draws whether or not a
  burst window is active (the override is consulted after the base
  loss and delay draws — see ``Network.set_loss_override``), so the
  fault-free twin run shares its world and network randomness with the
  faulty run exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.faults.plan import FaultError, FaultEvent, FaultPlan, PAIRED
from repro.net.loss import GilbertElliottLoss
from repro.net.topology import PartitionOverlay
from repro.sim.kernel import PRIORITY_EARLY
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PervasiveSystem
    from repro.obs.instrument import Observability
    from repro.obs.tracer import SpanTracer


class FaultInjector:
    """Arms a fault plan against a :class:`PervasiveSystem`.

    Parameters
    ----------
    system:
        The target system (already built; arm before ``run``).
    plan:
        The fault plan to execute.
    seed:
        Master seed for fault-private substreams; defaults to the
        system's own master seed so ``(scenario seed, plan)`` fully
        determines the run.
    """

    def __init__(
        self,
        system: "PervasiveSystem",
        plan: FaultPlan,
        *,
        seed: int | None = None,
    ) -> None:
        self._system = system
        self._plan = plan
        self._seed = system.rng.seed if seed is None else int(seed)
        self._rngs = RngRegistry(self._seed)
        self._armed = False
        #: (time, action) log of applied faults, in firing order.
        self.applied: list[tuple[float, str]] = []
        self._active = 0
        self._m_injected = None
        self._m_cleared = None
        self._m_active = None
        self._tracer: "SpanTracer | None" = None

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def seed(self) -> int:
        return self._seed

    def bind_observer(self, obs: "Observability") -> None:
        """Count faults in ``obs.registry``; span each in ``obs.tracer``."""
        self._tracer = obs.tracer
        registry = obs.registry
        if registry is None:
            return
        self._m_injected = registry.counter("faults.injected")
        self._m_cleared = registry.counter("faults.cleared")
        self._m_active = registry.gauge("faults.active")

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every plan event; idempotence is not supported —
        arming twice raises."""
        if self._armed:
            raise FaultError("fault plan already armed")
        self._armed = True
        n = self._system.n
        for idx, ev in enumerate(self._plan.expanded()):
            pid = ev.params.get("pid")
            if pid is not None and not 0 <= pid < n:
                raise FaultError(
                    f"event {idx} ({ev.action}) targets pid {pid}, "
                    f"but the system has {n} processes"
                )
            rng = self._rngs.get("faults", self._plan.name, idx, ev.action)
            self._system.sim.schedule_at(
                ev.time,
                lambda e=ev, r=rng: self._fire(e, r),
                priority=PRIORITY_EARLY,
                label=f"fault:{ev.action}",
            )

    def snapshot(self) -> dict:
        """JSON-safe summary of injector progress: the applied-fault
        log, the currently-open fault windows, and the fault-private
        RNG stream positions.  Consumed by :mod:`repro.recover` — a
        restored run must have fired exactly the same fault prefix."""
        return {
            "plan": self._plan.name,
            "seed": self._seed,
            "armed": self._armed,
            "applied": [[t, action] for t, action in self.applied],
            "active": self._active,
            "rng": self._rngs.state_snapshot(),
        }

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        handler = getattr(self, f"_apply_{ev.action}", None)
        if handler is None:  # pragma: no cover - ACTIONS is closed
            raise FaultError(f"no handler for action {ev.action!r}")
        handler(ev, rng)
        self.applied.append((self._system.sim.now, ev.action))
        clearing = ev.action in set(PAIRED.values())
        if clearing:
            self._active = max(0, self._active - 1)
            if self._m_cleared is not None:
                self._m_cleared.inc()
        else:
            if ev.action in PAIRED:
                self._active += 1
            if self._m_injected is not None:
                self._m_injected.inc()
        if self._m_active is not None:
            self._m_active.set(self._active)
        if self._tracer is not None:
            with self._tracer.span(f"fault.{ev.action}", **dict(ev.params)):
                pass

    # -- process faults -------------------------------------------------
    def _apply_crash(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        pid = ev.params["pid"]
        mode = ev.params.get("mode", "recover")
        self._system.processes[pid].crash(mode=mode)

    def _apply_restart(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        pid = ev.params["pid"]
        self._system.processes[pid].restart()

    # -- network faults -------------------------------------------------
    def _apply_partition(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        groups = ev.params.get("groups")
        cut_edges = ev.params.get("cut_edges")
        overlay = PartitionOverlay(
            cut_edges=tuple(tuple(e) for e in (cut_edges or ())),
            groups=tuple(tuple(g) for g in groups) if groups else None,
        )
        self._system.net.set_partition(overlay)

    def _apply_heal(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        self._system.net.heal_partition()

    def _apply_burst_loss(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        model = GilbertElliottLoss(
            p_gb=float(ev.params.get("p_gb", 0.0)),
            p_bg=float(ev.params.get("p_bg", 0.0)),
            p_good=float(ev.params.get("p_good", 0.0)),
            p_bad=float(ev.params.get("p_bad", 1.0)),
            start_bad=ev.params.get("start_bad", True),
        )
        self._system.net.set_loss_override(model, rng)

    def _apply_burst_loss_end(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        self._system.net.clear_loss_override()

    # -- clock faults ---------------------------------------------------
    def _physical_clock(self, ev: FaultEvent):
        pid = ev.params["pid"]
        clock = self._system.processes[pid].physical_clock
        if clock is None:
            raise FaultError(
                f"{ev.action} targets pid {pid}, which has no physical clock"
            )
        return clock

    def _apply_clock_drift(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        delta = float(ev.params["delta_ppm"])
        self._physical_clock(ev).perturb_drift(delta, self._system.sim.now)

    def _apply_clock_drift_end(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        delta = float(ev.params["delta_ppm"])
        self._physical_clock(ev).perturb_drift(-delta, self._system.sim.now)

    def _apply_clock_freeze(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        self._physical_clock(ev).freeze(self._system.sim.now)

    def _apply_clock_unfreeze(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        self._physical_clock(ev).unfreeze(self._system.sim.now)

    def _apply_strobe_perturb(self, ev: FaultEvent, rng: np.random.Generator) -> None:
        pid = ev.params["pid"]
        ticks = ev.params.get("ticks", 1)
        which = ev.params.get("clock", "both")
        proc = self._system.processes[pid]
        hit = False
        if which in ("both", "vector") and proc.strobe_vector is not None:
            proc.strobe_vector.perturb(ticks)
            hit = True
        if which in ("both", "scalar") and proc.strobe_scalar is not None:
            proc.strobe_scalar.perturb(ticks)
            hit = True
        if not hit:
            raise FaultError(
                f"strobe_perturb targets pid {pid}, which runs no "
                f"{which!r} strobe clock"
            )


__all__ = ["FaultInjector"]
