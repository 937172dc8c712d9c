"""Heap-based discrete-event simulation kernel.

The kernel is intentionally minimal: a priority queue of
``(time, priority, seq)``-ordered callbacks and a run loop.  All model
behaviour (message delivery, sensing, clock protocols) is expressed as
callbacks scheduled on a :class:`Simulator`.  Heap entries are plain
``(time, priority, seq, event)`` tuples, so heap order is decided by
C-level tuple comparison; ``seq`` is unique, so the comparison never
reaches the event.

Determinism contract
--------------------
Two events scheduled for the same simulation time fire in order of
``priority`` (lower first), then in FIFO order of scheduling (the
monotone sequence number).  Because every source of randomness in the
repository draws from seeded generators (:mod:`repro.sim.rng`), a run
is a pure function of its configuration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import Observability
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class CancelledError(SimulationError):
    """Raised when interacting with a cancelled scheduled event."""


#: Default priority for model events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before model events at a time.
PRIORITY_EARLY = -10
#: Priority for bookkeeping that must run after model events at a time.
PRIORITY_LATE = 10


@dataclass(order=True)
class ScheduledEvent:
    """A callback registered with the simulator — the handle
    :meth:`Simulator.schedule_at` returns.

    Instances are ordered by ``(time, priority, seq)`` which is exactly
    the kernel's firing order (the heap itself orders the same key as a
    tuple).  ``cancel()`` marks the entry dead; the heap lazily discards
    dead entries when they surface.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    _cancelled: bool = field(default=False, compare=False)
    _owner: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            if self._owner is not None:
                self._owner._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    #: Compaction trigger: rebuild the heap once at least this many
    #: cancelled entries are buried in it *and* they are the majority.
    COMPACT_THRESHOLD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        # Plain int rather than itertools.count: the checkpoint layer
        # (repro.recover) includes the counter in state snapshots, and
        # a count object cannot be inspected without consuming it.
        self._seq = 0
        self._running = False
        self._processed = 0
        self._live = 0            # non-cancelled entries in the heap
        self._dead = 0            # cancelled entries still in the heap
        self._compactions = 0
        #: Hooks invoked after every fired event; used by trace recorders.
        self._post_hooks: list[Callable[[ScheduledEvent], None]] = []
        # Observability handles (None = no-op fast path).
        self._m_fired: "Counter | None" = None
        self._m_heap: "Gauge | None" = None
        self._m_cb_wall: "Histogram | None" = None
        self._obs_registry: "MetricsRegistry | None" = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current *true physical* simulation time in seconds.

        Model code standing in for real sensor processes must not read
        this directly; it is the ground-truth axis the paper says is
        unavailable.  Only the oracle, the world plane, and physical
        clock models may consult it.
        """
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) entries still queued.

        O(1): a counter maintained on push/pop/cancel — watchdogs and
        progress bars poll this per event, and the previous O(heap)
        scan made those polls quadratic over a run."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap length, dead entries included (compaction keeps
        this within COMPACT_THRESHOLD + 2x the live count)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Number of heap compaction passes performed so far."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` to fire at absolute time ``time``.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling at exactly ``now`` is allowed and fires after the
        currently executing event completes.
        """
        t = float(time)
        if t < self._now:
            raise SimulationError(
                f"cannot schedule at t={t} (< now={self._now}): {label!r}"
            )
        seq = self._seq
        ev = ScheduledEvent(t, priority, seq, callback, label, _owner=self)
        self._seq = seq + 1
        heapq.heappush(self._heap, (t, priority, seq, ev))
        self._live += 1
        return ev

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label!r}")
        return self.schedule_at(
            self._now + float(delay), callback, priority=priority, label=label
        )

    def add_post_hook(self, hook: Callable[[ScheduledEvent], None]) -> None:
        """Register a hook called after every fired event (tracing)."""
        self._post_hooks.append(hook)

    def bind_observer(self, obs: "Observability") -> None:
        """Attach kernel metrics (events fired, heap depth, callback
        wall time) from ``obs.registry``.  Unbound, the run loop pays
        one ``is None`` test per event — the no-op fast path."""
        registry = obs.registry
        if registry is None:
            return
        self._m_fired = registry.counter("kernel.events_fired")
        self._m_heap = registry.gauge("kernel.heap_depth")
        self._m_cb_wall = registry.histogram("kernel.callback_wall_s")
        registry.counter("kernel.compactions")
        self._obs_registry = registry

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        # Called by ScheduledEvent.cancel() while the entry is still in
        # the heap (_pop_live clears _owner on the way out, so cancelling
        # an already-fired or drained event never reaches here).  Compact
        # once cancelled entries are both numerous and the majority of
        # the heap, so long runs that churn timers (MAC wake/sleep,
        # watchdogs) keep O(live) memory instead of growing unboundedly.
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_THRESHOLD and self._dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if not e[3]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self._compactions += 1
        if self._obs_registry is not None:
            self._obs_registry.counter("kernel.compactions").inc()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def _pop_live(self) -> ScheduledEvent | None:
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev._cancelled:
                # Detach from the accounting: a later cancel() on an
                # already-fired/drained event must not touch _live/_dead
                # (it used to inflate _dead and trigger spurious
                # compactions).
                ev._owner = None
                self._live -= 1
                return ev
            if self._dead > 0:
                self._dead -= 1
        return None

    def _fire(self, ev: ScheduledEvent) -> None:
        # Shared firing path for step()/run(); the None test is the
        # instrumentation no-op fast path.
        if self._m_fired is None:
            ev.callback()
        else:
            assert self._m_cb_wall is not None and self._m_heap is not None
            t0 = perf_counter()  # repro: noqa SIM001 -- obs wall-time metric only
            ev.callback()
            dt = perf_counter() - t0  # repro: noqa SIM001 -- obs metric only
            self._m_cb_wall.observe(dt)
            self._m_fired.inc()
            self._m_heap.set(len(self._heap))
        self._processed += 1

    def step(self) -> bool:
        """Fire the single next event.  Returns False if queue is empty."""
        ev = self._pop_live()
        if ev is None:
            return False
        self._now = ev.time
        self._fire(ev)
        for hook in self._post_hooks:
            hook(ev)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        ``until`` is inclusive: events scheduled exactly at ``until``
        fire; the clock is left at ``until`` if it is reached.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    return
                ev = self._pop_live()
                if ev is None:
                    if until is not None and until > self._now:
                        self._now = float(until)
                    return
                if until is not None and ev.time > until:
                    # Put it back; we are done for this horizon.  The
                    # entry re-enters the accounting _pop_live detached.
                    heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
                    ev._owner = self
                    self._live += 1
                    self._now = float(until)
                    return
                self._now = ev.time
                self._fire(ev)
                fired += 1
                for hook in self._post_hooks:
                    hook(ev)
        finally:
            self._running = False

    def calendar_snapshot(self) -> list[list[object]]:
        """Canonical summary of the live event calendar.

        One ``[time, priority, seq, label]`` entry per non-cancelled
        scheduled event, in firing order.  Callbacks themselves are
        closures and deliberately *not* serialized — the entry list,
        together with :attr:`processed_events` and the next sequence
        number, is a *certificate* of kernel state: two runs of the
        same manifest that have fired the same number of events hold
        identical calendars (the determinism contract), which is what
        :mod:`repro.recover` verifies on restore.
        """
        entries: list[tuple[float, int, int, str]] = [
            (t, p, seq, ev.label)
            for t, p, seq, ev in self._heap
            if not ev._cancelled
        ]
        entries.sort()
        head: list[list[object]] = [[self._processed, self._seq]]
        return head + [list(e) for e in entries]

    def drain(self) -> Iterator[ScheduledEvent]:
        """Remove and yield all remaining live events without firing them."""
        while True:
            ev = self._pop_live()
            if ev is None:
                return
            yield ev

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )


def make_simulator(start_time: float = 0.0) -> Simulator:
    """Factory kept for symmetry with other subpackages' ``make_*`` helpers."""
    return Simulator(start_time=start_time)


__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "CancelledError",
    "PRIORITY_NORMAL",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "make_simulator",
]
