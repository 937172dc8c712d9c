"""Sensor/actuator process — the ``p ∈ P`` of the model.

A :class:`SensorProcess`:

* senses world-object attributes it subscribes to (the ``n`` events),
  emitting a :class:`~repro.core.records.SensedEventRecord` per event;
* runs whatever clocks its :class:`ClockConfig` enables, applying the
  correct protocol rule per event kind (causality clocks tick on
  local/send/receive; strobe clocks tick on relevant events and merge
  on strobes — never the other way around, §4.2.3);
* broadcasts strobes (control messages) when a strobe clock is
  configured, piggybacking the sensed record so any process — in
  particular the distinguished root P0 — can run a detector;
* exchanges semantic *computation* messages (``send_app``) which are
  the only messages that drive the causality clocks;
* actuates world objects (the ``a`` events).

Processes never see true time: every ``sim.now`` use here is confined
to stamping the oracle fields of events/records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.clocks.physical import PhysicalClock, PhysicalVectorClock
from repro.clocks.scalar import LamportClock
from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
from repro.clocks.vector import VectorClock
from repro.core.events import Event, EventKind
from repro.core.records import SensedEventRecord
from repro.net.message import Message
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.world.objects import AttributeChange, WorldState

#: Called with every record this process emits locally (its own senses).
RecordListener = Callable[[SensedEventRecord], None]
#: Called with every record this process learns of via strobe receipt.
StrobeListener = Callable[[SensedEventRecord], None]
#: Application message handler.
AppHandler = Callable[["SensorProcess", Message], None]


@dataclass(frozen=True, slots=True)
class ClockConfig:
    """Which §3.2 clock options a process runs.

    All combinations are legal; each clock stamps independently so one
    execution yields comparable stamps under several time models.
    ``physical_vector`` (§3.2.1.b.ii — vectors of last-heard local wall
    clocks, "useful when relating the locally observed wall times at
    different locations") requires ``physical``.
    """

    lamport: bool = False
    vector: bool = False
    strobe_scalar: bool = False
    strobe_vector: bool = False
    physical: bool = False
    physical_vector: bool = False

    def __post_init__(self) -> None:
        if self.physical_vector and not self.physical:
            raise ValueError("physical_vector requires physical")

    @staticmethod
    def strobes() -> "ClockConfig":
        """Both strobe clocks — the paper's proposal."""
        return ClockConfig(strobe_scalar=True, strobe_vector=True)

    @staticmethod
    def everything() -> "ClockConfig":
        return ClockConfig(True, True, True, True, True, True)


class SensorProcess:
    """One sensor/actuator process.

    Parameters
    ----------
    pid, n:
        Process id and total process count (vector widths).
    sim, net, world:
        Substrate handles.
    clocks:
        Which clocks to run.
    physical_clock:
        Required when ``clocks.physical`` — the process's local
        hardware clock (with its drift model).
    keep_event_log:
        Retain the full per-event log (memory-heavy in long sweeps).
    strobe_transport:
        ``"overlay"`` (default): strobes use the overlay-level
        system-wide broadcast (one logical hop per destination).
        ``"flood"``: strobes go to direct topology neighbors only and
        are re-forwarded hop by hop (each process forwards a record the
        first time it sees it) — the physical-radio flooding a
        multi-hop deployment actually performs.  Effective Δ becomes
        (network diameter) × (per-hop bound).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        sim: Simulator,
        net: Network,
        world: WorldState,
        *,
        clocks: ClockConfig = ClockConfig.strobes(),
        physical_clock: PhysicalClock | None = None,
        keep_event_log: bool = True,
        strobe_transport: str = "overlay",
        strobe_every: int = 1,
    ) -> None:
        if strobe_transport not in ("overlay", "flood"):
            raise ValueError(f"unknown strobe_transport {strobe_transport!r}")
        if strobe_every < 1:
            raise ValueError(f"strobe_every must be >= 1, got {strobe_every}")
        self.pid = pid
        self.n = n
        self._sim = sim
        self._net = net
        self._world = world
        self._config = clocks
        if clocks.physical and physical_clock is None:
            raise ValueError("clocks.physical requires a physical_clock")
        self.physical_clock = physical_clock

        self.lamport = LamportClock(pid) if clocks.lamport else None
        self.vector = VectorClock(pid, n) if clocks.vector else None
        self.strobe_scalar = StrobeScalarClock(pid) if clocks.strobe_scalar else None
        self.strobe_vector = StrobeVectorClock(pid, n) if clocks.strobe_vector else None
        self.physical_vector = (
            PhysicalVectorClock(pid, n, physical_clock)
            if clocks.physical_vector else None
        )

        self._keep_log = keep_event_log
        self.events: list[Event] = []
        self._seq = 0          # all events
        self._sense_seq = 0    # sense events only (record seq)

        #: local variables tracked from sensed attributes
        self.variables: dict[str, Any] = {}

        self._record_listeners: list[RecordListener] = []
        self._strobe_listeners: list[StrobeListener] = []
        self._app_handlers: dict[str, AppHandler] = {}
        self._strobe_transport = strobe_transport
        self._strobe_every = int(strobe_every)
        self._seen_strobes: set[tuple[int, int]] = set()
        self._crashed = False
        self._crash_mode: str | None = None
        self._restarts = 0
        self._rejoining = False
        #: (var, obj, attr, plain) per track() call — replayed on restart
        self._trackings: list[tuple[str, str, str, bool]] = []
        # Observer and its trace handle (None = no-op fast path); both
        # survive restart() — observers outlive volatile state.
        self._observer = None
        self._trace = None

        net.register(pid, self._on_message)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def track(
        self,
        var: str,
        obj: str,
        attr: str,
        *,
        initial: Any = 0,
        min_delta: float = 0.0,
        latency: float = 0.0,
        transform: Callable[[AttributeChange], Any] | None = None,
    ) -> None:
        """Sense world ``obj.attr`` into local variable ``var``.

        ``transform`` maps the attribute change to the stored value
        (default: the new attribute value) — e.g. a door sensor turns a
        zone change into a counter increment.
        """
        self.variables[var] = initial
        self._trackings.append((var, obj, attr, transform is None))

        def on_change(change: AttributeChange) -> None:
            value = change.new if transform is None else transform(change)
            self.on_sense(var, value)

        self._world.subscribe(
            on_change, obj=obj, attr=attr, min_delta=min_delta, latency=latency
        )

    def add_record_listener(self, fn: RecordListener) -> None:
        """Observe this process's own sensed records (local tap)."""
        self._record_listeners.append(fn)

    def add_strobe_listener(self, fn: StrobeListener) -> None:
        """Observe records arriving via strobe broadcasts (what a
        detector hosted at this process actually sees)."""
        self._strobe_listeners.append(fn)

    def on_app_message(self, kind: str, handler: AppHandler) -> None:
        """Register a handler for semantic messages of ``kind``."""
        self._app_handlers[kind] = handler

    @property
    def observer(self):
        """The bound :class:`~repro.obs.Observability`, or None."""
        return self._observer

    def bind_observer(self, obs) -> None:
        """Attach an observer: the recorder taps this process's event
        log funnel (c/n/a entries; s/r are recorded at the transport),
        the registry counts its strobe and vector clocks.  Remembered:
        :meth:`restart` binds the fresh clocks, and a detector attached
        here binds with ``host`` = this pid."""
        self._observer = obs
        self._trace = obs.recorder
        for clock in (self.strobe_scalar, self.strobe_vector, self.vector):
            if clock is not None:
                clock.bind_observer(obs)

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------
    def _log(self, kind: EventKind, stamps: dict, detail: Any = None) -> Event:
        self._seq += 1
        ev = Event(
            pid=self.pid, seq=self._seq, kind=kind,
            true_time=self._sim.now, stamps=stamps, detail=detail,
        )
        if self._keep_log:
            self.events.append(ev)
        if self._trace is not None:
            self._trace.record_event(ev)
        return ev

    def _stamp_local(self) -> dict:
        """Tick clocks for an internal (c/n/a) event; returns stamps."""
        stamps: dict = {}
        if self.lamport is not None:
            stamps["lamport"] = self.lamport.on_local_event()
        if self.vector is not None:
            stamps["vector"] = self.vector.on_local_event()
        if self.physical_clock is not None:
            stamps["physical"] = self.physical_clock.read(self._sim.now)
        if self.physical_vector is not None:
            stamps["physical_vector"] = self.physical_vector.on_local_event(self._sim.now)
        return stamps

    # ------------------------------------------------------------------
    # Sense (n) — the relevant events that drive strobes
    # ------------------------------------------------------------------
    def on_sense(self, var: str, value: Any) -> SensedEventRecord | None:
        """Handle a significant change of a tracked variable.

        Returns None when the process has crashed (a dead sensor
        neither records nor reports world activity).
        """
        if self._crashed:
            return None
        self.variables[var] = value
        self._sense_seq += 1
        stamps = self._stamp_local()
        # Strobe rule SVC1/SSC1: tick, then broadcast.
        strobe_scalar_ts = strobe_vector_ts = None
        if self.strobe_scalar is not None:
            strobe_scalar_ts = self.strobe_scalar.on_relevant_event()
            stamps["strobe_scalar"] = strobe_scalar_ts
        if self.strobe_vector is not None:
            strobe_vector_ts = self.strobe_vector.on_relevant_event()
            stamps["strobe_vector"] = strobe_vector_ts

        record = SensedEventRecord(
            pid=self.pid,
            seq=self._sense_seq,
            var=var,
            value=value,
            lamport=stamps.get("lamport"),
            vector=stamps.get("vector"),
            strobe_scalar=strobe_scalar_ts,
            strobe_vector=strobe_vector_ts,
            physical=stamps.get("physical"),
            true_time=self._sim.now,
        )
        self._log(EventKind.SENSE, stamps, detail=record)

        has_strobe_clock = (
            self.strobe_scalar is not None or self.strobe_vector is not None
        )
        # §4.2: "this synchronization need not happen any more frequently
        # than the local sensing of relevant events" — strobe_every=k
        # thins the broadcasts (events between strobes stay local, an
        # accuracy/cost trade the ablation bench measures).
        if has_strobe_clock and self._sense_seq % self._strobe_every == 0:
            # One control broadcast carries all configured strobe stamps
            # plus the record itself (size: vector O(n) dominates).
            size = 0
            if self.strobe_scalar is not None:
                size += self.strobe_scalar.strobe_size()
            if self.strobe_vector is not None:
                size += self.strobe_vector.strobe_size()
            self._seen_strobes.add(record.key())
            if self._strobe_transport == "flood":
                self._net.neighbor_broadcast(
                    self.pid, "strobe", payload=record, size=max(size, 1), control=True
                )
            else:
                self._net.broadcast(
                    self.pid, "strobe", payload=record, size=max(size, 1), control=True
                )
        for fn in self._record_listeners:
            fn(record)
        return record

    # ------------------------------------------------------------------
    # Compute (c) and actuate (a)
    # ------------------------------------------------------------------
    def compute(self, detail: Any = None) -> Event:
        """Record an internal compute event."""
        return self._log(EventKind.COMPUTE, self._stamp_local(), detail)

    def actuate(self, oid: str, attr: str, value: Any) -> Event:
        """Drive a world object's attribute (output to the environment)."""
        ev = self._log(EventKind.ACTUATE, self._stamp_local(), detail=(oid, attr, value))
        self._world.set_attribute(oid, attr, value)
        return ev

    # ------------------------------------------------------------------
    # Semantic computation messages (s / r) — drive causality clocks
    # ------------------------------------------------------------------
    def send_app(self, dst: int, kind: str, payload: Any = None, *, size: int = 1) -> Event | None:
        """Send a computation message (rule SC2/VC2 applies).

        Returns None if the process has crashed.
        """
        if self._crashed:
            return None
        stamps: dict = {}
        if self.lamport is not None:
            stamps["lamport"] = self.lamport.on_send()
        if self.vector is not None:
            stamps["vector"] = self.vector.on_send()
        if self.physical_clock is not None:
            stamps["physical"] = self.physical_clock.read(self._sim.now)
        if self.physical_vector is not None:
            stamps["physical_vector"] = self.physical_vector.on_local_event(self._sim.now)
        ev = self._log(EventKind.SEND, stamps, detail=(dst, kind))
        self._net.send(
            self.pid, dst, f"app:{kind}",
            payload={"data": payload, "stamps": stamps},
            size=size, control=False,
        )
        return ev

    # ------------------------------------------------------------------
    # Failure injection (repro.faults)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def restarts(self) -> int:
        """Number of completed reboots (fail-recover cycles)."""
        return self._restarts

    def crash(self, mode: str = "stop") -> None:
        """Crash the process: it stops sensing, strobing, sending and
        receiving, and the transport counts traffic addressed to it as
        ``dropped_crashed``.

        ``mode="stop"`` (default) is the classic fail-stop — permanent.
        ``mode="recover"`` marks the crash recoverable: a later
        :meth:`restart` reboots the process with volatile state lost.
        """
        if mode not in ("stop", "recover"):
            raise ValueError(f"unknown crash mode {mode!r}")
        self._crashed = True
        self._crash_mode = mode
        self._rejoining = False
        self._net.set_endpoint_down(self.pid)

    def restart(self) -> None:
        """Reboot a fail-recover crashed process (rejoin).

        Volatile state is lost and rebuilt:

        * logical and strobe clocks restart from zero — then re-sync on
          rejoin: the process broadcasts a ``strobe_hello`` and every
          live peer replies with its current strobe clocks, which the
          rebooted node merges (SVC2/SSC2, merge-only on both ends).
          Because a peer's vector carries *this* process's own pre-crash
          component, the max-merge restores it — the mechanism behind
          §4.2.2's no-ripple claim;
        * the flood-suppression cache (``_seen_strobes``) is dropped —
          it grew during the crashed epoch and would otherwise poison
          re-flooded records forever;
        * tracked variables are re-read: plain-value trackings re-sample
          the live world attribute (a sensor reads its hardware at
          boot); transform-based trackings keep their last stored value
          (recovered from flash).  Once the first sync reply lands the
          process re-announces every tracked variable so detector hosts
          re-converge on current state.

        Stable storage survives: the event/sense sequence counters stay
        monotone across boots so record keys remain unique.  The
        hardware clock (``physical_clock``) keeps its drift state — an
        oscillator does not reboot with the software.
        """
        if not self._crashed:
            raise RuntimeError(f"process {self.pid} is not crashed")
        if self._crash_mode != "recover":
            raise RuntimeError(
                f"process {self.pid} crashed fail-stop; only "
                "crash(mode='recover') is restartable"
            )
        self._crashed = False
        self._crash_mode = None
        self._restarts += 1
        self._seen_strobes.clear()
        cfg = self._config
        if cfg.lamport:
            self.lamport = LamportClock(self.pid)
        if cfg.vector:
            self.vector = VectorClock(self.pid, self.n)
        if cfg.strobe_scalar:
            self.strobe_scalar = StrobeScalarClock(self.pid)
        if cfg.strobe_vector:
            self.strobe_vector = StrobeVectorClock(self.pid, self.n)
        if cfg.physical_vector:
            self.physical_vector = PhysicalVectorClock(
                self.pid, self.n, self.physical_clock
            )
        if self._observer is not None:
            self.bind_observer(self._observer)
        for var, obj, attr, plain in self._trackings:
            if plain:
                # §4.2.2 reboot re-sample: restart re-reads tracked state
                # exactly as a physical node's sensor would on power-up.
                self.variables[var] = self._world.get(obj).get(  # repro: noqa RACE002 -- sanctioned reboot re-sample
                    attr, self.variables.get(var)
                )
        self._net.set_endpoint_down(self.pid, down=False)
        if self.strobe_scalar is not None or self.strobe_vector is not None:
            # Solicit clock state; _on_strobe_sync re-announces once the
            # first reply has been merged, so the announce records sort
            # after everything the observer already processed.
            self._rejoining = True
            self._net.broadcast(
                self.pid, "strobe_hello", payload=self.pid, size=1, control=True
            )
        else:
            self._reannounce()

    def _reannounce(self) -> None:
        """Re-announce every tracked variable (post-restart rejoin)."""
        for var, obj, attr, plain in self._trackings:
            if plain:
                # Rejoin re-announce: same sanctioned reboot re-sample
                # as restart() above.
                value = self._world.get(obj).get(attr, self.variables.get(var))  # repro: noqa RACE002 -- sanctioned reboot re-sample
            else:
                value = self.variables.get(var)
            self.on_sense(var, value)

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if self._crashed:
            return
        if msg.kind == "strobe":
            self._on_strobe(msg)
        elif msg.kind == "strobe_hello":
            self._on_strobe_hello(msg)
        elif msg.kind == "strobe_sync":
            self._on_strobe_sync(msg)
        elif msg.kind.startswith("app:"):
            self._on_app(msg)
        # Unknown kinds are dropped silently: forward-compatibility with
        # protocol extensions (e.g. sync handshakes modelled abstractly).

    def _on_strobe(self, msg: Message) -> None:
        """SSC2/SVC2: merge, no tick; causality clocks untouched.

        Under flooding, duplicate copies of a record arrive via
        different paths; the merge is idempotent so re-merging is
        harmless, but forwarding and listener delivery happen only on
        first receipt (the standard flood-suppression rule).
        """
        record: SensedEventRecord = msg.payload
        if self.strobe_scalar is not None and record.strobe_scalar is not None:
            self.strobe_scalar.on_strobe(record.strobe_scalar)
        if self.strobe_vector is not None and record.strobe_vector is not None:
            self.strobe_vector.on_strobe(record.strobe_vector)
        if record.key() in self._seen_strobes:
            return
        self._seen_strobes.add(record.key())
        if self._strobe_transport == "flood":
            self._net.neighbor_broadcast(
                self.pid, "strobe", payload=record, size=msg.size, control=True
            )
        for fn in self._strobe_listeners:
            fn(record)

    def _on_strobe_hello(self, msg: Message) -> None:
        """A rebooted peer lost its strobe clocks; reply with ours.

        The reply is a merge-only catch-up (no tick on either side —
        rebooting is not a relevant event), the strobe analogue of the
        on-demand sync round the paper cites [3].  Our vector carries
        the *sender's own* last-heard component, which its max-merge
        restores — so its next sensed records continue the pre-crash
        stamp sequence instead of sorting inside the observer's
        processed prefix."""
        payload: dict = {}
        size = 0
        if self.strobe_scalar is not None:
            payload["strobe_scalar"] = self.strobe_scalar.read()
            size += self.strobe_scalar.strobe_size()
        if self.strobe_vector is not None:
            payload["strobe_vector"] = self.strobe_vector.read()
            size += self.strobe_vector.strobe_size()
        if payload:
            self._net.send(
                self.pid, msg.src, "strobe_sync",
                payload=payload, size=max(size, 1), control=True,
            )

    def _on_strobe_sync(self, msg: Message) -> None:
        """Merge a rejoin catch-up reply (SSC2/SVC2, no tick)."""
        payload = msg.payload
        if self.strobe_scalar is not None and "strobe_scalar" in payload:
            self.strobe_scalar.on_strobe(payload["strobe_scalar"])
        if self.strobe_vector is not None and "strobe_vector" in payload:
            self.strobe_vector.on_strobe(payload["strobe_vector"])
        if self._rejoining:
            # First reply merged: announce tracked state now, properly
            # ordered after everything the peers have seen.
            self._rejoining = False
            self._reannounce()

    def _on_app(self, msg: Message) -> None:
        stamps_in = msg.payload["stamps"]
        stamps: dict = {}
        if self.lamport is not None and "lamport" in stamps_in:
            stamps["lamport"] = self.lamport.on_receive(stamps_in["lamport"])
        if self.vector is not None and "vector" in stamps_in:
            stamps["vector"] = self.vector.on_receive(stamps_in["vector"])
        if self.physical_clock is not None:
            stamps["physical"] = self.physical_clock.read(self._sim.now)
        if self.physical_vector is not None and "physical_vector" in stamps_in:
            stamps["physical_vector"] = self.physical_vector.on_receive(
                self._sim.now, stamps_in["physical_vector"]
            )
        self._log(EventKind.RECEIVE, stamps, detail=(msg.src, msg.kind))
        kind = msg.kind.removeprefix("app:")
        handler = self._app_handlers.get(kind)
        if handler is not None:
            handler(self, msg)

    # ------------------------------------------------------------------
    def sense_events(self) -> list[Event]:
        """All sense events from the log."""
        return [e for e in self.events if e.kind == EventKind.SENSE]

    def state_snapshot(self) -> dict:
        """JSON-safe summary of all per-process mutable state.

        Covers every configured clock family, the event/sense sequence
        counters, the variable store, crash/restart state and the
        strobe dedup set — everything a byte-identical continuation
        depends on.  Consumed by :mod:`repro.recover`, which compares
        snapshots (not object graphs) to certify a restored run.
        """
        from repro.trace.recorder import _canon

        snap: dict = {
            "seq": self._seq,
            "sense_seq": self._sense_seq,
            "variables": {k: _canon(v) for k, v in sorted(self.variables.items())},
            "crashed": self._crashed,
            "restarts": self._restarts,
            "rejoining": self._rejoining,
            "seen_strobes": sorted(self._seen_strobes),
        }
        if self.lamport is not None:
            snap["lamport"] = self.lamport.snapshot()
        if self.vector is not None:
            snap["vector"] = self.vector.snapshot()
        if self.strobe_scalar is not None:
            snap["strobe_scalar"] = self.strobe_scalar.snapshot()
        if self.strobe_vector is not None:
            snap["strobe_vector"] = self.strobe_vector.snapshot()
        if self.physical_clock is not None:
            snap["physical"] = self.physical_clock.snapshot()
        if self.physical_vector is not None:
            snap["physical_vector"] = self.physical_vector.snapshot()
        return snap

    def __repr__(self) -> str:  # pragma: no cover
        return f"SensorProcess(pid={self.pid}, vars={self.variables})"


__all__ = ["SensorProcess", "ClockConfig"]
