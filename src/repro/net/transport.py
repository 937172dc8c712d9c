"""Asynchronous message transport over the network plane.

The :class:`Network` is the glue between endpoints (processes in P):
``send`` and ``broadcast`` apply the loss model, sample a delay from
the delay model, and schedule delivery callbacks on the simulator.
System-wide broadcast — the primitive strobe clocks require
("System-wide_Broadcast", SVC1/SSC1) — fans out one independently
delayed copy per destination, which is how a wireless flood behaves at
the overlay level.

Accounting (``NetworkStats``) splits application vs control traffic so
the E7 cost experiment can compare sync-service overhead against
strobe overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.delay import DelayModel, SynchronousDelay
from repro.net.loss import LossModel, NoLoss
from repro.net.mac import DutyCycleMAC
from repro.net.message import Message
from repro.net.topology import PartitionOverlay, Topology
from repro.sim.kernel import Simulator
from repro.sim.rng import substream_seed

Receiver = Callable[[Message], None]


class TransportError(RuntimeError):
    """Raised on transport misuse (unknown endpoint, double register)."""


@dataclass(slots=True)
class NetworkStats:
    """Counters maintained by :class:`Network`."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_crashed: int = 0    # destination endpoint was down (fail-stop)
    dropped_burst: int = 0      # dropped by an injected burst-loss override
    app_messages: int = 0
    control_messages: int = 0
    app_units: int = 0       # abstract payload units (ints carried)
    control_units: int = 0
    #: delay of each delivered message, for distribution checks
    delays: list = field(default_factory=list)

    @property
    def total_units(self) -> int:
        return self.app_units + self.control_units


class Network:
    """Event-driven message transport.

    Parameters
    ----------
    sim:
        The simulation kernel.
    topology:
        Overlay ``L``; messages between disconnected endpoints are
        dropped (counted in ``dropped_partition``).
    delay:
        Delay model applied per message copy.
    loss:
        Loss model applied per message copy.
    rng:
        Generator for delay/loss draws.
    record_delays:
        Keep per-message delays in stats (off for long sweeps).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        delay: DelayModel | None = None,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        record_delays: bool = False,
        mac: "DutyCycleMAC | None" = None,
    ) -> None:
        self._sim = sim
        self._topo = topology
        self._delay = delay or SynchronousDelay(0.0)
        self._loss = loss or NoLoss()
        if rng is None:
            # Fallback stream on the named-substream discipline so an
            # unconfigured Network cannot collide with model substreams.
            rng = np.random.default_rng(substream_seed(0, "net", "transport"))
        self._rng = rng
        self._endpoints: dict[int, Receiver] = {}
        # Sorted endpoint ids, rebuilt on register: broadcast's fan-out.
        self._dests: tuple[int, ...] = ()
        self._record_delays = record_delays
        self._mac = mac
        self.stats = NetworkStats()
        # Fault-injection state (repro.faults): endpoints that are
        # fail-stopped, an optional partition overlay, and an optional
        # burst-loss override layered over the configured loss model.
        self._down: set[int] = set()
        self._partition: PartitionOverlay | None = None
        self._loss_override: LossModel | None = None
        self._loss_override_rng: np.random.Generator | None = None
        # Trace handle (None = no-op fast path).
        self._trace = None
        # Observability handles (None = no-op fast path).
        self._m_sent = None
        self._m_delivered = None
        self._m_drop_loss = None
        self._m_drop_part = None
        self._m_drop_crash = None
        self._m_drop_burst = None
        self._m_delay = None
        self._m_units = None

    # ------------------------------------------------------------------
    @property
    def delay_model(self) -> DelayModel:
        return self._delay

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def delta(self) -> float:
        """The delay bound Δ the detectors may assume (§3.2.2.b)."""
        return self._delay.bound

    def register(self, node: int, receiver: Receiver) -> None:
        """Attach the receive callback for endpoint ``node``."""
        if node in self._endpoints:
            raise TransportError(f"endpoint {node} already registered")
        if node not in self._topo.nodes():
            raise TransportError(f"endpoint {node} not in topology")
        self._endpoints[node] = receiver
        self._dests = tuple(sorted(self._endpoints))

    def endpoints(self) -> list[int]:
        return list(self._dests)

    # -- fault-injection hooks (repro.faults) ---------------------------
    def set_endpoint_down(self, node: int, down: bool = True) -> None:
        """Mark an endpoint fail-stopped (or back up).  Messages to a
        down endpoint — including copies already in flight — are
        counted in ``dropped_crashed``, distinctly from partitions."""
        if down:
            self._down.add(node)
        else:
            self._down.discard(node)

    def is_endpoint_down(self, node: int) -> bool:
        return node in self._down

    @property
    def partition(self) -> PartitionOverlay | None:
        return self._partition

    def set_partition(self, overlay: PartitionOverlay) -> None:
        """Install a partition overlay (one at a time — faults compose
        in the plan, not by stacking overlays)."""
        if self._partition is not None:
            raise TransportError("a partition overlay is already installed")
        self._partition = overlay

    def heal_partition(self) -> None:
        self._partition = None

    @property
    def loss_override(self) -> LossModel | None:
        return self._loss_override

    def set_loss_override(
        self, model: LossModel, rng: np.random.Generator
    ) -> None:
        """Layer a burst-loss model over the configured one.

        The override draws from its *own* generator (substream-seeded
        by the injector), and it is consulted *after* the base loss and
        delay draws — so the base RNG stream consumes identically with
        and without the fault, which is what keeps a faulty run
        byte-comparable to its fault-free twin outside fault windows.
        """
        if self._loss_override is not None:
            raise TransportError("a loss override is already installed")
        self._loss_override = model
        self._loss_override_rng = rng

    def clear_loss_override(self) -> None:
        self._loss_override = None
        self._loss_override_rng = None

    def bind_observer(self, obs) -> None:
        """Attach an observer; also binds the loss model.

        The registry counts sends, deliveries, drops, payload units and
        the delay distribution.  The recorder gets a send entry with a
        recorder-assigned mid per dispatch, a receive entry per
        delivery, and a drop entry with its reason per drop branch.
        """
        self._trace = obs.recorder
        self._loss.bind_observer(obs)
        registry = obs.registry
        if registry is None:
            return
        self._m_sent = registry.counter("net.sent")
        self._m_delivered = registry.counter("net.delivered")
        self._m_drop_loss = registry.counter("net.dropped_loss")
        self._m_drop_part = registry.counter("net.dropped_partition")
        self._m_drop_crash = registry.counter("net.dropped_crashed")
        self._m_drop_burst = registry.counter("net.dropped_burst")
        self._m_units = registry.counter("net.payload_units")
        # Delay buckets: sub-ms to ~100 s of *simulated* latency.
        self._m_delay = registry.histogram(
            "net.delay_s", buckets=[10 ** (k / 2) for k in range(-8, 5)]
        )

    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: object = None,
        *,
        size: int = 1,
        control: bool = False,
    ) -> Message:
        """Send one message; returns the Message (even if it will be
        lost — senders cannot observe loss)."""
        if dst not in self._endpoints:
            raise TransportError(f"unknown destination {dst}")
        if src == dst:
            raise TransportError("self-send is a local event, not a message")
        msg = Message(
            src=src, dst=dst, kind=kind, payload=payload, size=size,
            control=control, sent_at=self._sim.now,
        )
        self._account_send(msg)
        self._dispatch(msg)
        return msg

    def broadcast(
        self,
        src: int,
        kind: str,
        payload: object = None,
        *,
        size: int = 1,
        control: bool = False,
    ) -> list[Message]:
        """System-wide broadcast: one copy per other endpoint, each with
        its own delay/loss draw."""
        out = []
        for dst in self._dests:
            if dst == src:
                continue
            msg = Message(
                src=src, dst=dst, kind=kind, payload=payload, size=size,
                control=control, sent_at=self._sim.now,
            )
            self._account_send(msg)
            self._dispatch(msg)
            out.append(msg)
        return out

    def neighbor_broadcast(
        self,
        src: int,
        kind: str,
        payload: object = None,
        *,
        size: int = 1,
        control: bool = False,
    ) -> list[Message]:
        """Broadcast to *direct topology neighbors* only — the physical
        radio primitive under multi-hop flooding (vs the overlay-level
        :meth:`broadcast` that models a routed system-wide flood as one
        logical hop)."""
        out = []
        for dst in self._topo.neighbors(src):
            if dst not in self._endpoints:
                continue
            msg = Message(
                src=src, dst=dst, kind=kind, payload=payload, size=size,
                control=control, sent_at=self._sim.now,
            )
            self._account_send(msg)
            self._dispatch(msg)
            out.append(msg)
        return out

    # ------------------------------------------------------------------
    def _account_send(self, msg: Message) -> None:
        self.stats.sent += 1
        if msg.control:
            self.stats.control_messages += 1
            self.stats.control_units += msg.size
        else:
            self.stats.app_messages += 1
            self.stats.app_units += msg.size
        if self._m_sent is not None:
            self._m_sent.inc()
            self._m_units.inc(msg.size)

    def _dispatch(self, msg: Message) -> None:
        mid = self._trace.record_send(msg) if self._trace is not None else None
        if msg.dst in self._down:
            self.stats.dropped_crashed += 1
            if self._m_drop_crash is not None:
                self._m_drop_crash.inc()
            if self._trace is not None:
                self._trace.record_drop(mid, msg, "crashed")
            return
        if self._partition is not None:
            # The overlay computes reachability on the residual graph,
            # so it subsumes the plain topology check.
            if not self._partition.connected(self._topo, msg.src, msg.dst):
                self.stats.dropped_partition += 1
                if self._m_drop_part is not None:
                    self._m_drop_part.inc()
                if self._trace is not None:
                    self._trace.record_drop(mid, msg, "partition")
                return
        elif not self._topo.connected(msg.src, msg.dst):
            self.stats.dropped_partition += 1
            if self._m_drop_part is not None:
                self._m_drop_part.inc()
            if self._trace is not None:
                self._trace.record_drop(mid, msg, "partition")
            return
        if self._loss.drops(self._rng):
            self.stats.dropped_loss += 1
            if self._m_drop_loss is not None:
                self._m_drop_loss.inc()
            if self._trace is not None:
                self._trace.record_drop(mid, msg, "loss")
            return
        d = self._delay.sample(self._rng)
        # Burst override last, after the base loss + delay draws, so the
        # base RNG stream is consumed identically with the fault active
        # (see set_loss_override).
        if self._loss_override is not None and self._loss_override.drops(
            self._loss_override_rng
        ):
            self.stats.dropped_burst += 1
            if self._m_drop_burst is not None:
                self._m_drop_burst.inc()
            if self._trace is not None:
                self._trace.record_drop(mid, msg, "burst")
            return
        if self._mac is not None:
            # Sleeping destination: frame buffered until next wake edge
            # (the Δ-inflating mechanism of §3.2.2.b).
            arrival = self._sim.now + d
            d = self._mac.delivery_time(msg.dst, arrival) - self._sim.now
        if self._record_delays:
            self.stats.delays.append(d)
        if self._m_delay is not None:
            self._m_delay.observe(d)
        self._sim.schedule_after(
            d, lambda m=msg, i=mid: self._deliver(m, i),
            label=f"deliver:{msg.kind}",
        )

    def _deliver(self, msg: Message, mid: "int | None" = None) -> None:
        if msg.dst in self._down:
            # In flight when the destination fail-stopped.
            self.stats.dropped_crashed += 1
            if self._m_drop_crash is not None:
                self._m_drop_crash.inc()
            if self._trace is not None:
                self._trace.record_drop(mid, msg, "crashed")
            return
        self.stats.delivered += 1
        if self._m_delivered is not None:
            self._m_delivered.inc()
        # Receive entry before the endpoint callback, so every event
        # the delivery causes sorts after it in recording order.
        if self._trace is not None:
            self._trace.record_receive(mid, msg)
        self._endpoints[msg.dst](msg)


__all__ = ["Network", "NetworkStats", "TransportError"]
