"""The ⟨P, L, O, C⟩ quadruple assembled.

:class:`PervasiveSystem` builds the simulation kernel, the world plane
(O plus optional covert channels C), the network plane (L, with a
chosen delay model), and the process set P — one call per §2.1
component — and provides the run loop.  Scenario builders in
:mod:`repro.scenarios` and the experiment harnesses construct their
systems through this class, so every experiment shares one correct
wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocks.physical import DriftModel, PhysicalClock
from repro.core.process import ClockConfig, SensorProcess
from repro.net.delay import DelayModel, SynchronousDelay
from repro.net.loss import LossModel, NoLoss
from repro.net.mac import DutyCycleMAC
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.world.covert import CovertChannel
from repro.world.objects import WorldState


@dataclass(frozen=True)
class SystemConfig:
    """Configuration for a :class:`PervasiveSystem`.

    Attributes
    ----------
    n_processes:
        |P|.
    seed:
        Master seed; all substreams derive from it.
    delay / loss:
        Network-plane models (§3.2.2).  Defaults: synchronous Δ=0,
        no loss.
    clocks:
        Per-process clock configuration (uniform across P).
    drift:
        Drift-model parameters for physical clocks, sampled per
        process when ``clocks.physical``; ``None`` means ideal clocks.
    keep_event_logs:
        Retain per-process event logs.
    """

    n_processes: int
    seed: int = 0
    delay: DelayModel = field(default_factory=SynchronousDelay)
    loss: LossModel = field(default_factory=NoLoss)
    clocks: ClockConfig = field(default_factory=ClockConfig.strobes)
    drift: DriftModel | None = None
    max_offset: float = 0.05
    max_drift_ppm: float = 50.0
    keep_event_logs: bool = True
    mac: DutyCycleMAC | None = None
    strobe_transport: str = "overlay"    # or "flood" (multi-hop relay)
    strobe_every: int = 1                # broadcast every k-th relevant event


class PervasiveSystem:
    """A fully wired sensor-actuator pervasive system.

    Examples
    --------
    >>> sys = PervasiveSystem(SystemConfig(n_processes=2, seed=1))
    >>> sys.world.create("room", temp=20)            # an object in O
    <...>
    >>> sys.processes[0].track("temp", "room", "temp", initial=20)
    >>> _ = sys.world.set_attribute("room", "temp", 31)   # world event
    >>> sys.run(until=1.0)
    >>> sys.processes[0].variables["temp"]
    31
    """

    def __init__(self, config: SystemConfig, *, topology: Topology | None = None) -> None:
        if config.n_processes <= 0:
            raise ValueError("need at least one process")
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(seed=config.seed)
        self.world = WorldState(self.sim)          # the O plane
        self.covert_channels: list[CovertChannel] = []   # the C plane
        topo = topology or Topology.complete(config.n_processes)
        self.net = Network(                         # the L plane
            self.sim,
            topo,
            delay=config.delay,
            loss=config.loss,
            rng=self.rng.get("net", "delay"),
            mac=config.mac,
        )
        self.processes: list[SensorProcess] = []    # the P plane
        drift_rng = self.rng.get("clocks", "drift")
        for pid in range(config.n_processes):
            phys = None
            if config.clocks.physical:
                model = config.drift or DriftModel.sample(
                    drift_rng, config.max_offset, config.max_drift_ppm
                )
                phys = PhysicalClock(model)
            self.processes.append(
                SensorProcess(
                    pid,
                    config.n_processes,
                    self.sim,
                    self.net,
                    self.world,
                    clocks=config.clocks,
                    physical_clock=phys,
                    keep_event_log=config.keep_event_logs,
                    strobe_transport=config.strobe_transport,
                    strobe_every=config.strobe_every,
                )
            )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.config.n_processes

    @property
    def root(self) -> SensorProcess:
        """The distinguished root/back-end process P0 (§2.1)."""
        return self.processes[0]

    def add_covert_channel(self, propagation_delay: float = 0.0) -> CovertChannel:
        """Create a covert channel in the C plane."""
        ch = CovertChannel(self.sim, self.world, propagation_delay=propagation_delay)
        self.covert_channels.append(ch)
        return ch

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until, max_events=max_events)

    def physical_clocks(self) -> list[PhysicalClock]:
        """The processes' hardware clocks (for sync protocols);
        raises if physical clocks are not configured."""
        clocks = [p.physical_clock for p in self.processes]
        if any(c is None for c in clocks):
            raise ValueError("physical clocks not configured on all processes")
        return clocks  # type: ignore[return-value]


__all__ = ["PervasiveSystem", "SystemConfig"]
