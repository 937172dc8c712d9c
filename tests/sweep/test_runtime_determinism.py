"""Runtime determinism checks over the models the sweep points drive,
plus the sweep layer's own replay stability.

The static SIM rules pass over :mod:`repro.sweep` (see CI's lint job);
these tests catch what only a run exposes: firing-order divergence
between identical-seed runs of the models `repro sweep` replicates.
"""

from repro.clocks.physical import DriftModel, PhysicalClock
from repro.clocks.sync import OnDemandSyncProtocol, PeriodicSyncProtocol
from repro.sim.rng import RngRegistry
from repro.sweep import SweepRunner, SweepTask
from repro.world.generators import PoissonProcess

from tests.sim._twin import twin_divergence


def test_periodic_sync_model_fires_deterministically():
    """The model behind the `sync_cost` periodic_* points, replayed on
    fresh simulators, produces identical firing traces."""
    def build(sim):
        rng = RngRegistry(seed=3)
        clocks = [
            PhysicalClock(DriftModel.sample(rng.get("drift", i)))
            for i in range(4)
        ]
        proto = PeriodicSyncProtocol(
            sim, clocks, period=5.0, epsilon=1e-3, rng=rng.get("sync"),
        )
        proto.start()

    assert twin_divergence(build, runs=3, until=60.0) is None


def test_on_demand_sync_model_fires_deterministically():
    """The `sync_cost` on_demand point's model: Poisson-driven sync
    rounds must replay identically under the same substream seeds."""
    def build(sim):
        rng = RngRegistry(seed=9)
        clocks = [
            PhysicalClock(DriftModel.sample(rng.get("drift", i)))
            for i in range(4)
        ]
        proto = OnDemandSyncProtocol(sim, clocks, epsilon=1e-3, rng=rng.get("sync"))
        gen = PoissonProcess(sim, 0.5, proto.sync_now, rng=rng.get("ev"))
        gen.start()

    assert twin_divergence(build, runs=3, until=60.0) is None


def test_detector_point_rows_are_replay_stable():
    """The fast-path detector point returns identical rows — counts AND
    the labels digest — across repeated executions of the same task."""
    task = SweepTask(
        index=0, ref="repro.sweep.points:detector_throughput",
        params={"detector": "vector_strobe", "m": 120}, seed=17,
    )
    runner = SweepRunner(workers=1)
    first = runner.run([task]).rows[0]
    second = runner.run([task]).rows[0]
    assert "error" not in first
    assert first == second
    assert first["result"]["labels_digest"] == second["result"]["labels_digest"]
