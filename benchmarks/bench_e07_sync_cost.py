"""E7 — Clock synchronization "does not come for free".

Paper claims (§3.3 items 1–4): a physically synchronized clock service
has a standing message/energy cost paid by the lower layers, which may
be unaffordable in the wild; strobe clocks pay only per sensed event;
on-demand sync (Baumgartner et al. [3], §4.2) pays only at critical
events.  At low event rates the strobe/on-demand options are cheaper;
tight sync periods cost the most.

Harness: n=8 processes, 600 s, sensed events at ``EVENT_RATE`` per
process.  Compared options (messages + energy via the radio model):

* periodic sync at period T ∈ {1, 10, 60} s (2 msgs/pair/round) —
  supports the ε-clock detector;
* vector strobes (one broadcast of size n per sensed event);
* scalar strobes (size-1 broadcasts);
* on-demand sync: one round per sensed event (the critical-event
  pattern).
"""

from repro.analysis.sweep import format_table
from repro.sweep.points import (
    E07_DURATION as DURATION,
    E07_EVENT_RATE as EVENT_RATE,
    E07_N as N,
    on_demand_cost,
    periodic_sync_cost,
    strobe_cost,
)


def run_experiment(registry=None) -> list[dict]:
    rows = []
    for period in (1.0, 10.0, 60.0):
        r = periodic_sync_cost(period)
        r["option"] = f"periodic sync T={period:.0f}s"
        rows.append(r)
    r = on_demand_cost()
    r["option"] = "on-demand sync [3]"
    rows.append(r)
    r = strobe_cost(vector=True, registry=registry)
    r["option"] = "vector strobes (O(n))"
    rows.append(r)
    r = strobe_cost(vector=False, registry=registry)
    r["option"] = "scalar strobes (O(1))"
    rows.append(r)
    return rows


def test_e07_sync_cost(benchmark, save_table, save_bench_json):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    rows = benchmark.pedantic(
        run_experiment, kwargs={"registry": registry}, rounds=1, iterations=1,
    )
    save_table("e07_sync_cost", format_table(
        rows,
        columns=["option", "messages", "units", "energy_J", "events"],
        ndigits=4,
        title=(f"E7: standing cost of time services "
               f"(n={N}, {DURATION:.0f}s, {EVENT_RATE}/s/process sensed events)"),
    ))
    save_bench_json(
        "e07_sync_cost", rows,
        meta={"n": N, "duration_s": DURATION, "event_rate": EVENT_RATE},
        registry=registry,
    )
    by = {r["option"]: r for r in rows}
    # Tight periodic sync is the most expensive option.
    assert by["periodic sync T=1s"]["messages"] > by["vector strobes (O(n))"]["messages"]
    # At this (low) event rate, strobes beat tight sync on energy...
    assert by["vector strobes (O(n))"]["energy_J"] < by["periodic sync T=1s"]["energy_J"]
    # ...and scalar strobes carry fewer units than vector strobes (O(1) vs O(n)).
    assert by["scalar strobes (O(1))"]["units"] < by["vector strobes (O(n))"]["units"]
    # On-demand sync costs scale with events, not wall time.
    assert by["on-demand sync [3]"]["messages"] == by["on-demand sync [3]"]["events"] * (N - 1) * 2


def test_sweep_replications(save_bench_json):
    """Seed-replicated sync costs via the repro.sweep runner, exported
    as ``BENCH_e07_sync_cost_sweep.json`` (the cross-seed spread E7's
    single-seed table cannot show)."""
    from repro.obs import MetricsRegistry
    from repro.sweep import SweepRunner, expand_matrix
    from repro.sweep.points import MATRICES

    registry = MetricsRegistry()
    tasks = expand_matrix(MATRICES["sync_cost"], master_seed=0, reps=2)
    rows = SweepRunner(workers=1, registry=registry).run(tasks).rows
    assert all("error" not in r for r in rows)
    by_option: dict = {}
    for r in rows:
        by_option.setdefault(r["result"]["option"], []).append(r["result"])
    # The E7 ordering claims hold per replication, not just on seed 0.
    for strobe, periodic in zip(by_option["vector_strobe"], by_option["periodic_10"]):
        assert strobe["energy_J"] < periodic["energy_J"] * 10  # same order of magnitude guard
    for scalar, vector in zip(by_option["scalar_strobe"], by_option["vector_strobe"]):
        assert scalar["units"] < vector["units"]
    save_bench_json(
        "e07_sync_cost_sweep",
        [{"params": r["params"], "seed": r["seed"], **r["result"]} for r in rows],
        meta={"matrix": "sync_cost", "master_seed": 0, "reps": 2},
        registry=registry,
    )
