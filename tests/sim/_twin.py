"""Twin-run helper: build a kernel model on fresh simulators and compare
their firing orders with :func:`repro.trace.first_divergence`."""

import json

from repro.sim.kernel import Simulator
from repro.trace import first_divergence


def fired_lines(build, *, until=None):
    """One canonical ``{"t", "priority", "label"}`` line per fired event."""
    sim = Simulator()
    lines = []
    sim.add_post_hook(lambda ev: lines.append(json.dumps(
        {"t": ev.time, "priority": ev.priority, "label": ev.label},
        sort_keys=True,
    )))
    build(sim)
    sim.run(until=until)
    return lines


def twin_divergence(build, *, runs=2, until=None):
    """First divergence of any later run from the first, or None.

    ``build`` receives a fresh :class:`Simulator` and must do all its own
    seeding, so a divergence is nondeterminism in model construction or
    scheduling by construction."""
    first = fired_lines(build, until=until)
    for _ in range(runs - 1):
        div = first_divergence(first, fired_lines(build, until=until))
        if div is not None:
            return div
    return None
