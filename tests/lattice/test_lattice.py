"""Tests for the consistent-cut lattice and the slim-lattice machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks.strobe import StrobeVectorClock
from repro.clocks.vector import VectorClock
from repro.lattice.cut import Cut
from repro.lattice.lattice import LatticeExplosion, StateLattice


def independent_execution(n=2, k=2):
    """n processes, k local events each, no communication."""
    clocks = [VectorClock(i, n) for i in range(n)]
    return [[clocks[i].on_local_event() for _ in range(k)] for i in range(n)]


def test_independent_lattice_is_full_grid():
    """No communication: every cut is consistent → (k+1)^n states."""
    lat = StateLattice(independent_execution(2, 2))
    stats = lat.stats()
    assert stats.n_states == 9
    assert stats.n_levels == 5           # levels 0..4
    assert stats.width_per_level == [1, 2, 3, 2, 1]
    assert stats.max_width == 3
    assert not stats.is_chain
    assert stats.mean_width == pytest.approx(9 / 5)


def test_three_process_grid():
    lat = StateLattice(independent_execution(3, 1))
    assert lat.stats().n_states == 8     # 2^3


def test_message_prunes_lattice():
    a, b = VectorClock(0, 2), VectorClock(1, 2)
    ts_a = [a.on_send()]
    ts_b = [b.on_receive(ts_a[0])]
    lat = StateLattice([ts_a, ts_b])
    stats = lat.stats()
    # Cuts: (0,0), (1,0), (1,1) — (0,1) is inconsistent.
    assert stats.n_states == 3
    assert stats.is_chain


def test_strobe_per_event_synchronous_yields_chain():
    """§4.2.4: Δ=0 with a strobe at each relevant event collapses the
    lattice to a linear order of n·p + 1 cuts."""
    n, p = 3, 4
    clocks = [StrobeVectorClock(i, n) for i in range(n)]
    ts = [[] for _ in range(n)]
    # Round-robin events; each strobe delivered instantly to all.
    for k in range(p):
        for i in range(n):
            strobe = clocks[i].on_relevant_event()
            ts[i].append(clocks[i].read())
            for j in range(n):
                if j != i:
                    clocks[j].on_strobe(strobe)
    lat = StateLattice(ts)
    stats = lat.stats()
    assert stats.is_chain
    assert stats.n_states == n * p + 1


def test_slower_strobes_fatter_lattice():
    """Strobing every k-th event: larger k → more states (the E4 trend)."""
    def lattice_size(strobe_every):
        n, p = 2, 6
        clocks = [StrobeVectorClock(i, n) for i in range(n)]
        ts = [[] for _ in range(n)]
        count = 0
        for k in range(p):
            for i in range(n):
                strobe = clocks[i].on_relevant_event()
                ts[i].append(clocks[i].read())
                count += 1
                if count % strobe_every == 0:
                    for j in range(n):
                        if j != i:
                            clocks[j].on_strobe(strobe)
        return StateLattice(ts).stats().n_states

    sizes = [lattice_size(k) for k in (1, 2, 4, 1000)]
    assert sizes[0] <= sizes[1] <= sizes[2] <= sizes[3]
    assert sizes[0] < sizes[3]
    # Unstrobed = full grid.
    assert sizes[-1] == 7 * 7


def test_max_states_guard():
    with pytest.raises(LatticeExplosion):
        StateLattice(independent_execution(4, 4), max_states=10).stats()


def test_cuts_iteration_in_level_order():
    lat = StateLattice(independent_execution(2, 1))
    cuts = list(lat.cuts())
    assert cuts[0] == Cut((0, 0))
    levels = [c.level for c in cuts]
    assert levels == sorted(levels)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        StateLattice([])


def test_process_with_no_events():
    lat = StateLattice([[], [VectorClock(1, 2).on_local_event()]])
    assert lat.stats().n_states == 2


# ---------------------------------------------------------------------------
# evaluate(): Possibly / Definitely over the lattice
# ---------------------------------------------------------------------------

def grid_eval(predicate):
    """2 processes, 1 event each, x counts p0's events, y counts p1's."""
    lat = StateLattice(independent_execution(2, 1))
    state_of = lambda cut: {"x": cut[0], "y": cut[1]}
    return lat.evaluate(state_of, predicate)


def test_possibly_but_not_definitely():
    """φ = (x=1 ∧ y=0): true only in cut (1,0); the path through (0,1)
    avoids it → Possibly yes, Definitely no."""
    possibly, definitely = grid_eval(lambda s: s["x"] == 1 and s["y"] == 0)
    assert possibly and not definitely


def test_definitely_when_unavoidable():
    """φ = (x+y >= 1): every path leaves the initial cut → Definitely."""
    possibly, definitely = grid_eval(lambda s: s["x"] + s["y"] >= 1)
    assert possibly and definitely


def test_neither_when_unsatisfiable():
    possibly, definitely = grid_eval(lambda s: s["x"] > 5)
    assert not possibly and not definitely


def test_definitely_with_message_chain():
    """In a chain lattice, Possibly == Definitely."""
    a, b = VectorClock(0, 2), VectorClock(1, 2)
    ts_a = [a.on_send()]
    ts_b = [b.on_receive(ts_a[0])]
    lat = StateLattice([ts_a, ts_b])
    state_of = lambda cut: {"x": cut[0], "y": cut[1]}
    possibly, definitely = lat.evaluate(state_of, lambda s: s["x"] == 1 and s["y"] == 0)
    assert possibly and definitely


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_grid_lattice_size_formula(n, k):
    """Property: independent executions give ((k+1)^n) states."""
    lat = StateLattice(independent_execution(n, k))
    assert lat.stats().n_states == (k + 1) ** n
