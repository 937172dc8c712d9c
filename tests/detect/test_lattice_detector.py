"""Tests for the exact lattice-based Possibly/Definitely detector."""

import pytest

from repro.detect.lattice_detector import LatticeDetector
from repro.predicates.relational import RelationalPredicate


def phi():
    return RelationalPredicate(
        {"x": 0, "y": 1}, lambda e: e["x"] == 1 and e["y"] == 1, "x=1 ∧ y=1"
    )


def test_possibly_but_not_definitely_on_concurrent_events(rec):
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="vector")
    # x: 0->1->0 and y: 0->1->0, all mutually concurrent.
    d.feed(rec(0, "x", 1, true_time=1.0, vector=(1, 0)))
    d.feed(rec(0, "x", 0, true_time=2.0, vector=(2, 0)))
    d.feed(rec(1, "y", 1, true_time=1.5, vector=(0, 1)))
    d.feed(rec(1, "y", 0, true_time=2.5, vector=(0, 2)))
    possibly, definitely = d.modalities()
    assert possibly
    assert not definitely
    assert d.last_stats is not None
    assert d.last_stats.n_states == 9     # full 3x3 grid


def test_definitely_on_causally_forced_overlap(rec):
    """x rises, y rises having seen x's strobe, then x falls having
    seen y's strobe: every path passes through {x=1,y=1}."""
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="strobe_vector")
    from repro.core.records import SensedEventRecord
    from repro.clocks.vector import VectorTimestamp

    def sv(pid, seq, var, value, vec, t):
        return SensedEventRecord(
            pid=pid, seq=seq, var=var, value=value,
            strobe_vector=VectorTimestamp(vec), true_time=t,
        )
    d.feed(sv(0, 1, "x", 1, (1, 0), 1.0))
    d.feed(sv(1, 1, "y", 1, (1, 1), 2.0))
    d.feed(sv(0, 2, "x", 0, (2, 1), 3.0))
    possibly, definitely = d.modalities()
    assert possibly and definitely


def test_neither_when_unsatisfiable(rec):
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="vector")
    d.feed(rec(0, "x", 1, true_time=1.0, vector=(1, 0)))
    possibly, definitely = d.modalities()
    assert not possibly and not definitely


def test_unknown_stamp_rejected():
    with pytest.raises(ValueError):
        LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="nope")


def test_missing_stamp_raises(rec):
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="strobe_vector")
    d.feed(rec(0, "x", 1, true_time=1.0, scalar=1))   # no vector stamps
    with pytest.raises(ValueError):
        d.modalities()


def test_finalize_not_supported():
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2)
    with pytest.raises(NotImplementedError):
        d.finalize()


def test_max_states_guard(rec):
    from repro.lattice.lattice import LatticeExplosion
    d = LatticeDetector(phi(), {"x": 0, "y": 0}, n=2, stamp="vector", max_states=3)
    for k in range(3):
        d.feed(rec(0, "x", k + 1, true_time=float(k), vector=(k + 1, 0)))
        d.feed(rec(1, "y", k + 1, true_time=float(k) + 0.5, vector=(0, k + 1)))
    with pytest.raises(LatticeExplosion):
        d.modalities()
