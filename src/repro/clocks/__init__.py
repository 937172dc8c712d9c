"""Clock implementations — the paper's §3.2 implementation design space.

The paper crosses two axes: *what order the clock provides* (linear /
partial) and *how it is realized* (physical / logical, scalar /
vector, causality-driven / strobe-driven).  Every cell the paper
names is implemented here:

===============================  =========================================
Paper §3.2 option                 Class
===============================  =========================================
Perfect physical scalar clocks    :class:`PhysicalClock` (zero skew/drift)
Imperfect physical scalar clocks  :class:`PhysicalClock` + sync protocols
Logical scalar (Lamport, SC1-3)   :class:`LamportClock`
Logical vector (M/F, VC1-3)       :class:`VectorClock`
Strobe scalar (SSC1-2)            :class:`StrobeScalarClock`
Strobe vector (SVC1-2)            :class:`StrobeVectorClock`
Physical async vector             :class:`PhysicalVectorClock`
===============================  =========================================

Vector timestamps are component tuples; those of width ≤ 8 whose
components fit also carry a cached packed-int64 word for SWAR
dominance checks (see :mod:`repro.clocks.vector`).

Clocks are pure protocol objects: they never talk to the network.  A
clock's ``on_send``/``on_relevant_event`` methods *return* the payload
to transmit; the process layer (:mod:`repro.core`) performs the actual
broadcast over :mod:`repro.net`.  This keeps the protocol rules
testable in isolation, exactly as stated in §4.2.1–§4.2.2.
"""

from repro.clocks.base import Clock, ClockError, StrobeClock
from repro.clocks.scalar import LamportClock, ScalarTimestamp
from repro.clocks.vector import VectorClock, VectorTimestamp, compare, concurrent
from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
from repro.clocks.physical import (
    DriftModel,
    PhysicalClock,
    PhysicalVectorClock,
)
from repro.clocks.sync import (
    OnDemandSyncProtocol,
    PeriodicSyncProtocol,
    SyncStats,
)

__all__ = [
    "Clock",
    "StrobeClock",
    "ClockError",
    "LamportClock",
    "ScalarTimestamp",
    "VectorClock",
    "VectorTimestamp",
    "compare",
    "concurrent",
    "StrobeScalarClock",
    "StrobeVectorClock",
    "PhysicalClock",
    "PhysicalVectorClock",
    "DriftModel",
    "PeriodicSyncProtocol",
    "OnDemandSyncProtocol",
    "SyncStats",
]
