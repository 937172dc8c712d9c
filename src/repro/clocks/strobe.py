"""Strobe clocks — the paper's central protocol (§4.2.1–§4.2.2).

Strobe clocks recreate a (partial-order approximation of a) linear
time base *without* a physical clock-sync service.  The two protocols,
verbatim from the paper:

Strobe vector clock (SVC):
    SVC1. on sensing a relevant event at process i:
          ``C_i[i] += 1``; system-wide broadcast of ``C_i``.
    SVC2. on receiving a strobe T:
          ``∀k: C_i[k] = max(C_i[k], T[k])``  (no local tick).

Strobe scalar clock (SSC):
    SSC1. on sensing a relevant event at process i:
          ``C_i += 1``; system-wide broadcast of ``C_i``.
    SSC2. on receiving a strobe T:
          ``C_i = max(C_i, T)``  (no local tick).

The differences from causality-based clocks (§4.2.3) that this module
encodes and the tests assert:

1. strobes synchronize by *catching up*, not by tracking send/receive
   causality;
2. a strobe receive does **not** tick the receiver;
3. strobes are control messages carrying the full clock;
4. strobes are emitted at most once per relevant event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.clocks.base import ClockError, StrobeClock, validate_pid
from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.vector import VectorTimestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import Observability
    from repro.obs.registry import Counter, Gauge, Histogram

#: Buckets for the catch-up (skew) histograms: how many ticks a merge
#: advanced the local clock by — powers of two up to 2^10.
_CATCHUP_BUCKETS = [0.0] + [float(2 ** k) for k in range(11)]


class _StrobeObsMixin:
    """Shared ``bind_observer`` for both strobe clock families.

    All strobe clocks in a system share the same aggregate instruments
    (``clock.strobe.*``); per-clock handles default to ``None`` so the
    unbound hot path costs one ``is None`` test per protocol rule.
    """

    _m_emitted: "Counter | None" = None
    _m_merged: "Counter | None" = None
    _m_payload: "Counter | None" = None
    _m_catchup: "Histogram | None" = None
    _m_skew: "Gauge | None" = None

    def bind_observer(self, obs: "Observability") -> None:
        registry = obs.registry
        if registry is None:
            return
        self._m_emitted = registry.counter("clock.strobe.emitted")
        self._m_merged = registry.counter("clock.strobe.merged")
        self._m_payload = registry.counter("clock.strobe.payload_units")
        self._m_catchup = registry.histogram(
            "clock.strobe.catchup", buckets=_CATCHUP_BUCKETS
        )
        self._m_skew = registry.gauge("clock.strobe.skew")


class StrobeVectorClock(_StrobeObsMixin, StrobeClock[VectorTimestamp]):
    """Strobe vector clock (rules SVC1–SVC2).

    Examples
    --------
    >>> a, b = StrobeVectorClock(0, 2), StrobeVectorClock(1, 2)
    >>> strobe = a.on_relevant_event()     # SVC1: tick + payload
    >>> b.on_strobe(strobe).as_tuple()     # SVC2: merge, no tick
    (1, 0)
    """

    def __init__(self, pid: int, n: int) -> None:
        validate_pid(pid, n)
        self._pid = int(pid)
        self._n = int(n)
        self._v = [0] * self._n
        self._relevant_events = 0
        self._strobes_received = 0

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def n(self) -> int:
        return self._n

    @property
    def relevant_events(self) -> int:
        """Local SVC1 invocations so far."""
        return self._relevant_events

    @property
    def strobes_received(self) -> int:
        """SVC2 invocations so far."""
        return self._strobes_received

    def on_relevant_event(self) -> VectorTimestamp:
        """SVC1: tick own component; return the strobe to broadcast."""
        self._v[self._pid] += 1
        self._relevant_events += 1
        if self._m_emitted is not None:
            assert self._m_payload is not None
            self._m_emitted.inc()
            self._m_payload.inc(self._n)
        return self.read()

    def on_strobe(self, strobe: VectorTimestamp) -> VectorTimestamp:
        """SVC2: component-wise max merge; **no** local tick."""
        if strobe.n != self._n:
            raise ClockError(f"strobe width mismatch: {self._n} vs {strobe.n}")
        if self._m_merged is not None:
            assert self._m_catchup is not None and self._m_skew is not None
            # Catch-up: total ticks this merge advances the local view by.
            gain = sum(
                r - x for r, x in zip(strobe.as_tuple(), self._v) if r > x
            )
            self._m_catchup.observe(gain)
            self._m_skew.set(gain)
            self._m_merged.inc()
        v = self._v
        for k, r in enumerate(strobe.as_tuple()):
            if r > v[k]:
                v[k] = r
        self._strobes_received += 1
        return self.read()

    def read(self) -> VectorTimestamp:
        return VectorTimestamp._from_trusted_tuple(tuple(self._v))

    def perturb(self, ticks: int) -> VectorTimestamp:
        """Fault injection: corrupt the own component forward by
        ``ticks`` — a bit-flipped/glitched register that subsequent
        strobes will carry.  Forward-only, because SVC2's max-merge
        silently masks a backward corruption (it never propagates),
        while a forward jump spreads system-wide — the interesting
        failure mode for the §4.2.2 resilience claim."""
        if ticks < 1:
            raise ClockError(f"perturbation must be >= 1 tick, got {ticks}")
        self._v[self._pid] += int(ticks)
        return self.read()

    def strobe_size(self) -> int:
        """O(n): a strobe carries the full vector."""
        return self._n

    def snapshot(self) -> dict[str, object]:
        """JSON-safe state summary (see :mod:`repro.recover`): vector
        components plus the SVC1/SVC2 invocation counters."""
        return {
            "v": list(self._v),
            "relevant_events": self._relevant_events,
            "strobes_received": self._strobes_received,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"StrobeVectorClock(pid={self._pid}, v={tuple(self._v)})"


class StrobeScalarClock(_StrobeObsMixin, StrobeClock[ScalarTimestamp]):
    """Strobe scalar clock (rules SSC1–SSC2).

    Weaker than the vector variant but with O(1) strobes (§4.2.2).
    At Δ=0 with a strobe per relevant event it is equivalent to the
    vector strobe (§4.2.3 item 5) — experiment E6 checks this.
    """

    def __init__(self, pid: int, initial: int = 0) -> None:
        if pid < 0:
            raise ClockError(f"pid must be non-negative, got {pid}")
        if initial < 0:
            raise ClockError(f"initial clock must be non-negative, got {initial}")
        self._pid = int(pid)
        self._value = int(initial)
        self._relevant_events = 0
        self._strobes_received = 0

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def relevant_events(self) -> int:
        return self._relevant_events

    @property
    def strobes_received(self) -> int:
        return self._strobes_received

    def on_relevant_event(self) -> ScalarTimestamp:
        """SSC1: tick; return the strobe to broadcast."""
        self._value += 1
        self._relevant_events += 1
        if self._m_emitted is not None:
            assert self._m_payload is not None
            self._m_emitted.inc()
            self._m_payload.inc(1)
        return self.read()

    def on_strobe(self, strobe: ScalarTimestamp) -> ScalarTimestamp:
        """SSC2: ``C = max(C, T)``; **no** local tick."""
        if self._m_merged is not None:
            assert self._m_catchup is not None and self._m_skew is not None
            gain = max(strobe.value - self._value, 0)
            self._m_catchup.observe(gain)
            self._m_skew.set(gain)
            self._m_merged.inc()
        self._value = max(self._value, strobe.value)
        self._strobes_received += 1
        return self.read()

    def read(self) -> ScalarTimestamp:
        return ScalarTimestamp(self._value, self._pid)

    def perturb(self, ticks: int) -> ScalarTimestamp:
        """Fault injection: jump the counter forward by ``ticks``
        (forward-only — SSC2's max masks backward corruption)."""
        if ticks < 1:
            raise ClockError(f"perturbation must be >= 1 tick, got {ticks}")
        self._value += int(ticks)
        return self.read()

    def strobe_size(self) -> int:
        """O(1): a strobe carries a single integer."""
        return 1

    def snapshot(self) -> dict[str, int]:
        """JSON-safe state summary (see :mod:`repro.recover`): counter
        value plus the SSC1/SSC2 invocation counters."""
        return {
            "value": self._value,
            "relevant_events": self._relevant_events,
            "strobes_received": self._strobes_received,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"StrobeScalarClock(pid={self._pid}, value={self._value})"


__all__ = ["StrobeVectorClock", "StrobeScalarClock"]
