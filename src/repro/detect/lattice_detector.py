"""Exact Possibly/Definitely detection via the consistent-cut lattice
(Cooper–Marzullo [10]).

Builds the lattice of consistent cuts of the record stream (under a
selectable vector-stamp source) and evaluates φ over every cut:
Possibly(φ) iff some consistent cut satisfies φ, Definitely(φ) iff
every root-to-final path passes through a satisfying cut.

Exponential in the worst case (the §4.2.4 O(p^n) lattice); the
``max_states`` cap is surfaced so experiments can demonstrate the blow
up — E4 uses the same machinery for lattice-size measurements.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.detect.base import Detector
from repro.lattice.cut import Cut
from repro.lattice.lattice import StateLattice
from repro.predicates.base import Predicate


class LatticeDetector(Detector):
    """Offline exact modal detection over the observed partial order.

    Parameters
    ----------
    predicate, initials:
        As for every detector.
    n:
        Number of processes (the record streams may not mention all).
    stamp:
        ``"vector"`` or ``"strobe_vector"`` — which partial order to
        build the lattice from.
    max_states:
        Lattice enumeration cap (raises LatticeExplosion beyond).
    """

    name = "lattice"

    def __init__(
        self,
        predicate: Predicate,
        initials: Mapping[str, Any],
        n: int,
        *,
        stamp: str = "strobe_vector",
        max_states: int = 500_000,
    ) -> None:
        if stamp not in ("vector", "strobe_vector"):
            raise ValueError(f"unknown stamp source {stamp!r}")
        super().__init__(predicate, initials)
        self._n = int(n)
        self._stamp = stamp
        self._max_states = int(max_states)
        self.last_stats = None
        # Observability handles (None = no-op fast path).
        self._m_queries = None
        self._m_cuts = None
        self._m_states = None
        self._m_width = None

    def bind_observer(self, obs) -> None:
        """Attach lattice metrics: modal queries run, cuts enumerated,
        and the size/width of the most recent lattice."""
        registry = obs.registry
        if registry is None:
            return
        self._m_queries = registry.counter("detect.lattice.queries")
        self._m_cuts = registry.counter("detect.lattice.cuts_evaluated")
        self._m_states = registry.gauge("detect.lattice.states")
        self._m_width = registry.gauge("detect.lattice.max_width")

    def _stamps_of(self, recs) -> list:
        out = []
        for r in recs:
            stamp = getattr(r, self._stamp)
            if stamp is None:
                raise ValueError(f"record {r.key()} lacks {self._stamp} stamp")
            out.append(stamp)
        return out

    def modalities(self) -> tuple[bool, bool]:
        """Returns (possibly, definitely) for φ over the record stream."""
        per_proc = self.store.by_process(self._n)
        timestamps = [self._stamps_of(recs) for recs in per_proc]
        lattice = StateLattice(timestamps, max_states=self._max_states)

        def state_of(cut: Cut) -> dict:
            env = dict(self.initials)
            for pid in range(self._n):
                for r in per_proc[pid][: cut[pid]]:
                    env[r.var] = r.value
            return env

        def pred(env: dict) -> bool:
            result = self.predicate.evaluate_safe(env)
            return bool(result) if result is not None else False

        possibly, definitely = lattice.evaluate(state_of, pred)
        self.last_stats = lattice.stats()
        if self._m_queries is not None:
            self._m_queries.inc()
            self._m_cuts.inc(self.last_stats.n_states)
            self._m_states.set(self.last_stats.n_states)
            self._m_width.set(self.last_stats.max_width)
        return possibly, definitely

    def finalize(self):
        """Modal detection does not emit per-occurrence detections;
        call :meth:`modalities` instead."""
        raise NotImplementedError(
            "LatticeDetector answers modal queries; use modalities()"
        )


__all__ = ["LatticeDetector"]
