"""Online strobe detection with a Δ-stability watermark.

The offline :class:`~repro.detect.strobe_vector.VectorStrobeDetector`
replays the whole record stream at the end of the run.  Real
deployments (and the algorithms of [24]) detect *on-line*: the
observer must decide when a record's place in the strobe order is
final.  The stability argument, assuming strobe-per-event and no
strobe loss:

* two records can be concurrent only if generated within Δ of each
  other — if event f happens more than Δ after event e, e's strobe has
  already arrived at f's process and f's vector dominates e's;
* a record generated at g arrives at the observer by g + Δ;

hence every record that can precede-or-race a record that *arrived* at
time a has itself arrived by **a + 2Δ**.  The online detector
processes the linearization prefix whose records have been stable for
2Δ, emitting detections with bounded latency ≤ 3Δ after occurrence.

With strobe loss the argument breaks: a record may arrive (via
retransmission semantics it would not, here it simply never arrives —
the store misses it) or sort inside the already-processed prefix.
Such "late" records are counted in :attr:`late_records` and skipped,
degrading accuracy without corrupting state — matching the §4.2.2
transient-loss behaviour.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Mapping

from repro.clocks.base import ClockError
from repro.clocks.vector import PACKED_MAX_N, packed_le
from repro.core.records import SensedEventRecord
from repro.detect.base import Detection, Detector
from repro.detect.strobe_scalar import ScalarStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.predicates.base import Predicate
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

#: Buckets for detection-latency histograms (simulated seconds).
_LATENCY_BUCKETS = [10 ** (k / 2) for k in range(-6, 7)]


def _chain_into(
    chains: list[list[int]], by_pid: dict[int, list[int]], pid: int,
    pos: int, keys: list[Any], le,
) -> int:
    """Append index ``pos`` to the newest chain of ``pid`` whose last
    key is ``le`` ``keys[pos]``, or open a new chain, so every chain's
    keys stay non-decreasing; returns the chain's id."""
    ids = by_pid.setdefault(pid, [])
    key = keys[pos]
    for c in reversed(ids):
        chain = chains[c]
        if le(keys[chain[-1]], key):
            chain.append(pos)
            return c
    ids.append(len(chains))
    chains.append([pos])
    return ids[-1]


class _Watermark:
    """The Δ-stability watermark (module docstring) that both online
    detectors share.

    A detector supplies ``_stamp`` (the record field its order reads),
    ``_sort_key``, and ``_flush_stable(pending, stable, now)``, which
    applies the first ``stable`` records of the sorted ``pending`` list
    in order.  The watermark does the rest: arrival bookkeeping, the
    merge of new arrivals with the late filter, the 2Δ stable-prefix
    scan, the zero-wait :meth:`finalize`, liveness quarantine and the
    ``detect.*`` obs handles.  Handles default to ``None`` so
    uninstrumented runs pay one ``is None`` test per operation.

    Liveness: a process that has fed the detector nothing for
    ``liveness_horizon`` simulated seconds is *quarantined*: added to
    :attr:`quarantined`, counted, and flagged through obs.  Quarantine
    is advisory — the detector keeps processing whatever arrives (the
    watermark is arrival-driven, so a silent process never stalls it),
    but consumers evaluating ``Definitely``-style conjunctions over
    per-process interval queues should drop quarantined conjuncts
    instead of waiting on a dead process forever (graceful degradation:
    answers degrade to ``Possibly``/BORDERLINE rather than never
    arriving).  The first record heard from a quarantined process
    rejoins it.
    """

    _m_records = None
    _m_flushes = None
    _m_processed = None
    _m_late = None
    _m_backlog = None
    _m_latency = None
    _m_quarantined = None
    _m_quarantine_events = None
    _trace = None

    def _watermark_init(
        self, sim: Simulator, *, delta: float, check_period: float,
        liveness_horizon: float | None, label: str,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if check_period <= 0:
            raise ValueError(f"check_period must be positive, got {check_period}")
        if liveness_horizon is not None and liveness_horizon <= 0:
            raise ValueError(
                f"liveness_horizon must be positive, got {liveness_horizon}"
            )
        self._sim = sim
        self._stability_wait = 2.0 * float(delta)
        self._liveness_horizon = (
            None if liveness_horizon is None else float(liveness_horizon)
        )
        self._last_heard: dict[int, float] = {}
        #: pids currently considered silent/dead (advisory)
        self.quarantined: set[int] = set()
        #: total quarantine entries over the run (rejoins don't subtract)
        self.quarantine_events = 0
        #: arrival time per pending or new record; a record's entry goes
        #: when it is released or dropped as late, since no later flush
        #: reads it (the 2Δ stability argument)
        self._arrivals: dict[tuple[int, int], float] = {}
        #: not-yet-final records, kept sorted by ``_sort_key``
        self._pending: list[SensedEventRecord] = []
        #: arrivals since the last flush (unsorted)
        self._new: list[SensedEventRecord] = []
        #: sort key of the last released record
        self._last_key: tuple | None = None
        self._released = 0
        self._env: dict = dict(self.initials)
        self.late_records = 0
        #: (detection, emit_time) pairs for latency analysis
        self.emissions: list[tuple[Detection, float]] = []
        self._timer = PeriodicTimer(
            sim, self.flush, period=check_period, label=label
        )

    def start(self) -> None:
        """Begin periodic watermark flushes."""
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def bind_observer(self, obs) -> None:
        """The recorder gets a detection entry (trigger key, label, emit
        time) per emission, at the host this detector is attached to."""
        self._trace = obs.recorder
        registry = obs.registry
        if registry is None:
            return
        self._m_records = registry.counter("detect.records")
        self._m_flushes = registry.counter("detect.flushes")
        self._m_processed = registry.counter("detect.processed")
        self._m_late = registry.counter("detect.late_records")
        self._m_backlog = registry.gauge("detect.backlog")
        self._m_latency = registry.histogram(
            "detect.emit_latency_s", buckets=_LATENCY_BUCKETS
        )
        self._m_quarantined = registry.gauge("detect.quarantined")
        self._m_quarantine_events = registry.counter("detect.quarantine_events")

    def check_stamp(self, record: SensedEventRecord) -> None:
        """Raise ValueError unless ``record`` carries the stamp this
        detector orders records by."""
        if getattr(record, self._stamp) is None:
            raise ValueError(f"record {record.key()} lacks a {self._stamp} stamp")

    # ------------------------------------------------------------------
    def feed(self, record: SensedEventRecord) -> None:
        """Ingest one record: check its stamp, note the sender alive and
        a new record's arrival time; the next flush sorts it in."""
        self.check_stamp(record)
        now = self._sim.now
        if self._liveness_horizon is not None:
            self._last_heard[record.pid] = now
            if record.pid in self.quarantined:
                self.quarantined.discard(record.pid)
                if self._m_quarantined is not None:
                    self._m_quarantined.set(len(self.quarantined))
        if self.store.add(record):
            self._arrivals[record.key()] = now
            self._new.append(record)
            if self._m_records is not None:
                self._m_records.inc()

    def _absorb_new(self) -> None:
        """Fold arrivals since the last flush into the sorted pending
        list, counting (and dropping) late records.

        Only *new* arrivals can be late: the watermark never passes an
        unstable pending record, so ``_last_key`` is always ≤ every
        pending record's key, and the late records are a prefix of the
        sorted new ones.
        """
        new = self._new
        self._new = []
        new.sort(key=self._sort_key)
        if self._last_key is not None:
            late = bisect.bisect_left(new, self._last_key, key=self._sort_key)
            if late:
                # Sorts inside the released region — impossible under
                # the no-loss stability argument (module docstring): a
                # strobe was lost.  Drop, counted once each.
                for r in new[:late]:
                    del self._arrivals[r.key()]
                self.late_records += late
                if self._m_late is not None:
                    self._m_late.inc(late)
                new = new[late:]
        if self._pending:
            self._pending.extend(new)
            self._pending.sort(key=self._sort_key)
        else:
            self._pending = new

    def flush(self) -> None:
        """Advance the watermark: release every record whose position in
        the order is final.

        New arrivals are merged into the sorted pending list, the stable
        prefix is found by one scan and handed to ``_flush_stable``; the
        released prefix is never revisited."""
        now = self._sim.now
        if self._liveness_horizon is not None:
            self._update_quarantine(now)
        if self._m_flushes is not None:
            self._m_flushes.inc()
        if self._new:
            self._absorb_new()
        pending = self._pending
        arrivals = self._arrivals
        wait = self._stability_wait
        stable = 0
        for r in pending:
            if now - arrivals[r.key()] < wait:
                break                        # not yet final; stop in order
            stable += 1
        if stable:
            self._flush_stable(pending, stable, now)
            for r in pending[:stable]:
                del arrivals[r.key()]
            self._pending = pending[stable:]
            self._last_key = self._sort_key(pending[stable - 1])
            self._released += stable
            if self._m_processed is not None:
                self._m_processed.inc(stable)
        if self._m_backlog is not None:
            self._m_backlog.set(
                len(self.store) - self._released - self.late_records
            )

    def finalize(self) -> list[Detection]:
        """Flush everything regardless of stability (end of run)."""
        self.stop()
        self._stability_wait = 0.0
        self.flush()
        return self.detections

    def _update_quarantine(self, now: float) -> None:
        horizon = self._liveness_horizon
        for pid in sorted(self._last_heard):
            if pid not in self.quarantined and now - self._last_heard[pid] > horizon:
                self.quarantined.add(pid)
                self.quarantine_events += 1
                if self._m_quarantine_events is not None:
                    self._m_quarantine_events.inc()
                if self._m_quarantined is not None:
                    self._m_quarantined.set(len(self.quarantined))

    def _emitted(self, detection: Detection, now: float) -> None:
        """Log a detection emitted at ``now``."""
        self.emissions.append((detection, now))
        if self._m_latency is not None:
            self._m_latency.observe(now - detection.trigger.true_time)
        if self._trace is not None:
            self._trace.record_detection(detection, now, self._host)

    def detection_latencies(self) -> list[float]:
        """Oracle-side: emit time − true occurrence time per detection."""
        return [t - d.trigger.true_time for d, t in self.emissions]

    def frontier_snapshot(self) -> dict[str, Any]:
        """Base summary plus the watermark frontier: pending/new cursors
        with their arrival times, the environment, the last released
        key and the late/emission/quarantine counts.  The detector adds
        its own release state, so equal snapshots imply identical future
        flushes.  Its size is O(pending state), not O(records fed)."""
        from repro.trace.recorder import _canon

        snap = super().frontier_snapshot()
        snap.update({
            "pending": [list(r.key()) for r in self._pending],
            "new": sorted(list(r.key()) for r in self._new),
            "arrivals": [
                [k[0], k[1], t] for k, t in sorted(self._arrivals.items())
            ],
            "env": {k: _canon(v) for k, v in sorted(self._env.items())},
            "last_key": _canon(self._last_key),
            "late_records": self.late_records,
            "emissions": len(self.emissions),
            "quarantined": sorted(self.quarantined),
        })
        return snap


class OnlineVectorStrobeDetector(_Watermark, VectorStrobeDetector):
    """Watermark-based online variant of the vector-strobe detector.

    Parameters
    ----------
    sim:
        Simulation kernel (drives the flush timer and supplies arrival
        times).
    predicate, initials:
        As for every detector.
    delta:
        The network's delay bound Δ; the stability wait is ``2 * delta``.
    check_period:
        How often the watermark advances (seconds).  Smaller periods
        reduce detection latency jitter at more bookkeeping.
    liveness_horizon:
        Quarantine processes silent for this many simulated seconds
        (see :class:`_Watermark`); ``None`` disables the tracking.
    """

    name = "online_strobe_vector"
    _stamp = "strobe_vector"

    def __init__(
        self,
        sim: Simulator,
        predicate: Predicate,
        initials: Mapping[str, Any],
        *,
        delta: float,
        check_period: float = 0.1,
        max_race_combos: int = 4096,
        liveness_horizon: float | None = None,
    ) -> None:
        super().__init__(predicate, initials, max_race_combos=max_race_combos)
        self._watermark_init(
            sim, delta=delta, check_period=check_period,
            liveness_horizon=liveness_horizon, label="online-detect",
        )
        # Incremental replay state over the released prefix.
        self._processed: list[SensedEventRecord] = []
        self._prevs: list[Any] = []          # prev value per processed record
        self._vars_l: list[str] = []         # var per linearization index
        self._vals_l: list[Any] = []         # post-event value per index
        self._state = {"prev_lin": False, "prev_possible": False}
        # Race search state over the processed prefix: a compare key per
        # linearization index (the packed word while every stamp packs,
        # else the stamp) under ``_le``, and monotone chains of indices.
        self._vec_width: int | None = None
        self._le = operator.le
        self._keys: list[Any] = []
        self._chains: list[list[int]] = []
        self._pid_chains: dict[int, list[int]] = {}

    # Restated so that per-class method wrappers (the e2e layer tracer)
    # see them as this class's own.
    feed = _Watermark.feed
    flush = _Watermark.flush
    finalize = _Watermark.finalize

    # ------------------------------------------------------------------
    def _suffix_keys(self, suffix: list[SensedEventRecord]) -> list[Any]:
        """Compare keys of the pending ``suffix`` under ``_le``: packed
        words while every stamp seen packs, else the stamps themselves
        (the first unpackable stamp switches the detector for good)."""
        stamps = [r.strobe_vector for r in suffix]
        width = self._vec_width
        if width is None:
            width = self._vec_width = stamps[0].n
            if width <= PACKED_MAX_N:
                self._le = packed_le(width)
        for ts in stamps:
            if ts.n != width:
                raise ClockError(f"vector width mismatch: {width} vs {ts.n}")
        if self._le is not operator.le:
            words = [ts.packed() for ts in stamps]
            if None not in words:
                return words
            self._le = operator.le
            self._keys = [r.strobe_vector for r in self._processed]
        return stamps

    def _race_lists(self, suffix: list[SensedEventRecord], stable: int) -> list[list[int]]:
        """Per record of the ``stable``-length prefix of ``suffix`` (the
        sorted pending records), the ascending linearization indices of
        the records it races; the released records join the processed
        chains.

        Records x and y race iff neither stamp dominates.  A record y
        sorting before x in (sum, pid, seq) cannot have ``x < y`` (its
        sum would be larger), so it races x iff ``not y <= x``; a record
        sorting after x races it iff ``not x <= y``.  Both sets are
        searched per *chain*: records in linearization order whose
        stamps never decrease, as one process's are between clock
        resets.  Along a chain ``y <= x`` holds on a prefix and ``x <=
        y`` on a suffix, so x's earlier partners are a tail of each
        processed chain (walk back to the first ``y <= x``) and its
        later ones a head of each pending chain (walk forward to the
        first ``x <= y``).  That is O(C + race) per released record for
        C chains, however long the processed history.
        """
        prefix_len = len(self._processed)
        skeys = self._suffix_keys(suffix)
        le = self._le
        keys = self._keys
        chains = self._chains
        pchains: list[list[int]] = []        # pending chains, suffix positions
        by_pid: dict[int, list[int]] = {}
        member = [
            _chain_into(pchains, by_pid, r.pid, k, skeys, le)
            for k, r in enumerate(suffix)
        ]
        released = [0] * len(pchains)        # released head per pending chain
        races = []
        for k in range(stable):
            x = skeys[k]
            race = []
            for chain in chains:
                t = len(chain) - 1
                while t >= 0 and not le(keys[chain[t]], x):
                    race.append(chain[t])
                    t -= 1
            released[member[k]] += 1
            for c, chain in enumerate(pchains):
                t = released[c]
                while t < len(chain) and not le(x, skeys[chain[t]]):
                    race.append(prefix_len + chain[t])
                    t += 1
            race.sort()
            races.append(race)
            keys.append(x)
            _chain_into(chains, self._pid_chains, suffix[k].pid, prefix_len + k, keys, le)
        return races

    def _flush_stable(self, suffix: list[SensedEventRecord], stable: int, now: float) -> None:
        """Process the ``stable``-length prefix of ``suffix``, racing
        each record against the whole linearization (unstable pending
        records included)."""
        prefix_len = len(self._processed)
        races = self._race_lists(suffix, stable)
        full = self._processed               # extend to the linearization view
        full.extend(suffix)
        vars_l = self._vars_l
        vals_l = self._vals_l
        vars_l.extend(r.var for r in suffix)
        vals_l.extend(r.value for r in suffix)
        env = self._env
        prevs = self._prevs
        state = self._state
        extra = {"emit_time": now}
        for k in range(stable):
            rec = suffix[k]
            prev = env.get(rec.var)
            env[rec.var] = rec.value
            prevs.append(prev)
            race = races[k]
            row = self._truth(
                prefix_len + k, env, race, vars_l, vals_l, prevs, state["prev_lin"]
            )
            d = None if row is None else self._emit(state, rec, env, *row, len(race), extra)
            if d is not None:
                self._emitted(d, now)
        del full[prefix_len + stable:]       # drop the unstable tail
        del vars_l[prefix_len + stable:]
        del vals_l[prefix_len + stable:]

    # ------------------------------------------------------------------
    def _linearization_tail(self) -> tuple | None:
        """From the watermark state alone: every stored record is
        released, late, pending or new, and released and late records
        sort at or below ``_last_key``."""
        keys = [self._sort_key(r) for r in self._new]
        if self._pending:
            keys.append(self._sort_key(self._pending[-1]))
        if self._last_key is not None:
            keys.append(self._last_key)
        return max(keys, default=None)

    def frontier_snapshot(self) -> dict[str, Any]:
        """The watermark frontier plus the release state: ``processed``
        released records and the emission state machine."""
        snap = super().frontier_snapshot()
        snap.update({
            "processed": len(self._processed),
            "state": dict(self._state),
        })
        return snap


class OnlineScalarStrobeDetector(_Watermark, Detector):
    """Watermark-based online scalar-strobe detection.

    The 2Δ stability argument holds for the scalar order too: any
    record generated Δ after record r has merged r's strobe and ticked,
    so its scalar strictly exceeds r's — once r has been stable for 2Δ,
    nothing can sort before it.  The detector releases the stable prefix
    of the (value, pid, seq) order by rising edges of φ.

    Lighter than the vector variant (no race analysis — scalar strobes
    carry no concurrency information, so every detection is FIRM and
    error-prone exactly as the offline scalar detector is).
    """

    name = "online_strobe_scalar"
    _stamp = "strobe_scalar"
    _sort_key = staticmethod(ScalarStrobeDetector._sort_key)

    def __init__(
        self,
        sim: Simulator,
        predicate: Predicate,
        initials: Mapping[str, Any],
        *,
        delta: float,
        check_period: float = 0.1,
        liveness_horizon: float | None = None,
    ) -> None:
        super().__init__(predicate, initials)
        self._watermark_init(
            sim, delta=delta, check_period=check_period,
            liveness_horizon=liveness_horizon, label="online-scalar-detect",
        )
        self._prev = False

    feed = _Watermark.feed
    flush = _Watermark.flush
    finalize = _Watermark.finalize

    def _flush_stable(
        self, pending: list[SensedEventRecord], stable: int, now: float
    ) -> None:
        """Release the stable prefix by rising edges of φ."""
        found, self._prev = self._rising_edges(
            pending[:stable], self._env, self._prev, {"emit_time": now}
        )
        self.detections += found
        for d in found:
            self._emitted(d, now)

    def frontier_snapshot(self) -> dict[str, Any]:
        """The watermark frontier plus the rising-edge state;
        ``processed`` counts released and late records."""
        snap = super().frontier_snapshot()
        snap.update({
            "processed": self._released + self.late_records,
            "prev": self._prev,
        })
        return snap


__all__ = ["OnlineVectorStrobeDetector", "OnlineScalarStrobeDetector"]
