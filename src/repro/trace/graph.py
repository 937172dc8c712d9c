"""Happens-before reconstruction over flight-recorder logs.

:class:`CausalGraph` rebuilds Lamport's happened-before relation from
a trace: *local* edges chain each process ring in recording order,
*message* edges pair each receive with its send via the recorder's
``mid``.  ``drop`` entries join the graph through their message edge
only — a dropped message never happened at the destination, so it must
not induce local ordering there.

On top of the DAG:

* :meth:`causal_history` — the past cone of an event (every event it
  causally depends on), the Mattern-style global-state view;
* :meth:`causal_path` — for a detection, the *exact* delivery chain
  its trigger record travelled: sense at the origin, then each
  (send, receive) hop — one hop under overlay broadcast, several under
  flooding — ending at the detector's host;
* :meth:`attribute_latency` — split a detection's occurrence-to-emit
  latency into compute / queue / transport / sync segments along that
  path.

Latency attribution semantics (simulated time): ``compute_s`` is
structurally 0.0 in this discrete-event model — sensing, stamping and
broadcasting happen inside one event callback, which is instantaneous
in sim time.  The slot is kept so trace consumers see the full
four-segment schema a real deployment would fill.  ``queue_s`` is
sense→first-send (non-zero under ``strobe_every > 1`` thinning or
flood re-forwarding), ``transport_s`` is first-send→last-receive, and
``sync_s`` is last-receive→emission — the online detector's 2Δ
stability wait plus flush-period quantization, i.e. the price of
*knowing the order is final* rather than of moving the bits.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.trace.recorder import TraceEvent


class TraceError(ValueError):
    """Raised when a query cannot be answered from the trace (record
    never delivered, ring evicted the needed entries, unknown event)."""


class CausalGraph:
    """The happens-before DAG of one recorded run."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        evs = sorted(events, key=lambda e: e.gseq)
        self._events = evs
        self._by_gseq: dict[int, TraceEvent] = {e.gseq: e for e in evs}
        self._preds: dict[int, list[int]] = {e.gseq: [] for e in evs}
        self._succs: dict[int, list[int]] = {e.gseq: [] for e in evs}
        self._send_by_mid: dict[int, int] = {}
        #: first sense entry per record key, and every receive per
        #: (destination, digest) in gseq order — the two lookups each
        #: causal_path makes, answered without scanning the trace
        self._sense_by_key: dict[tuple, TraceEvent] = {}
        self._recvs: dict[tuple[int, str], list[TraceEvent]] = {}
        last_by_pid: dict[int, int] = {}
        for e in evs:
            if e.kind == "n":
                self._sense_by_key.setdefault(e.key, e)
            elif e.kind == "r":
                self._recvs.setdefault((e.pid, e.digest), []).append(e)
            if e.kind != "drop":
                prev = last_by_pid.get(e.pid)
                if prev is not None:
                    self._add_edge(prev, e.gseq)
                last_by_pid[e.pid] = e.gseq
            if e.kind == "s" and e.mid is not None:
                self._send_by_mid[e.mid] = e.gseq
        for e in evs:
            if e.kind in ("r", "drop") and e.mid is not None:
                send = self._send_by_mid.get(e.mid)
                if send is not None:
                    self._add_edge(send, e.gseq)

    def _add_edge(self, a: int, b: int) -> None:
        self._succs[a].append(b)
        self._preds[b].append(a)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def event(self, gseq: int) -> TraceEvent:
        ev = self._by_gseq.get(gseq)
        if ev is None:
            raise TraceError(f"no trace event with gseq {gseq}")
        return ev

    def send_of(self, mid: int) -> TraceEvent | None:
        """The send entry a mid names, if still retained."""
        g = self._send_by_mid.get(mid)
        return self._by_gseq[g] if g is not None else None

    def n_edges(self) -> int:
        return sum(len(v) for v in self._succs.values())

    # ------------------------------------------------------------------
    def causal_history(self, gseq: int) -> list[TraceEvent]:
        """Every event in the past cone of ``gseq`` (inclusive), in
        recording order — the reconstructed ``happened-before`` past."""
        self.event(gseq)
        seen = {gseq}
        stack = [gseq]
        while stack:
            g = stack.pop()
            for p in self._preds[g]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return [self._by_gseq[g] for g in sorted(seen)]

    def causal_future(self, gseq: int) -> list[TraceEvent]:
        """Every event causally after ``gseq`` (inclusive)."""
        self.event(gseq)
        seen = {gseq}
        stack = [gseq]
        while stack:
            g = stack.pop()
            for s in self._succs[g]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return [self._by_gseq[g] for g in sorted(seen)]

    # ------------------------------------------------------------------
    def sense_event(self, key: "tuple[int, int]") -> TraceEvent:
        """The sense entry for record ``(pid, seq)``."""
        key = tuple(key)
        ev = self._sense_by_key.get(key)
        if ev is not None:
            return ev
        raise TraceError(
            f"sense event for record {key} is not in the trace "
            "(never recorded, or evicted from the ring)"
        )

    def causal_path(self, key: "tuple[int, int]", host: int) -> list[TraceEvent]:
        """The exact delivery chain of record ``key`` to ``host``.

        Returns ``[sense, send, receive, (send, receive, ...)]`` —
        alternating hops, all carrying the record's digest, ending with
        the receive at ``host``.  The *first* copy to arrive at each
        hop is followed (duplicates via other flood paths are
        suppressed by the process, so the first arrival is the one the
        detector actually consumed).  A locally-sensed record
        (``key[0] == host``) needs no messages: the path is just its
        sense event.
        """
        sense = self.sense_event(key)
        if sense.pid == host:
            return [sense]
        digest = sense.digest
        recvs = self._recvs.get((host, digest))
        if not recvs:
            raise TraceError(
                f"record {tuple(key)} was never delivered to host {host} "
                "(dropped in transit, or the receive was evicted)"
            )
        hop = recvs[0]
        back: list[TraceEvent] = [hop]          # host-side receive first
        while True:
            send = self.send_of(hop.mid) if hop.mid is not None else None
            if send is None:
                raise TraceError(
                    f"send for mid {hop.mid} missing from the trace "
                    "(evicted from the sender's ring)"
                )
            back.append(send)
            if send.pid == sense.pid:
                break
            # Flood re-forward: the forwarder received the record first.
            upstream = self._recvs.get((send.pid, digest))
            if not upstream or upstream[0].gseq >= send.gseq:
                raise TraceError(
                    f"forwarding hop at p{send.pid} has no upstream receive "
                    f"for record {tuple(key)} (evicted from the ring)"
                )
            hop = upstream[0]
            back.append(hop)
        back.append(sense)
        back.reverse()
        return back

    def attribute_latency(self, detection: Mapping[str, Any]) -> dict[str, Any]:
        """Split one detection's latency along its causal path.

        ``detection`` is a recorder/trace detection entry (``trigger``,
        ``host``, ``emit_time``).  Returns the four-segment breakdown
        plus the path itself (as gseqs).  See the module docstring for
        the segment semantics; segments always sum to ``total_s``.
        """
        path = self.causal_path(tuple(detection["trigger"]), detection["host"])
        emit = float(detection["emit_time"])
        sense = path[0]
        if len(path) == 1:
            queue_s = transport_s = 0.0
            arrival_t = sense.t
        else:
            queue_s = path[1].t - sense.t
            arrival_t = path[-1].t
            transport_s = arrival_t - path[1].t
        return {
            "trigger": list(tuple(detection["trigger"])),
            "host": detection["host"],
            "path": [e.gseq for e in path],
            "hops": (len(path) - 1) // 2,
            "compute_s": 0.0,
            "queue_s": queue_s,
            "transport_s": transport_s,
            "sync_s": emit - arrival_t,
            "total_s": emit - sense.t,
        }


__all__ = ["CausalGraph", "TraceError"]
