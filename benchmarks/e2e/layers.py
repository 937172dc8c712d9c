"""Outside-in per-layer wall split of one rep.

:class:`Tracer` wraps each layer's public entry points with in-memory
spans (name, start, end, parent) before any system is built, and
restores them afterwards.  A layer's self time is its span time minus
its child spans; a call that re-enters the layer it is already in (a
``broadcast`` reaching ``send``, a ``frontier_snapshot`` calling its
base class) stays inside the outer span.  Nothing inside ``repro``
changes, so the untraced reps measure the code as shipped and the
difference between the two is the tracing overhead.

Time no wrapped entry point covers (scenario wiring, the replay glue,
the harness) is the ``other`` layer, so the shares of one rep sum to 1.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Layers in report order; ``other`` is the remainder of the rep span.
LAYERS = (
    "sim", "world", "core", "core.receive", "clocks", "net", "trace",
    "detect.feed", "detect.flush", "detect.finalize", "detect.snapshot",
    "recover.ingest", "recover.checkpoint", "recover.codec",
    "util.atomicio",
)
OTHER = "other"


def entry_points() -> list[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    An owner that does not define the attribute itself is skipped, so
    a method inherited from a wrapped base is wrapped once.
    """
    import repro.recover.wal as wal
    from repro.clocks.physical import PhysicalClock, PhysicalVectorClock
    from repro.clocks.scalar import LamportClock
    from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
    from repro.clocks.vector import VectorClock
    from repro.core.process import SensorProcess
    from repro.detect.base import Detector
    from repro.detect.online import (
        OnlineScalarStrobeDetector,
        OnlineVectorStrobeDetector,
    )
    from repro.detect.strobe_vector import VectorStrobeDetector
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator
    from repro.trace import FlightRecorder
    from repro.world.objects import WorldState

    detectors = (
        Detector, VectorStrobeDetector,
        OnlineVectorStrobeDetector, OnlineScalarStrobeDetector,
    )
    out: list[tuple[str, Any, str]] = [
        ("sim", Simulator, "run"),
        ("world", WorldState, "set_attribute"),
        ("world", WorldState, "increment"),
        ("core", SensorProcess, "on_sense"),
        ("clocks", PhysicalClock, "read"),
    ]
    for cls in (StrobeVectorClock, StrobeScalarClock):
        out += [("clocks", cls, "on_relevant_event"), ("clocks", cls, "on_strobe")]
    for cls in (VectorClock, LamportClock, PhysicalVectorClock):
        out += [("clocks", cls, a) for a in vars(cls) if a.startswith("on_")]
    out += [("net", Network, a) for a in ("send", "broadcast", "neighbor_broadcast")]
    out += [("trace", FlightRecorder, a) for a in vars(FlightRecorder)
            if a.startswith("record_")]
    for cls in detectors:
        out += [
            ("detect.feed", cls, "feed"),
            ("detect.flush", cls, "flush"),
            ("detect.finalize", cls, "finalize"),
            ("detect.snapshot", cls, "frontier_snapshot"),
        ]
    out += [
        ("recover.ingest", wal.WalServer, "ingest"),
        ("recover.checkpoint", wal.WalServer, "checkpoint"),
        ("recover.codec", wal, "record_from_spec"),
        ("util.atomicio", wal, "durable_append_lines"),
        ("util.atomicio", wal, "atomic_write_text"),
        ("util.atomicio", wal, "fsync_dir"),
    ]
    return out


class Tracer:
    """In-memory spans over the wrapped entry points of one process.

    ``stability_wait`` is the online detectors' 2Δ: a flush counts as
    useful when at least one record's arrival + 2Δ deadline passed
    since the previous flush, with arrivals seen by the feed wrapper.
    """

    def __init__(self, *, stability_wait: float = 0.0) -> None:
        self.stability_wait = float(stability_wait)
        #: ``[name, start, end, parent index]`` per span, in start order
        self.spans: list[list[Any]] = []
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop spans and counts (between the warm-up and the rep)."""
        self.spans.clear()
        self._sims: dict[int, Any] = {}
        self._nets: dict[int, Any] = {}
        self._sim: Any = None
        self._arrived: set = set()
        self._deadlines: list[float] = []
        self._due = 0
        self.flushes = 0
        self.useful_flushes = 0

    # -- spans -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable, before: "Callable | None" = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:                    # outside the rep (input building)
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            if stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1][0]]
            stack.append((len(spans), name))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def root(self):
        """The rep span; its self time is the ``other`` layer."""
        span = [OTHER, time.perf_counter(), 0.0, -1]
        self._stack.append((len(self.spans), OTHER))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- counters fed by the wrappers -------------------------------------
    def _on_sim_run(self, args) -> None:
        sim = args[0]
        if id(sim) not in self._sims:
            # A new system (hall runs several per rep): simulated time
            # and record keys start over, so do arrivals and deadlines.
            self._sims[id(sim)] = sim
            self._arrived, self._deadlines, self._due = set(), [], 0
        self._sim = sim

    def _now(self) -> float:
        return 0.0 if self._sim is None else self._sim.now

    def _on_feed(self, args) -> None:
        detector, record = args[0], args[1]
        if not hasattr(detector, "flush") or record.key() in self._arrived:
            return
        self._arrived.add(record.key())
        self._deadlines.append(self._now() + self.stability_wait)

    def _on_flush(self, args) -> None:
        now, due = self._now(), self._due
        deadlines = self._deadlines
        while due < len(deadlines) and deadlines[due] <= now:
            due += 1
        self.flushes += 1
        self.useful_flushes += due > self._due
        self._due = due

    # -- install / restore -----------------------------------------------
    def install(self) -> None:
        from repro.net.transport import Network

        hooks = {"sim": self._on_sim_run, "detect.feed": self._on_feed,
                 "detect.flush": self._on_flush}
        for layer, owner, attr in entry_points():
            fn = vars(owner).get(attr)
            if fn is None:
                continue
            self._patch(owner, attr, self.wrap(layer, fn, hooks.get(layer)))
        register = vars(Network)["register"]

        def traced_register(net, node, receiver):
            self._nets[id(net)] = net
            return register(net, node, self.wrap("core.receive", receiver))

        self._patch(Network, "register", functools.wraps(register)(traced_register))

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], Counter]:
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            took = end - start
            self_s[name] += took
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= took
        return self_s, calls

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer share of ``wall`` and call counts, plus the kernel
        event count, messages sent and the flush useful ratio."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.share"] = self_s.get(layer, 0.0) / wall
            out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{OTHER}.share"] = self_s.get(OTHER, 0.0) / wall
        out["sim.events"] = sum(s.processed_events for s in self._sims.values())
        out["net.messages"] = sum(n.stats.sent for n in self._nets.values())
        out["detect.flush.useful_ratio"] = (
            self.useful_flushes / self.flushes if self.flushes else 0.0
        )
        return out

    def dump(self, path: "str | Path") -> None:
        """Write the spans as JSONL, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
