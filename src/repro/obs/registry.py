"""Run-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is the passive half of :mod:`repro.obs`: instrumented
components hold *bound handles* (a :class:`Counter`, :class:`Gauge` or
:class:`Histogram` object) obtained once via :meth:`MetricsRegistry.counter`
etc., so the per-event cost of an enabled metric is one attribute
access plus an integer add — and the cost of a *disabled* one is a
single ``is None`` test (components default their handles to ``None``
until ``bind_observer`` is called).  Nothing in this module reads the
simulation clock or any RNG: attaching a registry can never perturb
event ordering or random draws (tests/obs/test_determinism.py).

Metric names are dotted paths (``kernel.events_fired``,
``net.delay_s``); the canonical set is documented in
docs/observability.md.  All instruments are process-wide aggregates —
per-entity breakdowns belong in labels-free ad-hoc metrics, kept out
of the hot paths on purpose (bounded cardinality).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable, Mapping, Sequence


class MetricError(ValueError):
    """Raised on metric misuse (name reused with a different type/buckets)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (heap depth, backlog, skew)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


#: Default histogram buckets — geometric, spanning microseconds to
#: tens of seconds, suitable for both wall-time and sim-time durations.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * (10 ** (k / 2)) for k in range(0, 15)
)


class Histogram:
    """Fixed-bucket histogram with cumulative ``<=`` bucket semantics.

    ``buckets`` are the finite upper bounds; one implicit overflow
    bucket (+inf) catches everything beyond the last bound.  ``observe``
    is O(log B) via bisect; ``sum``/``count`` track exact totals so the
    mean is not quantized.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(f"histogram {name!r} bounds must strictly increase")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (upper bound of the bucket holding it,
        clamped to the observed max so p99 can never exceed max).

        Values beyond the last bound report the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0,1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.3g})"


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """The run-wide metric namespace.

    ``counter``/``gauge``/``histogram`` create-or-return by name, so
    independent components naturally share aggregates (every strobe
    clock increments the same ``clock.strobe.emitted``).  Asking for an
    existing name as a different type raises :class:`MetricError`.

    ``sample(t_sim)`` appends a dual-stamped scalar snapshot to
    :attr:`samples` — the time-series backbone of the JSONL export.
    The wall stamp is supplied by the caller (exporters stamp it) or
    defaults to ``time.time()`` at sample time; sim time must be passed
    in because the registry deliberately knows nothing about the
    simulator.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: (t_sim, t_wall, {name: scalar}) time-series snapshots
        self.samples: list[tuple[float, float, dict[str, float]]] = []

    # -- instrument factories -------------------------------------------
    def _get(self, name: str, cls: type, *args: Any) -> Any:
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, *args)
            self._metrics[name] = m
            return m
        if not isinstance(m, cls):
            raise MetricError(
                f"metric {name!r} already registered as {type(m).__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self._get(name, Histogram, buckets)
        if h.bounds != tuple(float(b) for b in buckets):
            raise MetricError(f"histogram {name!r} re-registered with new buckets")
        return h

    # -- introspection ---------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def metrics(self) -> Iterable[Metric]:
        return (self._metrics[k] for k in sorted(self._metrics))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict view of every metric, ordered by name."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def scalar_values(self) -> dict[str, float]:
        """One scalar per metric (counter/gauge value; histogram count)."""
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            out[name] = m.count if isinstance(m, Histogram) else m.value
        return out

    def sample(self, t_sim: float, t_wall: float | None = None) -> None:
        """Record a dual-stamped time-series point of all scalar values."""
        if t_wall is None:
            import time

            t_wall = time.time()
        self.samples.append((float(t_sim), float(t_wall), self.scalar_values()))

    # -- merge (for fan-in of per-shard registries) ----------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry (summing
        counters/histograms, last-writer gauges).  Used when several
        independently instrumented runs report into one registry."""
        for name in other.names():
            m = other.get(name)
            if isinstance(m, Counter):
                self.counter(name).inc(m.value)
            elif isinstance(m, Gauge):
                self.gauge(name).set(m.value)
            elif isinstance(m, Histogram):
                h = self.histogram(name, m.bounds)
                for i, c in enumerate(m.counts):
                    h.counts[i] += c
                h.count += m.count
                h.sum += m.sum
                h.min = min(h.min, m.min)
                h.max = max(h.max, m.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def restore_snapshot(snap: Mapping[str, Mapping[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` output
    (exporter round-trip support)."""
    reg = MetricsRegistry()
    for name, d in snap.items():
        t = d["type"]
        if t == "counter":
            reg.counter(name).inc(d["value"])
        elif t == "gauge":
            reg.gauge(name).set(d["value"])
        elif t == "histogram":
            h = reg.histogram(name, d["bounds"])
            h.counts = list(d["counts"])
            h.count = d["count"]
            h.sum = d["sum"]
            h.min = d["min"] if d["min"] is not None else math.inf
            h.max = d["max"] if d["max"] is not None else -math.inf
        else:
            raise MetricError(f"unknown metric type {t!r} for {name!r}")
    return reg


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BUCKETS",
    "restore_snapshot",
]
