"""repro.obs — run-wide observability (metrics, sim-time tracing, exporters).

The measurement layer the paper's argument presumes: what can a run
know about itself?  Three pieces:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket
  histograms with a no-op fast path when nothing is bound;
* :mod:`repro.obs.tracer` — nested spans dual-stamped on the
  simulation and wall time axes;
* :mod:`repro.obs.exporters` — JSONL event stream, CSV summary,
  console report, and ``BENCH_*.json`` benchmark documents.

One observer plane: an :class:`Observability` carries a registry, a
span tracer and a :class:`~repro.trace.FlightRecorder`, each optional.
Observed components (kernel, transport, loss models, processes, strobe
and vector clocks, detectors, fault injector) expose
``bind_observer(obs)``; :func:`instrument` binds a whole
:class:`~repro.core.system.PervasiveSystem` at once, and a detector
binds when it attaches to an instrumented process.  See
docs/observability.md for the metric name catalogue.
"""

from repro.obs.exporters import (
    export_bench_json,
    export_csv,
    export_jsonl,
    jsonl_events,
    load_bench_json,
    read_jsonl,
    registry_from_jsonl,
    render_console,
)
from repro.obs.instrument import Observability, instrument
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.tracer import Span, SpanTracer

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BUCKETS",
    "SpanTracer",
    "Span",
    "Observability",
    "instrument",
    "export_jsonl",
    "read_jsonl",
    "registry_from_jsonl",
    "jsonl_events",
    "export_csv",
    "render_console",
    "export_bench_json",
    "load_bench_json",
]
