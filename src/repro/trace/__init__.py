"""repro.trace — causal flight recorder, happens-before reconstruction,
Perfetto export, and detection-latency attribution.

The recorder is the ``recorder`` part of a
:class:`repro.obs.Observability`; :func:`repro.obs.instrument` binds it
together with any registry and tracer.  See ``docs/tracing.md`` for
the subsystem guide.  Like ``repro.obs``, this package is *passive*:
it never schedules events, consumes RNG, or reads the wall clock
(OBS001 enforces this statically), so attaching a recorder cannot
change a run.
"""

from repro.trace.export import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    SchemaError,
    Trace,
    TraceFormatError,
    default_schema_path,
    export_perfetto,
    first_divergence,
    perfetto_document,
    perfetto_events,
    read_trace,
    trace_diff,
    trace_jsonl_lines,
    validate_json,
    validate_perfetto,
    write_trace,
)
from repro.trace.graph import CausalGraph, TraceError
from repro.trace.recorder import (
    DROP_REASONS,
    KINDS,
    FlightRecorder,
    TraceEvent,
    payload_digest,
    stamps_to_json,
)

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "SchemaError",
    "Trace",
    "TraceFormatError",
    "default_schema_path",
    "export_perfetto",
    "first_divergence",
    "perfetto_document",
    "perfetto_events",
    "read_trace",
    "trace_diff",
    "trace_jsonl_lines",
    "validate_json",
    "validate_perfetto",
    "write_trace",
    "CausalGraph",
    "TraceError",
    "DROP_REASONS",
    "KINDS",
    "FlightRecorder",
    "TraceEvent",
    "payload_digest",
    "stamps_to_json",
]
