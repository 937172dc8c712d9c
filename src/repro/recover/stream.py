"""Record-stream export and a lossless record codec.

``repro serve --wal`` ingests :class:`SensedEventRecord` streams from
JSONL.  This module provides the codec (every clock stamp and the
arrival time round-trip exactly) and an exporter that taps a manifest
run at its detector host — the same local + strobe listener points
``build_detector`` wires — so the exported stream is, delivery for
delivery, what an online detector hosted there would have been fed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.clocks.scalar import ScalarTimestamp
from repro.clocks.vector import VectorTimestamp
from repro.core.records import SensedEventRecord
from repro.replay.engine import finalize_execution, prepare_execution
from repro.replay.manifest import RunManifest
from repro.util.atomicio import atomic_write_text
from repro.util.fields import Field, check_fields, is_int, is_int_pair, is_list, is_real, is_str

STREAM_FORMAT_VERSION = 1


def _encode_value(value: Any) -> Any:
    """JSON-safe tagged encoding that survives the round trip exactly
    (tuples are the one sensed-value shape JSON would mangle)."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode_value(v) for v in value["__tuple__"])
    return value


#: Field checks of a decoded record spec (``value`` is any JSON value;
#: :class:`VectorTimestamp` checks a vector's components).
_RECORD_FIELDS: dict[str, Field] = {
    "t": (True, is_real, "a finite number"),
    "pid": (True, is_int, "an integer"),
    "seq": (True, is_int, "an integer"),
    "var": (True, is_str, "a string"),
    "true_time": (False, is_real, "a finite number"),
    "lamport": (False, is_int_pair, "a [value, pid] pair"),
    "vector": (False, is_list, "a list of integers"),
    "strobe_scalar": (False, is_int_pair, "a [value, pid] pair"),
    "strobe_vector": (False, is_list, "a list of integers"),
    "physical": (False, is_real, "a finite number"),
}


def record_to_spec(record: SensedEventRecord, *, arrival: float) -> dict[str, Any]:
    """One record (plus its delivery time) as a plain JSON-able dict."""
    spec: dict[str, Any] = {
        "t": float(arrival),
        "pid": record.pid,
        "seq": record.seq,
        "var": record.var,
        "value": _encode_value(record.value),
        "true_time": record.true_time,
    }
    if record.lamport is not None:
        spec["lamport"] = [record.lamport.value, record.lamport.pid]
    if record.vector is not None:
        spec["vector"] = list(record.vector.as_tuple())
    if record.strobe_scalar is not None:
        spec["strobe_scalar"] = [
            record.strobe_scalar.value, record.strobe_scalar.pid,
        ]
    if record.strobe_vector is not None:
        spec["strobe_vector"] = list(record.strobe_vector.as_tuple())
    if record.physical is not None:
        spec["physical"] = float(record.physical)
    return spec


def record_from_spec(spec: dict[str, Any]) -> tuple[float, SensedEventRecord]:
    """Inverse of :func:`record_to_spec`: ``(arrival time, record)``.
    Raises ``KeyError``/``TypeError`` for a spec that is not a record and
    ``ValueError`` for a bad vector component."""
    check_fields(spec, _RECORD_FIELDS)
    lamport = spec.get("lamport")
    physical = spec.get("physical")
    strobe_scalar = spec.get("strobe_scalar")
    vector = spec.get("vector")
    strobe_vector = spec.get("strobe_vector")
    true_time = spec.get("true_time")
    record = SensedEventRecord(
        pid=spec["pid"],
        seq=spec["seq"],
        var=spec["var"],
        value=_decode_value(spec["value"]),
        lamport=None if lamport is None else ScalarTimestamp(*lamport),
        vector=None if vector is None else VectorTimestamp(vector),
        strobe_scalar=(
            None if strobe_scalar is None else ScalarTimestamp(*strobe_scalar)
        ),
        strobe_vector=(
            None if strobe_vector is None else VectorTimestamp(strobe_vector)
        ),
        physical=None if physical is None else float(physical),
        true_time=0.0 if true_time is None else float(true_time),
    )
    return float(spec["t"]), record


def export_record_stream(
    manifest: RunManifest, *, host: int = 0
) -> list[dict[str, Any]]:
    """Run a manifest and capture every record delivered to ``host``
    (own sensed records and strobe-carried copies), in delivery order
    with delivery times — the stream a hosted online detector sees.
    Duplicate deliveries are kept; the detector's store deduplicates on
    ingest exactly as it does live."""
    prepared = prepare_execution(manifest)
    system = prepared.system
    root = system.processes[host]
    out: list[dict[str, Any]] = []

    def collect(record: SensedEventRecord) -> None:
        out.append(record_to_spec(record, arrival=system.sim.now))

    root.add_record_listener(collect)
    root.add_strobe_listener(collect)
    prepared.scenario.run(manifest.duration)
    finalize_execution(prepared)
    return out


def write_record_stream(
    path: "str | Path", manifest: RunManifest, *, host: int = 0
) -> int:
    """Export a manifest's host record stream to JSONL (atomic write).
    Returns the number of record lines."""
    records = export_record_stream(manifest, host=host)
    header = {
        "kind": "meta",
        "format_version": STREAM_FORMAT_VERSION,
        "manifest": manifest.to_spec(),
        "host": host,
        "n_records": len(records),
    }
    lines = [json.dumps(header, sort_keys=True)] + [
        json.dumps(r, sort_keys=True) for r in records
    ]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
    return len(records)


__all__ = [
    "STREAM_FORMAT_VERSION",
    "export_record_stream",
    "record_from_spec",
    "record_to_spec",
    "write_record_stream",
]
