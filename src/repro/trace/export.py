"""Trace serialization: canonical JSONL, Perfetto export, diffing.

Three on-disk shapes:

* **trace JSONL** (`write_trace` / `read_trace`) — the same
  meta-header-plus-typed-lines schema the obs/sweep exporters use:
  line 1 is a ``kind: "meta"`` header, then one line per retained
  ring entry (the event's own kind tag — ``"c"``/``"n"``/``"a"``/
  ``"s"``/``"r"``/``"drop"`` — is the line discriminator), one ``kind: "detection"`` line per
  detection, and a closing ``kind: "summary"`` line with recording
  totals and eviction counts.  Lines are ``sort_keys`` canonical JSON,
  so the file is byte-identical across same-seed reruns;
* **Chrome/Perfetto trace-event JSON** (`export_perfetto`) — instant
  events per trace entry on one track per process, ``s``/``f`` flow
  arrows per (send, receive) mid pair, detection instants on the host
  track, and ``X`` duration slices overlaying the run's
  :class:`~repro.faults.plan.FaultPlan` windows on a dedicated faults
  track.  Open the file in ``ui.perfetto.dev`` or ``chrome://tracing``;
* **diff** (`trace_diff`) — structural comparison of two trace files
  (multiset of canonical lines), attributing differing entries to the
  fault windows of whichever trace carries a plan — the twin-run view
  for chaos recordings.

`validate_perfetto` checks an export against the checked-in subset
JSON-Schema (``docs/schemas/perfetto_trace.schema.json``) with a small
in-repo validator (:func:`validate_json`) — the toolchain bakes in no
``jsonschema`` package, and the subset (type / required / properties /
items / enum) is all the contract needs.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.trace.recorder import KINDS, FlightRecorder, TraceEvent
from repro.trace.recorder import _encode as _dumps
from repro.util.fields import check_fields, is_bool, is_int, is_int_pair, is_object, is_str, is_time

#: Version 2 adds world-plane ``w`` lines, the ``truncated`` header
#: flag, and the optional embedded replay ``manifest``.  Version-1
#: files (no world stream) still load; the replay layer refuses them
#: because a counterfactual without the world stream is meaningless.
FORMAT_VERSION = 2

#: Versions :func:`read_trace` accepts.
SUPPORTED_VERSIONS = (1, 2)


class TraceFormatError(ValueError):
    """A trace file violates the JSONL contract.

    Always carries ``path`` and (for line-level problems) the
    1-based ``lineno``, and renders them in the message —
    ``trace.jsonl:17: ...`` — so a corrupt line is findable without
    re-parsing by hand.
    """

    def __init__(
        self, path: "str | Path", message: str, *, lineno: "int | None" = None
    ) -> None:
        self.path = str(path)
        self.lineno = lineno
        where = f"{self.path}:{lineno}" if lineno is not None else self.path
        super().__init__(f"{where}: {message}")

#: Perfetto track (tid) reserved for fault-window slices; process
#: tracks are ``pid + _TID_OFFSET`` so pid 0 does not collide with it.
_FAULT_TID = 0
_TID_OFFSET = 1

_KIND_NAMES = {
    "c": "compute", "n": "sense", "a": "actuate",
    "s": "send", "r": "receive", "drop": "drop",
}


# ---------------------------------------------------------------------------
# Trace JSONL
# ---------------------------------------------------------------------------

class Trace:
    """A parsed trace file: header, events, world stream, detections,
    summary."""

    def __init__(
        self,
        meta: Mapping[str, Any],
        events: Sequence[TraceEvent],
        detections: Sequence[Mapping[str, Any]],
        summary: Mapping[str, Any],
        world: "Sequence[Mapping[str, Any]] | None" = None,
    ) -> None:
        self.meta = dict(meta)
        self.events = list(events)
        self.detections = [dict(d) for d in detections]
        self.summary = dict(summary)
        self.world = [dict(w) for w in (world or [])]

    def __len__(self) -> int:
        return len(self.events)

    @property
    def truncated(self) -> bool:
        """True when the recorder evicted ring entries — the event
        history is a suffix window, not the whole run."""
        if self.meta.get("truncated"):
            return True
        evicted = self.summary.get("evicted") or {}
        return any(int(n) > 0 for n in evicted.values())

    @property
    def manifest_spec(self) -> "dict[str, Any] | None":
        """The embedded replay manifest spec, if recorded with one."""
        spec = self.meta.get("manifest")
        return dict(spec) if spec is not None else None


def trace_jsonl_lines(recorder: FlightRecorder) -> list[str]:
    """Canonical JSONL lines for a recorder's current contents."""
    truncated = any(n > 0 for n in recorder.evicted.values())
    meta: dict[str, Any] = {
        "kind": "meta",
        "format": "repro.trace",
        "format_version": FORMAT_VERSION,
        "capacity": recorder.capacity,
        "truncated": truncated,
    }
    meta.update(recorder.meta)
    lines = [_dumps(meta)]
    # Event lines carry the event's own kind tag ("c"/"n"/"a"/"s"/"r"/
    # "drop") as the line discriminator — no wrapper key needed.  World
    # ("w") lines interleave with them in global (gseq) order, so the
    # file reads as one totally ordered record across both planes.
    events = [ev.to_json() for ev in recorder.events()]
    merged = sorted(
        events + list(recorder.world_events), key=lambda d: d["gseq"]
    )
    for row in merged:
        lines.append(_dumps(row))
    for det in recorder.detections:
        lines.append(_dumps({"kind": "detection", **det}))
    lines.append(_dumps({
        "kind": "summary",
        "recorded": recorder.total_recorded,
        "retained": recorder.retained,
        "evicted": {str(p): recorder.evicted[p] for p in recorder.pids()},
        "detections": len(recorder.detections),
        "world": len(recorder.world_events),
        "world_opaque": recorder.world_opaque,
    }))
    return lines


def write_trace(path: "str | Path", recorder: FlightRecorder) -> Path:
    path = Path(path)
    path.write_text("\n".join(trace_jsonl_lines(recorder)) + "\n")
    return path


def _is_world_value(v: Any) -> bool:
    """A JSON scalar, or the ``["repr", text]`` of an opaque value."""
    if v is None or type(v) in (bool, int, float, str):
        return True
    return type(v) is list and len(v) == 2 and v[0] == "repr" \
        and type(v[1]) is str


def _is_evicted(v: Any) -> bool:
    return type(v) is dict and all(map(is_int, v.values()))


_WORLD_FIELDS = {
    "gseq": (True, is_int, "an integer"),
    "t": (True, is_time, "a finite non-negative number"),
    "obj": (True, is_str, "a string"),
    "attr": (True, is_str, "a string"),
    "value": (True, _is_world_value, "a JSON scalar or [\"repr\", text]"),
}
_DETECTION_FIELDS = {
    "detector": (True, is_str, "a string"),
    "trigger": (True, is_int_pair, "a [pid, seq] pair"),
    "var": (True, is_str, "a string"),
    "value": (True, is_str, "a string"),
    "label": (True, is_str, "a string"),
    "emit_time": (True, is_time, "a finite non-negative number"),
    "host": (True, is_int, "an integer"),
}
_SUMMARY_FIELDS = {
    **{name: (False, is_int, "an integer") for name in (
        "recorded", "retained", "detections", "world", "world_opaque")},
    "evicted": (False, _is_evicted, "an object of integers"),
}
_META_FIELDS = {
    "capacity": (False, is_int, "an integer"),
    "truncated": (False, is_bool, "a boolean"),
    "duration": (False, is_time, "a finite non-negative number"),
    "plan": (False, is_object, "an object"),
    "manifest": (False, is_object, "an object"),
}
#: Line kind -> (name in messages, field checks), for non-event lines.
_LINE_FIELDS = {
    "w": ("world", _WORLD_FIELDS),
    "detection": ("detection", _DETECTION_FIELDS),
    "summary": ("summary", _SUMMARY_FIELDS),
}


def _check_meta(meta: Mapping[str, Any]) -> None:
    """The header fields the readers use, and an embedded fault plan
    that builds and whose windows lie on the sim-time axis."""
    check_fields(meta, _META_FIELDS)
    if meta.get("plan"):
        from repro.faults.plan import FaultError, FaultPlan

        try:
            windows = FaultPlan.from_spec(meta["plan"]).windows()
        except FaultError as exc:
            raise ValueError(f"bad fault plan: {exc}") from exc
        for w in windows:
            if not (is_time(w.start)
                    and (w.clear == float("inf") or is_time(w.clear))):
                raise TypeError(f"fault window {w.action!r} has a bad time")


def read_trace(path: "str | Path") -> Trace:
    """Parse a trace JSONL back into a :class:`Trace`.

    Every contract violation — unparsable line, missing/foreign
    header, unsupported version, unknown line kind, a missing field or
    one of the wrong type on any line — raises :class:`TraceFormatError`
    carrying the file path and the offending 1-based line number, never
    a bare ``json.JSONDecodeError`` or a reader's later crash.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceFormatError(path, f"cannot read trace: {exc}") from exc
    rows: list[tuple[int, dict[str, Any]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                path, f"malformed JSON line ({exc.msg}): {line[:80]!r}",
                lineno=lineno,
            ) from exc
        if not isinstance(row, dict):
            raise TraceFormatError(
                path, f"trace line is not a JSON object: {line[:80]!r}",
                lineno=lineno,
            )
        rows.append((lineno, row))
    if not rows or rows[0][1].get("kind") != "meta" \
            or rows[0][1].get("format") != "repro.trace":
        raise TraceFormatError(
            path, "not a repro.trace JSONL (missing meta header)", lineno=1
        )
    meta = rows[0][1]
    version = meta.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            path,
            f"unsupported format_version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})",
            lineno=1,
        )
    try:
        _check_meta(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            path, f"malformed meta header: {exc}", lineno=1
        ) from exc
    events: list[TraceEvent] = []
    world: list[dict[str, Any]] = []
    detections: list[dict[str, Any]] = []
    summary: dict[str, Any] = {}
    for lineno, row in rows[1:]:
        kind = row.get("kind")
        if kind not in KINDS and kind not in ("w", "detection", "summary"):
            raise TraceFormatError(
                path, f"unknown trace line kind {kind!r}", lineno=lineno
            )
        name, fields = _LINE_FIELDS.get(kind, ("event", None))
        try:
            if fields is None:
                events.append(TraceEvent.from_json(row))
                continue
            body = {k: v for k, v in row.items() if k != "kind"}
            check_fields(body, fields)
        except KeyError as exc:
            raise TraceFormatError(
                path, f"malformed {kind!r} {name} line is missing {exc}",
                lineno=lineno,
            ) from exc
        except TypeError as exc:
            raise TraceFormatError(
                path, f"malformed {kind!r} {name} line: {exc}", lineno=lineno,
            ) from exc
        if kind == "w":
            world.append(body)
        elif kind == "detection":
            detections.append(body)
        else:
            summary = body
    return Trace(meta, events, detections, summary, world)


# ---------------------------------------------------------------------------
# Chrome/Perfetto trace-event JSON
# ---------------------------------------------------------------------------

def _us(t: float) -> int:
    return int(round(float(t) * 1e6))


def perfetto_events(trace: Trace) -> list[dict[str, Any]]:
    """The ``traceEvents`` array for one parsed trace."""
    out: list[dict[str, Any]] = []
    pids = sorted({e.pid for e in trace.events})
    out.append({
        "ph": "M", "name": "process_name", "pid": 1, "tid": _FAULT_TID,
        "ts": 0, "args": {"name": str(trace.meta.get("scenario", "repro"))},
    })
    out.append({
        "ph": "M", "name": "thread_name", "pid": 1, "tid": _FAULT_TID,
        "ts": 0, "args": {"name": "faults"},
    })
    for pid in pids:
        out.append({
            "ph": "M", "name": "thread_name", "pid": 1,
            "tid": pid + _TID_OFFSET, "ts": 0,
            "args": {"name": f"p{pid}"},
        })
    sends_seen: set[int] = set()
    recvs_seen: set[int] = set()
    for e in trace.events:
        if e.kind == "s" and e.mid is not None:
            sends_seen.add(e.mid)
        elif e.kind == "r" and e.mid is not None:
            recvs_seen.add(e.mid)
    flow_mids = sends_seen & recvs_seen
    for e in trace.events:
        args: dict[str, Any] = {"gseq": e.gseq, "digest": e.digest}
        if e.stamps:
            args["stamps"] = e.stamps
        if e.key is not None:
            args["key"] = list(e.key)
        if e.mid is not None:
            args["mid"] = e.mid
        if e.msg_kind is not None:
            args["msg_kind"] = e.msg_kind
        if e.drop is not None:
            args["drop"] = e.drop
        out.append({
            "ph": "i", "s": "t", "name": _KIND_NAMES[e.kind],
            "cat": "event" if e.kind in ("c", "n", "a") else "net",
            "ts": _us(e.t), "pid": 1, "tid": e.pid + _TID_OFFSET,
            "args": args,
        })
        if e.mid in flow_mids:
            if e.kind == "s":
                out.append({
                    "ph": "s", "id": e.mid, "cat": "msg",
                    "name": str(e.msg_kind), "ts": _us(e.t),
                    "pid": 1, "tid": e.pid + _TID_OFFSET,
                })
            elif e.kind == "r":
                out.append({
                    "ph": "f", "bp": "e", "id": e.mid, "cat": "msg",
                    "name": str(e.msg_kind), "ts": _us(e.t),
                    "pid": 1, "tid": e.pid + _TID_OFFSET,
                })
    for det in trace.detections:
        out.append({
            "ph": "i", "s": "t", "name": "detection", "cat": "detect",
            "ts": _us(det["emit_time"]), "pid": 1,
            "tid": int(det["host"]) + _TID_OFFSET,
            "args": {k: det[k] for k in sorted(det)},
        })
    plan_spec = trace.meta.get("plan")
    if plan_spec:
        from repro.faults.plan import FaultPlan

        duration = float(trace.meta.get("duration", 0.0))
        last_t = max((e.t for e in trace.events), default=0.0)
        horizon = max(duration, last_t)
        for w in FaultPlan.from_spec(plan_spec).windows():
            clear = min(w.clear, horizon)
            out.append({
                "ph": "X", "name": w.action, "cat": "fault",
                "ts": _us(w.start), "dur": max(_us(clear) - _us(w.start), 1),
                "pid": 1, "tid": _FAULT_TID,
                "args": {str(k): w.params[k] for k in sorted(w.params)},
            })
    return out


def perfetto_document(trace: Trace) -> dict[str, Any]:
    other = {
        str(k): trace.meta[k]
        for k in sorted(trace.meta)
        if isinstance(trace.meta[k], (str, int, float, bool))
    }
    return {
        "traceEvents": perfetto_events(trace),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def export_perfetto(trace: Trace, path: "str | Path") -> Path:
    """Write the Chrome trace-event JSON for ``trace``."""
    path = Path(path)
    path.write_text(_dumps(perfetto_document(trace)) + "\n")
    return path


# ---------------------------------------------------------------------------
# Subset JSON-Schema validation (no external deps)
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    """Raised when a document does not match a (subset) JSON schema."""


_TYPES: dict[str, "type | tuple[type, ...]"] = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def validate_json(instance: Any, schema: Mapping[str, Any], path: str = "$") -> None:
    """Validate against the subset of JSON Schema this repo uses:
    ``type`` (string or list), ``required``, ``properties``, ``items``,
    ``enum``, ``minItems``.  Raises :class:`SchemaError` with a
    JSON-path to the first violation."""
    expected = schema.get("type")
    if expected is not None:
        names = [expected] if isinstance(expected, str) else list(expected)
        ok = False
        for name in names:
            py = _TYPES.get(name)
            if py is None:
                raise SchemaError(f"{path}: schema names unknown type {name!r}")
            if name in ("number", "integer") and isinstance(instance, bool):
                continue
            if isinstance(instance, py):
                ok = True
                break
        if not ok:
            raise SchemaError(
                f"{path}: expected {' or '.join(names)}, "
                f"got {type(instance).__name__}"
            )
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        raise SchemaError(f"{path}: {instance!r} not in enum {enum}")
    if isinstance(instance, dict):
        for req in schema.get("required", ()):
            if req not in instance:
                raise SchemaError(f"{path}: missing required key {req!r}")
        props = schema.get("properties", {})
        for key in sorted(instance):
            sub = props.get(key)
            if sub is not None:
                validate_json(instance[key], sub, f"{path}.{key}")
    elif isinstance(instance, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(instance) < min_items:
            raise SchemaError(
                f"{path}: needs at least {min_items} items, has {len(instance)}"
            )
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(instance):
                validate_json(item, items, f"{path}[{i}]")


def default_schema_path() -> Path:
    """The checked-in Perfetto schema (docs/schemas/, repo-relative)."""
    return (
        Path(__file__).resolve().parents[3]
        / "docs" / "schemas" / "perfetto_trace.schema.json"
    )


def validate_perfetto(
    doc: Mapping[str, Any], schema_path: "str | Path | None" = None
) -> None:
    """Validate a Perfetto export against the checked-in schema."""
    path = Path(schema_path) if schema_path is not None else default_schema_path()
    schema = json.loads(path.read_text())
    validate_json(doc, schema)


# ---------------------------------------------------------------------------
# Trace diffing (twin runs)
# ---------------------------------------------------------------------------

def _body_lines(path: "str | Path") -> "tuple[dict[str, Any], list[str]]":
    """(meta, canonical body lines) of one trace file."""
    trace = read_trace(path)          # validates format
    meta = dict(trace.meta)
    lines = (
        [_dumps(e.to_json()) for e in trace.events]
        + [_dumps({"kind": "w", **w}) for w in trace.world]
        + [_dumps({"kind": "detection", **d}) for d in trace.detections]
    )
    return meta, lines


def trace_diff(path_a: "str | Path", path_b: "str | Path") -> dict[str, Any]:
    """Structural diff of two trace files.

    Body lines (events + detections) are compared as multisets, so the
    diff is insensitive to interleaving but catches every entry that
    exists on one side only.  When either trace carries a fault plan,
    each differing entry is attributed to the latest fault window that
    started at or before its sim time — the per-window view of what a
    fault actually changed, mirroring the chaos harness's mismatch
    attribution.
    """
    meta_a, lines_a = _body_lines(path_a)
    meta_b, lines_b = _body_lines(path_b)
    count_a, count_b = Counter(lines_a), Counter(lines_b)
    only_a = count_a - count_b
    only_b = count_b - count_a
    identical = not only_a and not only_b and meta_a == meta_b

    def _time_of(line: str) -> float:
        row = json.loads(line)
        return float(row.get("t", row.get("emit_time", 0.0)))

    windows: list[dict[str, Any]] = []
    unattributed = 0
    plan_spec = meta_b.get("plan") or meta_a.get("plan")
    if plan_spec and (only_a or only_b):
        from repro.faults.plan import FaultPlan, window_at

        wins = FaultPlan.from_spec(plan_spec).windows()
        per_window = [0] * len(wins)
        for counter in (only_a, only_b):
            for line in sorted(counter):
                for _ in range(counter[line]):
                    best = window_at(wins, _time_of(line))
                    if best < 0:
                        unattributed += 1
                    else:
                        per_window[best] += 1
        windows = [
            {
                "action": w.action, "start": w.start,
                "clear": w.clear if w.clear != float("inf") else None,
                "diffs": n,
            }
            for w, n in zip(wins, per_window)
        ]
    return {
        "identical": identical,
        "meta_equal": meta_a == meta_b,
        "entries_a": len(lines_a),
        "entries_b": len(lines_b),
        "only_a": sum(only_a.values()),
        "only_b": sum(only_b.values()),
        "sample_only_a": sorted(only_a)[:5],
        "sample_only_b": sorted(only_b)[:5],
        "windows": windows,
        "unattributed": unattributed,
    }


#: Line fields that number events in firing order; two events that
#: swap order at one sim time swap these and nothing else.
_ORDINAL_FIELDS = ("gseq", "mid")


def _row(line: "str | None") -> "dict[str, Any] | None":
    if line is None:
        return None
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        return None
    return row if isinstance(row, dict) else None


def _time_peers(lines: Sequence[str], t: Any) -> Counter[str]:
    """Multiset of the lines stamped ``t``, ordinal fields removed."""
    peers: Counter[str] = Counter()
    for line in lines:
        row = _row(line)
        if row is not None and row.get("t") == t:
            for key in _ORDINAL_FIELDS:
                row.pop(key, None)
            peers[_dumps(row)] += 1
    return peers


def first_divergence(
    a_lines: Sequence[str], b_lines: Sequence[str]
) -> "dict[str, Any] | None":
    """First line where two runs' JSONL renderings differ, or None.

    Returns the 1-based ``lineno``, both lines (``a``/``b``; None past
    the end of the shorter run) and a ``kind``: ``"tie-break"`` when
    both runs hold the same multiset of lines at the diverging line's
    ``t`` once :data:`_ORDINAL_FIELDS` are removed — the same events
    fired in a different order, the signature of scheduling-order
    nondeterminism — and ``"structural"`` otherwise, including for any
    line without a ``t``.
    """
    index = next(
        (i for i, (x, y) in enumerate(zip(a_lines, b_lines)) if x != y),
        min(len(a_lines), len(b_lines)),
    )
    if index == len(a_lines) == len(b_lines):
        return None
    a = a_lines[index] if index < len(a_lines) else None
    b = b_lines[index] if index < len(b_lines) else None
    row = _row(a if a is not None else b)
    t = None if row is None else row.get("t")
    tie = t is not None and _time_peers(a_lines, t) == _time_peers(b_lines, t)
    kind = "tie-break" if tie else "structural"
    return {"lineno": index + 1, "a": a, "b": b, "kind": kind}


__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "TraceFormatError",
    "Trace",
    "trace_jsonl_lines",
    "write_trace",
    "read_trace",
    "perfetto_events",
    "perfetto_document",
    "export_perfetto",
    "SchemaError",
    "validate_json",
    "validate_perfetto",
    "default_schema_path",
    "trace_diff",
    "first_divergence",
]
