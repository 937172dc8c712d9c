"""One fuzz harness for every decoder of outside JSON.

Each decoder gets an adapter: a valid sample, the decode call, its typed
error and the check run when a mutated sample is accepted.  A mutation
rewrites one field of the sample: a value from :data:`PALETTE` (wrong
types, NaN/inf, huge and negative numbers, empty and nested
containers), a float standing in for an int, one component of a list,
a deleted or an extra key.

* Pure decoders are swept exhaustively — every field × every mutation —
  and an accepted input must round-trip through its ``to_spec``.
* The serve ingest and the trace reader run on real recordings under
  hypothesis: a refused record leaves the WAL as it was and the server
  ingesting; an accepted one reopens with the digest the server wrote.
  A trace that loads runs through ``trace report`` and the Perfetto
  export with exit 0.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultError, FaultEvent, FaultPlan
from repro.recover import Checkpoint, CheckpointError, WalServer, export_record_stream
from repro.recover.checkpoint import snapshot_digest
from repro.recover.stream import record_from_spec, record_to_spec
from repro.recover.wal import SERVABLE_FAMILIES, WalError
from repro.replay import CounterfactualSpec, RunManifest, code_digest
from repro.sweep import SweepError, coordinate_digest, read_completed_rows
from repro.trace import TraceFormatError, read_trace
from repro.trace.recorder import TraceEvent

PALETTE = [
    None, True, False, 0, -1, -1.0, 7, 2**63, 2**70, 10**400, 1.5, -0.5,
    1e300, 1.7e308, float("nan"), float("inf"), float("-inf"), "", "abc",
    "7", [], [1], [1, 2], [1, 2, 3, 4], ["repr", "x"], {}, {"a": 1},
    {"__tuple__": [1, 2]},
]
HOWS = ("set", "float", "component", "delete", "extra")


def mutate(row: dict, how: str, field: str, value: Any = 0, index: int = 0):
    """``row`` with one field rewritten; ``None`` if ``how`` does not
    apply to that field."""
    new = dict(row)
    old = row.get(field)
    if how == "set":
        new[field] = value
    elif how == "float":
        new[field] = float(old) if type(old) is int else 0.5
    elif how == "component":
        if not (isinstance(old, list) and index < len(old)):
            return None
        new[field] = [*old[:index], value, *old[index + 1:]]
    elif how == "delete":
        del new[field]
    else:
        new["zz_" + field] = value
    return new


def mutations(row: dict):
    """Every one-field mutation of ``row``, with a description."""
    for field in sorted(row):
        for how in HOWS:
            values = PALETTE if how in ("set", "component") else [PALETTE[4]]
            for value in values:
                new = mutate(row, how, field, value)
                if new is not None:
                    yield new, (field, how, value)


@st.composite
def mutated(draw, row: dict):
    """One drawn mutation of ``row``, with a description."""
    field = draw(st.sampled_from(sorted(row)))
    how = draw(st.sampled_from(HOWS))
    value = draw(st.sampled_from(PALETTE))
    index = draw(st.integers(0, 4))
    new = mutate(row, how, field, value, index)
    if new is None:
        new, how = mutate(row, "delete", field), "delete"
    return new, (field, how, new.get(field, "<missing>"))


# ---------------------------------------------------------------------------
# Pure decoders: exhaustive sweep
# ---------------------------------------------------------------------------

class Adapter(NamedTuple):
    sample: dict
    decode: Callable[[dict], Any]
    error: "type | tuple[type, ...]"
    check: Callable[[Any], bool]


def pure(sample, decode, error, encode) -> Adapter:
    """A pure decoder's adapter: what it accepts re-encodes to a spec
    that decodes to the same thing."""
    def check(obj):
        once = json.dumps(encode(obj), sort_keys=True)
        return json.dumps(encode(decode(encode(obj))), sort_keys=True) == once
    return Adapter(sample, decode, error, check)


def _params(action: str, **params) -> Adapter:
    """The params object of one action, mutated in place of a valid one."""
    def decode(p):
        return FaultEvent.from_spec({"time": 1.0, "action": action, "params": p})
    return pure(params, decode, FaultError, lambda ev: ev.params)


def _read_rows(row):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text(json.dumps(row) + "\n")
        return read_completed_rows(path)


def _load_checkpoint(payload):
    return Checkpoint.from_json(json.dumps(payload))


_EVENT = {"time": 4.0, "action": "crash", "params": {"pid": 1, "mode": "recover"},
          "duration": 2.0}
_MANIFEST = RunManifest("hall", 3, duration=20.0, delta=0.2, liveness_horizon=30.0,
                        plan=FaultPlan.from_spec({"name": "p", "events": [_EVENT]}),
                        code_digest="ab" * 8).to_spec()
_STATE = {"kernel": {"now": 1.0}}

PURE = {
    "fault_event": pure(_EVENT, FaultEvent.from_spec, FaultError, FaultEvent.to_spec),
    "fault_plan": pure({"name": "p", "events": [_EVENT]}, FaultPlan.from_spec,
                       FaultError, FaultPlan.to_spec),
    "params_crash": _params("crash", pid=1, mode="stop"),
    "params_partition": _params("partition", groups=[[0], [1, 2]], cut_edges=[[0, 1]]),
    "params_burst_loss": _params("burst_loss", p_gb=0.1, p_bg=0.2, p_good=0.0,
                                 p_bad=1.0, start_bad=True),
    "params_clock_drift": _params("clock_drift", pid=0, delta_ppm=400.0),
    "params_strobe_perturb": _params("strobe_perturb", pid=2, ticks=3, clock="vector"),
    "manifest": pure(_MANIFEST, RunManifest.from_spec, ValueError, RunManifest.to_spec),
    "counterfactual": pure(
        {"clock_family": "physical", "delta": 0.1, "check_period": 0.5,
         "plan": {"name": "q", "events": [_EVENT]}, "drop_plan": False,
         "liveness_horizon": 5.0, "set_liveness_horizon": True},
        CounterfactualSpec.from_spec, ValueError, CounterfactualSpec.to_spec),
    "checkpoint": pure(
        {"kind": "repro-checkpoint", "version": 1, "manifest": _MANIFEST,
         "processed_events": 40, "state": _STATE, "digest": snapshot_digest(_STATE),
         "code_digest": "cd" * 8},
        _load_checkpoint, CheckpointError, lambda c: json.loads(c.to_json())),
    "trace_event": pure(
        {"pid": 0, "gseq": 9, "kind": "r", "t": 1.25, "digest": "00ff", "mid": 3,
         "src": 1, "dst": 0, "msg_kind": "strobe", "size": 64, "stamps": {"v": 1},
         "key": [0, 2]},
        TraceEvent.from_json, (KeyError, TypeError), TraceEvent.to_json),
    "record": pure(
        {"t": 2.5, "pid": 1, "seq": 3, "var": "x1", "value": {"__tuple__": [1, 2]},
         "true_time": 2.25, "lamport": [4, 1], "vector": [0, 2, 1],
         "strobe_scalar": [5, 1], "strobe_vector": [1, 3, 0], "physical": 2.5},
        record_from_spec, (KeyError, TypeError, ValueError),
        lambda tr: record_to_spec(tr[1], arrival=tr[0])),
    "sweep_row": Adapter(
        {"kind": "row", "index": 0, "ref": "m.mod:f", "params": {"x": 1}, "seed": 7,
         "result": {"v": 1}},
        _read_rows, SweepError,
        lambda rows: all(k == coordinate_digest(r["ref"], r["params"], r["seed"])
                         for k, r in rows.items())),
}


@pytest.mark.parametrize("name", sorted(PURE))
def test_pure_decoder_refuses_or_round_trips_every_mutation(name):
    sample, decode, error, check = PURE[name]
    assert check(decode(sample)), "the valid sample must decode"
    for row, what in mutations(sample):
        try:
            obj = decode(row)
        except error:
            continue
        assert check(obj), what


# ---------------------------------------------------------------------------
# Serve ingest (hypothesis, on a real stream)
# ---------------------------------------------------------------------------

#: Ingested before the mutated record, so it lands on a server with
#: state (and after a checkpoint at ``checkpoint_every=4``).
PREFIX = 5


def _serve_manifest(family):
    return RunManifest(
        scenario="hall", seed=0, duration=12.0, delta=0.2,
        clock_family=family, code_digest=code_digest(),
    )


@pytest.fixture(scope="module")
def streams():
    out = {}
    for family in SERVABLE_FAMILIES:
        specs = export_record_stream(_serve_manifest(family))
        assert len(specs) > PREFIX + 3
        out[family] = specs
    return out


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_record_is_refused_or_reopens(streams, tmp_path, data):
    family = data.draw(st.sampled_from(SERVABLE_FAMILIES))
    specs = streams[family]
    spec, what = data.draw(mutated(specs[PREFIX]))
    directory = Path(tempfile.mkdtemp(dir=tmp_path)) / "serve"
    with WalServer(directory, manifest=_serve_manifest(family),
                   checkpoint_every=4) as server:
        for good in specs[:PREFIX]:
            server.ingest(good)
        wal = (directory / "wal.jsonl").read_bytes()
        try:
            server.ingest(spec)
        except WalError:
            assert (directory / "wal.jsonl").read_bytes() == wal, what
            assert server.ingested_records == PREFIX, what
            server.ingest(specs[PREFIX])        # the same server goes on
            assert server.ingested_records == PREFIX + 1, what
            return
        digest = server.checkpoint()["digest"]
    with WalServer(directory) as reopened:
        assert reopened.ingested_records == PREFIX + 1, what
        assert reopened.checkpoint()["digest"] == digest, what
        for good in specs[PREFIX + 1:PREFIX + 4]:
            reopened.ingest(good)
        reopened.finalize()


# ---------------------------------------------------------------------------
# Trace reader (hypothesis, on a real recording with a fault plan)
# ---------------------------------------------------------------------------

EARLY_FAULTS = {"name": "early", "events": [
    {"action": "partition", "time": 2.0, "duration": 3.0,
     "params": {"groups": [[0], [1, 2, 3]]}},
    {"action": "crash", "time": 6.0, "duration": 2.0,
     "params": {"pid": 2, "mode": "recover"}},
]}


def _run(argv):
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "plan.json").write_text(json.dumps(EARLY_FAULTS))
    path = tmp / "base.trace"
    assert _run(["trace", "record", "hall", "--seed", "0", "--duration", "12",
                 "--plan", str(tmp / "plan.json"), "--out", str(path)])[0] == 0
    lines = path.read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert {"meta", "n", "s", "r", "drop", "w", "detection", "summary"} <= kinds
    return lines


@st.composite
def mutated_lines(draw, lines):
    """(lines with one line mutated or cut short, a description)."""
    index = draw(st.integers(0, len(lines) - 1))
    if draw(st.integers(0, 5)) == 0:
        new = lines[index][:draw(st.integers(0, len(lines[index]) - 1))]
        what = "cut"
    else:
        row, what = draw(mutated(json.loads(lines[index])))
        new = json.dumps(row)
    return [*lines[:index], new, *lines[index + 1:]], (index + 1, what, new[:120])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_trace_is_refused_or_fully_readable(base_lines, tmp_path, data):
    lines, what = data.draw(mutated_lines(base_lines))
    path = tmp_path / "m.trace"
    path.write_text("\n".join(lines) + "\n")
    try:
        read_trace(path)
    except TraceFormatError:
        return
    rc, err = _run(["trace", "report", str(path)])
    assert rc == 0, (what, err)
    rc, err = _run(["trace", "export", str(path), "--format", "perfetto",
                    "--out", str(tmp_path / "m.json")])
    assert rc == 0, (what, err)
