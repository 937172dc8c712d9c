"""Fuzzed trace files: one mutated field of one line either fails to
load with :class:`TraceFormatError`, or loads and every reader of the
trace — ``trace report`` and the Perfetto export — runs to exit 0.

The base file is a real recording with a fault plan (so it carries
event, world, detection, drop, meta-with-plan and summary lines); each
example rewrites one line: a field set to a value of the wrong type,
NaN/inf, a float standing in for an int, a deleted or an extra key, or
the line cut short.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace import TraceFormatError, read_trace

EARLY_FAULTS = {"name": "early", "events": [
    {"action": "partition", "time": 2.0, "duration": 3.0,
     "params": {"groups": [[0], [1, 2, 3]]}},
    {"action": "crash", "time": 6.0, "duration": 2.0,
     "params": {"pid": 2, "mode": "recover"}},
]}

#: Stand-ins for a field's value: wrong types, non-finite and huge
#: numbers, empty and nested containers.
PALETTE = [
    None, True, False, 0, -1, 2**70, 1.5, -0.5, 1e300, 1.7e308,
    float("nan"), float("inf"), float("-inf"), "", "abc", "7",
    [], [1], [1, 2], ["repr", "x"], {}, {"a": 1},
]


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    from repro.cli import main

    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "plan.json").write_text(json.dumps(EARLY_FAULTS))
    path = tmp / "base.trace"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["trace", "record", "hall", "--seed", "0", "--duration",
                     "12", "--plan", str(tmp / "plan.json"),
                     "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert {"meta", "n", "s", "r", "drop", "w", "detection", "summary"} <= kinds
    return lines


@st.composite
def mutated(draw, lines):
    """(lines with one line mutated, a description of the mutation)."""
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    row = json.loads(line)
    how = draw(st.sampled_from(["set", "float", "delete", "extra", "cut"]))
    if how == "cut":
        cut = draw(st.integers(0, len(line) - 1))
        new = line[:cut]
    else:
        field = draw(st.sampled_from(sorted(row)))
        if how == "set":
            row[field] = draw(st.sampled_from(PALETTE))
        elif how == "float":
            value = row[field]
            row[field] = float(value) if type(value) is int else 0.5
        elif how == "delete":
            del row[field]
        else:
            row["zz_" + field] = draw(st.sampled_from(PALETTE))
        new = json.dumps(row)
    out = list(lines)
    out[index] = new
    return out, (index + 1, how, new[:120])


def _run(argv):
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_trace_is_refused_or_fully_readable(base_lines, tmp_path, data):
    lines, what = data.draw(mutated(base_lines))
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
