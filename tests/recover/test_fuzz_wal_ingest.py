"""Fuzzed serve ingest: one mutated field of a valid record spec either
raises :class:`WalError` with the WAL's bytes unchanged and the same
server still ingesting, or is accepted, after which the directory
reopens with the checkpoint digest the server wrote and finishes the
stream.

Each example takes a record of a real ``hall`` stream (either online
family) and rewrites one field: a value of the wrong type, NaN/inf, a
float standing in for an int, an out-of-range number, one component of
a stamp, or a deleted or an extra key.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.recover import WalServer, export_record_stream
from repro.recover.wal import SERVABLE_FAMILIES, WalError
from repro.replay import RunManifest, code_digest

#: Ingested before the mutated record, so it lands on a server with
#: state (and after a checkpoint at ``checkpoint_every=4``).
PREFIX = 5

#: Stand-ins for a field's value: wrong types, non-finite, huge and
#: negative numbers, empty and nested containers, a tuple encoding.
PALETTE = [
    None, True, False, 0, -1, 7, 2**70, 1.5, -0.5, 1e300,
    float("nan"), float("inf"), float("-inf"), "", "abc", "7",
    [], [1], [1, 2], [1, 2, 3, 4], {}, {"a": 1}, {"__tuple__": [1, 2]},
]


def _manifest(family):
    return RunManifest(
        scenario="hall", seed=0, duration=12.0, delta=0.2,
        clock_family=family, code_digest=code_digest(),
    )


@pytest.fixture(scope="module")
def streams():
    out = {}
    for family in SERVABLE_FAMILIES:
        specs = export_record_stream(_manifest(family))
        assert len(specs) > PREFIX + 3
        out[family] = specs
    return out


@st.composite
def mutated(draw, spec):
    """(spec with one field mutated, a description of the mutation)."""
    field = draw(st.sampled_from(sorted(spec)))
    value = spec[field]
    how = draw(st.sampled_from(["set", "float", "range", "delete", "extra",
                                "component"]))
    new = dict(spec)
    if how == "set":
        new[field] = draw(st.sampled_from(PALETTE))
    elif how == "float":
        new[field] = float(value) if type(value) is int else 0.5
    elif how == "range":
        new[field] = draw(st.sampled_from([-1, -1.0, 2**63, 1e300, 10**400]))
    elif how == "delete":
        del new[field]
    elif how == "extra":
        new["zz_" + field] = draw(st.sampled_from(PALETTE))
    elif isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        new[field] = [*value[:i], draw(st.sampled_from(PALETTE)), *value[i + 1:]]
    else:
        del new[field]
        how = "delete"
    return new, (field, how, new.get(field, "<missing>"))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_record_is_refused_or_reopens(streams, tmp_path, data):
    family = data.draw(st.sampled_from(SERVABLE_FAMILIES))
    specs = streams[family]
    spec, what = data.draw(mutated(specs[PREFIX]))
    directory = Path(tempfile.mkdtemp(dir=tmp_path)) / "serve"
    with WalServer(directory, manifest=_manifest(family),
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
