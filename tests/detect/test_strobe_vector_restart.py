"""Offline race analysis across a fail-recover restart.

A restarted process reboots its strobe clock from zero, so its record
stream stops being one monotone chain: the post-restart records start
a new epoch.  Offline finalize over a host store from the chaos run
must still produce the race CSR — and hence the detections — of the
dense definition, computed here independently of the chain kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocks.vector import VectorTimestamp, concurrency_matrix, stack_timestamps
from repro.detect import strobe_vector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.faults import default_plan
from repro.faults.chaos import LIVENESS_HORIZON
from repro.replay.engine import ReplayEngine
from repro.replay.manifest import RunManifest, code_digest


@pytest.fixture(scope="module")
def chaos_run():
    manifest = RunManifest(
        scenario="smart_office_chaos", seed=0, duration=140.0, delta=0.0,
        clock_family="vector_strobe", check_period=0.1, capacity=65536,
        liveness_horizon=LIVENESS_HORIZON, plan=default_plan(),
        code_digest=code_digest(),
    )
    return ReplayEngine().execute(manifest)


def dense_csr(vecs, chains):
    """Reference race CSR: nonzeros of the dense concurrency matrix
    (chain labels ignored)."""
    conc = concurrency_matrix([VectorTimestamp(row) for row in vecs])
    _, cols = np.nonzero(conc)
    indptr = np.zeros(conc.shape[0] + 1, dtype=np.intp)
    np.cumsum(conc.sum(axis=1), out=indptr[1:])
    return cols, indptr


def offline_finalize(host, kernel, monkeypatch):
    """Finalize a fresh offline detector over the host's store, with
    ``kernel`` as the race kernel; returns (detections, (cols, indptr))."""
    seen = []

    def recording(vecs, chains):
        out = kernel(vecs, chains)
        seen.append(out)
        return out

    monkeypatch.setattr(strobe_vector, "chain_concurrency_csr", recording)
    det = VectorStrobeDetector(host.predicate, host.initials)
    det.feed_many(host.store.all())
    detections = det.finalize()
    assert len(seen) == 1
    return detections, seen[0]


def test_restart_splits_a_process_chain(chaos_run):
    system = chaos_run.scenario.system
    assert sum(p.restarts for p in system.processes) == 1
    records = chaos_run.detector.detector.store.all()
    vecs = stack_timestamps([r.strobe_vector for r in records])
    pids = np.array([r.pid for r in records])
    resets = np.any(vecs[1:] < vecs[:-1], axis=1) & (pids[1:] == pids[:-1])
    assert resets.sum() == 1          # one process's clock went back to zero


def test_offline_finalize_matches_dense_reference(chaos_run, monkeypatch):
    host = chaos_run.detector.detector
    kernel = strobe_vector.chain_concurrency_csr
    got, (cols, indptr) = offline_finalize(host, kernel, monkeypatch)
    want, (ref_cols, ref_indptr) = offline_finalize(host, dense_csr, monkeypatch)
    assert cols.size > 0              # the run does race
    assert cols.tobytes() == ref_cols.tobytes()
    assert indptr.tobytes() == ref_indptr.tobytes()
    assert got and [
        (d.trigger.pid, d.trigger.seq, d.label, d.detail) for d in got
    ] == [(d.trigger.pid, d.trigger.seq, d.label, d.detail) for d in want]
