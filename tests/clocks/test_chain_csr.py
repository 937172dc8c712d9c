"""Differential tests for the chain-range race kernel.

:func:`chain_concurrency_csr` must return exactly the CSR of the dense
definition, ``np.nonzero(concurrency_matrix(ts))`` — same columns in
the same per-row order, same row pointers — on every chain-shaped
stamp set: widths on both sides of the packed-SWAR limit, components
past :func:`packed_capacity`, equal stamps, clock resets mid-chain,
and the empty and single-record sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.base import ClockError
from repro.clocks.vector import (
    PACKED_MAX_N,
    VectorTimestamp,
    chain_concurrency_csr,
    concurrency_matrix,
    pack_matrix,
    packed_capacity,
)


def dense_csr(vecs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The definition: nonzeros of the dense concurrency matrix."""
    m = vecs.shape[0]
    conc = concurrency_matrix([VectorTimestamp(row) for row in vecs])
    conc = conc.reshape(m, m)
    _, cols = np.nonzero(conc)
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(conc.sum(axis=1), out=indptr[1:])
    return cols, indptr


def assert_same_csr(got, want) -> None:
    cols, indptr = got
    assert cols.dtype == want[0].dtype and indptr.dtype == want[1].dtype
    assert cols.tobytes() == want[0].tobytes()
    assert indptr.tobytes() == want[1].tobytes()


@st.composite
def chain_sets(draw, max_m: int = 24):
    """Stamps of a few processes, in (pid, seq) store order, each
    process's records split into epochs by clock resets.

    Returns ``(vecs, epochs)``: the (m, n) stamps in store order and
    each row's epoch id (distinct across processes).  Within an epoch
    stamps never decrease; increments are often zero, so equal stamps
    are common.  A reset starts a new epoch from a freshly drawn stamp,
    often below the last one.
    """
    n = draw(st.integers(1, 12), label="n")
    cap = packed_capacity(n) if n <= PACKED_MAX_N else 1000
    # Near-capacity bases push some components past packed_capacity
    # (clamped below int64 range for n = 1, whose capacity is 2**63 - 1).
    base_hi = draw(st.sampled_from([3, min(cap, 2**40), min(cap + 2, 2**40)]),
                   label="base_hi")
    procs = draw(st.integers(1, 4), label="procs")
    m = draw(st.integers(0, max_m), label="m")
    pids = sorted(draw(st.lists(st.integers(0, procs - 1), min_size=m, max_size=m)))
    rows, epochs = [], []
    epoch = -1
    cur = None
    for k, pid in enumerate(pids):
        if cur is None or pid != pids[k - 1] or draw(st.integers(0, 5)) == 0:
            epoch += 1
            lo = max(0, base_hi - 3)
            cur = draw(st.lists(st.integers(lo, base_hi), min_size=n, max_size=n))
        else:
            step = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]),
                                 min_size=n, max_size=n))
            cur = [c + d for c, d in zip(cur, step)]
        rows.append(list(cur))
        epochs.append(epoch)
    vecs = np.asarray(rows, dtype=np.int64).reshape(m, n)
    return vecs, np.asarray(epochs, dtype=np.int64)


def linearize(vecs: np.ndarray, chains: np.ndarray):
    """The detector's (sum, pid, seq) order: a stable sort on sums of a
    (pid, seq)-sorted store."""
    order = np.argsort(vecs.sum(axis=1), kind="stable")
    return vecs[order], chains[order]


def stamp_cut_chains(vecs: np.ndarray) -> np.ndarray:
    """Chains as finalize cuts them: wherever a stamp fails to dominate
    its store-order predecessor."""
    breaks = np.any(vecs[1:] < vecs[:-1], axis=1)
    return np.concatenate(([0], np.cumsum(breaks)))[: vecs.shape[0]]


@settings(max_examples=300)
@given(chain_sets())
def test_epoch_chains_match_dense(data):
    vecs, epochs = data
    lin, chains = linearize(vecs, epochs)
    assert_same_csr(chain_concurrency_csr(lin, chains), dense_csr(lin))


@settings(max_examples=300)
@given(chain_sets())
def test_stamp_cut_chains_match_dense(data):
    """The finalize labelling: chains may span process boundaries
    wherever stamps happen to stay ordered."""
    vecs, _ = data
    lin, chains = linearize(vecs, stamp_cut_chains(vecs))
    assert_same_csr(chain_concurrency_csr(lin, chains), dense_csr(lin))


@given(chain_sets(max_m=12))
def test_singleton_chains_match_dense(data):
    """Any stamp set is chain-shaped with one chain per row."""
    vecs, _ = data
    m = vecs.shape[0]
    assert_same_csr(chain_concurrency_csr(vecs, np.arange(m)), dense_csr(vecs))


@pytest.mark.parametrize("n", [1, 4, 8, 9, 12])
def test_packed_and_component_paths_both_run(n):
    """Widths up to PACKED_MAX_N pack unless a component overflows;
    wider ones never pack — each case still matches the definition."""
    cap = packed_capacity(n)
    small = np.array([[1] * n, [2] * n, [0] * (n - 1) + [5]], dtype=np.int64)
    assert (pack_matrix(small) is not None) == (n <= PACKED_MAX_N)
    chains = np.array([0, 0, 1])
    lin, ch = linearize(small, chains)
    assert_same_csr(chain_concurrency_csr(lin, ch), dense_csr(lin))
    if 2 <= n <= PACKED_MAX_N:
        over = small + cap           # most components now past capacity
        assert pack_matrix(over) is None
        lin, ch = linearize(over, chains)
        assert_same_csr(chain_concurrency_csr(lin, ch), dense_csr(lin))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_empty_and_single_record(n):
    for m in (0, 1):
        vecs = np.ones((m, n), dtype=np.int64)
        cols, indptr = chain_concurrency_csr(vecs, np.zeros(m, dtype=np.int64))
        assert cols.size == 0 and cols.dtype == np.intp
        assert indptr.tolist() == [0] * (m + 1) and indptr.dtype == np.intp


def test_equal_stamps_never_race():
    vecs = np.array([[2, 1], [2, 1], [2, 1], [1, 3]], dtype=np.int64)
    cols, indptr = chain_concurrency_csr(vecs, np.array([0, 0, 1, 2]))
    races = [cols[indptr[i]:indptr[i + 1]].tolist() for i in range(4)]
    assert races == [[3], [3], [3], [0, 1, 2]]


def test_non_monotone_chain_rejected():
    vecs = np.array([[2, 0], [1, 0]], dtype=np.int64)
    with pytest.raises(ClockError):
        chain_concurrency_csr(vecs, np.array([0, 0]))
    with pytest.raises(ClockError):
        chain_concurrency_csr(vecs, np.array([0]))
