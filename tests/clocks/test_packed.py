"""Equivalence properties for the packed-int64 timestamp encoding.

The cached word (:meth:`VectorTimestamp.packed`), the bare-word SWAR
compare :func:`packed_le` and the matrix packer :func:`pack_matrix`
must agree bit-for-bit with the component-wise definitions for every
width n = 1..8, and a component beyond :func:`packed_capacity` must
leave the timestamp without a packed form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clocks.vector import (
    PACKED_MAX_N,
    VectorTimestamp,
    chain_concurrency_csr,
    concurrency_matrix,
    dominates_matrix,
    pack_matrix,
    packed_capacity,
    packed_le,
    stack_timestamps,
)


def reference_leq(a, b) -> bool:
    """Component-wise dominance, the definition."""
    return all(x <= y for x, y in zip(a, b))


@st.composite
def packable_pairs(draw):
    """Two same-width component tuples that both fit the packed form."""
    n = draw(st.integers(1, PACKED_MAX_N))
    cap = packed_capacity(n)
    comp = st.integers(0, min(cap, 10_000))
    a = draw(st.lists(comp, min_size=n, max_size=n))
    # Bias toward comparable pairs: sometimes offset a, sometimes fresh.
    if draw(st.booleans()):
        b = [x + draw(st.integers(0, 3)) for x in a]
    else:
        b = draw(st.lists(comp, min_size=n, max_size=n))
    if any(x > cap for x in b):
        b = [min(x, cap) for x in b]
    return tuple(a), tuple(b)


@st.composite
def mixed_pairs(draw):
    """Pairs where either side may overflow the packed capacity."""
    n = draw(st.integers(1, PACKED_MAX_N))
    cap = packed_capacity(n)
    comp = st.integers(0, cap * 4 + 4)
    a = tuple(draw(st.lists(comp, min_size=n, max_size=n)))
    b = tuple(draw(st.lists(comp, min_size=n, max_size=n)))
    return a, b


@given(packable_pairs())
def test_pairwise_packed_matches_componentwise(pair):
    """``packed_le`` over the cached words is component-wise dominance."""
    a, b = pair
    ta, tb = VectorTimestamp(a), VectorTimestamp(b)
    pa, pb = ta.packed(), tb.packed()
    assert pa is not None and pb is not None
    le = packed_le(len(a))
    assert le(pa, pb) == reference_leq(a, b) == (ta <= tb)
    assert le(pb, pa) == reference_leq(b, a) == (tb <= ta)


@given(mixed_pairs())
def test_pairwise_overflow_falls_back(pair):
    """Components beyond capacity: packed() is None; where both sides
    pack, ``packed_le`` still matches the definition."""
    a, b = pair
    ta, tb = VectorTimestamp(a), VectorTimestamp(b)
    cap = packed_capacity(len(a))
    for t, comps in ((ta, a), (tb, b)):
        expected_packable = max(comps) <= cap
        assert (t.packed() is not None) == expected_packable
    if ta.packed() is not None and tb.packed() is not None:
        assert packed_le(len(a))(ta.packed(), tb.packed()) == reference_leq(a, b)
    assert (ta <= tb) == reference_leq(a, b)
    assert ta.concurrent_with(tb) == (
        not reference_leq(a, b) and not reference_leq(b, a)
    )


@given(packable_pairs())
def test_merge_hash_eq_unaffected_by_packed_warmup(pair):
    """Warming the packed cache must not perturb merge/hash/eq."""
    a, b = pair
    cold_a, cold_b = VectorTimestamp(a), VectorTimestamp(b)
    warm_a, warm_b = VectorTimestamp(a), VectorTimestamp(b)
    warm_a.packed(), warm_b.packed()
    assert (cold_a == cold_b) == (warm_a == warm_b) == (a == b)
    assert hash(warm_a) == hash(cold_a)
    merged_cold = cold_a.merge(cold_b)
    merged_warm = warm_a.merge(warm_b)
    assert merged_cold == merged_warm
    assert merged_cold.as_tuple() == tuple(max(x, y) for x, y in zip(a, b))
    # The merge result packs iff its components fit — and stays correct.
    assert (merged_warm.packed() is not None) == (
        max(merged_warm.as_tuple()) <= packed_capacity(len(a))
    )


@st.composite
def timestamp_matrices(draw):
    """(m, n) component matrices, n = 1..8, mostly packable."""
    n = draw(st.integers(1, PACKED_MAX_N))
    m = draw(st.integers(1, 10))
    cap = packed_capacity(n)
    # Clamp below int64 range: n=1 has capacity 2**63 - 1, so doubling
    # it would overflow the component matrix dtype rather than exercise
    # the packed-capacity fallback.
    hi = draw(
        st.sampled_from(
            [min(6, cap), min(cap, 2**40), min(cap * 2 + 1, 2**62)]
        )
    )
    rows = draw(
        st.lists(
            st.lists(st.integers(0, hi), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return np.asarray(rows, dtype=np.int64)


@given(timestamp_matrices())
def test_pack_matrix_matches_scalar_packing(vecs):
    packed = pack_matrix(vecs)
    n = vecs.shape[1]
    ts = [VectorTimestamp(row) for row in vecs]
    if any(t.packed() is None for t in ts):
        assert packed is None
    else:
        assert packed is not None
        assert packed.dtype == np.uint64
        assert [int(w) for w in packed] == [t.packed() for t in ts]


@given(timestamp_matrices())
def test_batch_kernels_match_pairwise(vecs):
    """dominates/concurrency matrices and the CSR kernel agree with the
    pairwise operators whether or not the set packs.  Any stamp set is
    chain-shaped once every row is its own chain."""
    ts = [VectorTimestamp(row) for row in vecs]
    m = len(ts)
    leq = dominates_matrix(ts)
    ref = np.array(
        [[tsa <= tsb for tsb in ts] for tsa in ts], dtype=bool
    )
    assert np.array_equal(leq, ref)
    conc = concurrency_matrix(ts)
    ref_conc = np.array(
        [
            [i != j and ts[i].concurrent_with(ts[j]) for j in range(m)]
            for i in range(m)
        ],
        dtype=bool,
    )
    assert np.array_equal(conc, ref_conc)
    cols, indptr = chain_concurrency_csr(vecs, np.arange(m))
    rows_ref, cols_ref = np.nonzero(ref_conc)
    assert np.array_equal(cols, cols_ref)
    assert np.array_equal(indptr[1:] - indptr[:-1], ref_conc.sum(axis=1))


@given(timestamp_matrices())
def test_packed_and_sliced_kernels_agree(vecs):
    """The bare-word compare ``packed_le`` over :func:`pack_matrix`
    words agrees with the component-sliced :func:`dominates_matrix` on
    every packable set."""
    packed = pack_matrix(vecs)
    assume(packed is not None)
    leq = dominates_matrix([VectorTimestamp(row) for row in vecs])
    le = packed_le(vecs.shape[1])
    words = [int(w) for w in packed]
    assert np.array_equal(
        leq, np.array([[le(a, b) for b in words] for a in words])
    )


@pytest.mark.parametrize("n", range(1, PACKED_MAX_N + 1))
def test_capacity_boundary(n):
    """A component at capacity packs; one past it does not — and both
    compare identically against a packable partner."""
    cap = packed_capacity(n)
    at = VectorTimestamp([cap] * n)
    over = VectorTimestamp([cap] * (n - 1) + [cap + 1])
    assert at.packed() is not None
    assert over.packed() is None
    small = VectorTimestamp([0] * n)
    assert small <= at and small <= over
    assert not (at <= small)
    assert not (over <= small)
    assert (at <= over) == reference_leq(at.as_tuple(), over.as_tuple())


@settings(max_examples=25)
@given(st.integers(1, PACKED_MAX_N))
def test_stack_roundtrip_width(n):
    ts = [VectorTimestamp.unit(n, p) for p in range(n)]
    vecs = stack_timestamps(ts)
    assert vecs.shape == (n, n)
    assert np.array_equal(vecs, np.eye(n, dtype=np.int64))
    packed = pack_matrix(vecs)
    assert packed is not None
    assert [int(w) for w in packed] == [t.packed() for t in ts]
