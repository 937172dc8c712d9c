"""Mattern/Fidge vector clock — rules VC1–VC3 (paper §4.2.1).

Timestamps are immutable :class:`VectorTimestamp` objects with two
interchangeable backends, selected automatically by vector width:

* **tuple backend** (n < :data:`FASTPATH_MAX_N`) — components live in a
  plain Python tuple, so comparisons, merges and hashing run as C-level
  tuple operations with no per-event NumPy allocation.  This is the
  common case: the paper's scenarios run 3–16 processes, and the
  detectors compare timestamps millions of times per run.
* **NumPy backend** (n ≥ :data:`FASTPATH_MAX_N`) — an ``int64`` array,
  so wide vectors (the E12 microbench goes to n=512) keep vectorized
  component-wise operations.

Either backend can lazily materialize the other view (:meth:`as_array`
/ :meth:`as_tuple`); both hash and compare identically, a property the
tests/clocks/test_fastpath.py property suite pins.  Batch helpers
(:func:`stack_timestamps`, :func:`dominates_matrix`,
:func:`concurrency_matrix`, :func:`chain_concurrency_csr`,
:func:`merge_many`) give detectors an m-at-a-time API so hot paths stop
issuing m² Python-level ``__le__`` calls.

On top of either backend, timestamps with n ≤ :data:`PACKED_MAX_N`
components that all fit in ``64 // n - 1`` bits additionally carry a
**packed int64 encoding** (:meth:`VectorTimestamp.packed`): the
components bit-packed into one word with a guard bit per field, so a
dominance check is a single subtract-and-mask (SWAR) instead of n
comparisons — pairwise (also over bare words, :func:`packed_le`) and,
through :func:`pack_matrix`, inside the batch kernels.  Component
overflow falls back to the component-matrix kernels transparently
(tests/clocks/test_packed.py pins equivalence).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from repro.clocks.base import Clock, ClockError, validate_pid

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import Observability
    from repro.obs.registry import Counter

Ordering = Literal["<", ">", "=", "||"]

#: Width threshold for the tuple fast path; at and beyond it the NumPy
#: backend wins (vectorized compares amortize allocation overhead).
FASTPATH_MAX_N = 64

#: Bound on the elements of a single broadcast intermediate in the
#: chunked dominance kernel (keeps the O(m²·n) matrix memory-bounded).
_CHUNK_ELEMS = 1 << 22

#: Widest vector eligible for the packed-int64 encoding: n fields of
#: ``64 // n`` bits each, bit-packed into one word, with the top bit of
#: every field reserved as a borrow guard for the SWAR dominance test.
PACKED_MAX_N = 8

#: Per-width field geometry for the packed encoding (index = n).
#: ``_PACK_WIDTH[n]`` bits per component, of which the top one is the
#: guard, so components must be <= ``packed_capacity(n)``.
_PACK_WIDTH = [0] + [64 // n for n in range(1, PACKED_MAX_N + 1)]
_PACK_LIMIT = [0] + [(1 << (w - 1)) - 1 for w in _PACK_WIDTH[1:]]
#: Guard-bit masks: bit ``w - 1`` of each field set.
_PACK_GUARD = [0] + [
    sum(1 << (i * w + w - 1) for i in range(n))
    for n, w in enumerate(_PACK_WIDTH[1:], start=1)
]


def packed_capacity(n: int) -> int:
    """Largest component value the width-``n`` packed encoding holds.

    Zero when ``n`` exceeds :data:`PACKED_MAX_N` (no packed form).
    """
    return _PACK_LIMIT[n] if 1 <= n <= PACKED_MAX_N else 0


class VectorTimestamp:
    """An immutable n-component vector timestamp.

    Supports the causality partial order: ``a < b`` iff a ≤ b
    component-wise and a ≠ b (vector dominance).  ``a || b`` denotes
    concurrency.  Hashable, so timestamps can key sets/dicts in the
    lattice machinery.
    """

    __slots__ = ("_t", "_arr", "_hash", "_sum", "_packed")

    _t: "tuple[int, ...] | None"
    _arr: "np.ndarray | None"
    _hash: "int | None"
    _sum: "int | None"
    #: Packed-int64 encoding: ``None`` = not yet computed, ``-1`` =
    #: unpackable (too wide or a component overflows), else the word.
    _packed: "int | None"

    def __init__(self, components: Iterable[int]) -> None:
        if isinstance(components, np.ndarray):
            v = components
            if v.ndim != 1 or v.size == 0:
                raise ClockError(
                    f"vector timestamp needs a 1-D nonempty vector, got shape {v.shape}"
                )
            if np.any(v < 0):
                raise ClockError("vector components must be non-negative")
            if v.size < FASTPATH_MAX_N:
                self._t = tuple(int(x) for x in v)
                self._arr = None
            else:
                arr = np.asarray(v, dtype=np.int64).copy()
                arr.setflags(write=False)
                self._t = None
                self._arr = arr
        else:
            t = tuple(int(x) for x in components)
            if not t:
                raise ClockError(
                    "vector timestamp needs a 1-D nonempty vector, got shape (0,)"
                )
            if any(x < 0 for x in t):
                raise ClockError("vector components must be non-negative")
            if len(t) < FASTPATH_MAX_N:
                self._t = t
                self._arr = None
            else:
                arr = np.asarray(t, dtype=np.int64)
                arr.setflags(write=False)
                self._t = None
                self._arr = arr
        self._hash = None
        self._sum = None
        self._packed = None

    # -- trusted constructors (internal fast paths) ---------------------
    @classmethod
    def _from_trusted_tuple(cls, t: "tuple[int, ...]") -> "VectorTimestamp":
        """Wrap an already-validated component tuple (no checks)."""
        ts = cls.__new__(cls)
        ts._t = t
        ts._arr = None
        ts._hash = None
        ts._sum = None
        ts._packed = None
        return ts

    @classmethod
    def _from_trusted_array(cls, arr: "np.ndarray") -> "VectorTimestamp":
        """Wrap an already-validated int64 array (copied, frozen)."""
        ts = cls.__new__(cls)
        a = arr.copy()
        a.setflags(write=False)
        ts._t = None
        ts._arr = a
        ts._hash = None
        ts._sum = None
        ts._packed = None
        return ts

    # -- interned constants --------------------------------------------
    _ZEROS: "dict[int, VectorTimestamp]" = {}
    _UNITS: "dict[tuple[int, int], VectorTimestamp]" = {}

    @classmethod
    def zeros(cls, n: int) -> "VectorTimestamp":
        """The interned all-zero timestamp of width ``n``."""
        ts = cls._ZEROS.get(n)
        if ts is None:
            ts = cls([0] * n)
            ts.packed()          # interned constants pre-warm the encoding
            cls._ZEROS[n] = ts
        return ts

    @classmethod
    def unit(cls, n: int, pid: int) -> "VectorTimestamp":
        """The interned width-``n`` timestamp with a single 1 at ``pid``."""
        key = (n, pid)
        ts = cls._UNITS.get(key)
        if ts is None:
            validate_pid(pid, n)
            ts = cls([1 if i == pid else 0 for i in range(n)])
            ts.packed()
            cls._UNITS[key] = ts
        return ts

    # -- accessors ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._t) if self._t is not None else len(self._arr)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if self._t is not None:
            return self._t[i]
        return int(self._arr[i])  # type: ignore[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_tuple())

    def as_tuple(self) -> "tuple[int, ...]":
        """Component tuple (cached; free on the tuple backend)."""
        if self._t is None:
            self._t = tuple(int(x) for x in self._arr)  # type: ignore[union-attr]
        return self._t

    def as_array(self) -> "np.ndarray":
        """Read-only int64 view (lazily materialized on the tuple
        backend, no copy on the NumPy backend)."""
        if self._arr is None:
            arr = np.asarray(self._t, dtype=np.int64)
            arr.setflags(write=False)
            self._arr = arr
        return self._arr

    def packed(self) -> "int | None":
        """The packed-int64 encoding, or ``None`` when this timestamp
        has no packed form (wider than :data:`PACKED_MAX_N` or a
        component beyond :func:`packed_capacity`).

        Component i occupies bits ``[i*w, (i+1)*w)`` with ``w = 64 //
        n``; the top bit of every field is a zero guard bit, which makes
        dominance a single subtract-and-mask (SWAR): ``a <= b`` iff
        ``((b | G) - a) & G == G`` for the guard mask G.  Computed once
        and cached (timestamps are immutable).
        """
        p = self._packed
        if p is None:
            n = self.n
            if n > PACKED_MAX_N:
                p = -1
            else:
                w = _PACK_WIDTH[n]
                limit = _PACK_LIMIT[n]
                p = 0
                for i, c in enumerate(self.as_tuple()):
                    if c > limit:
                        p = -1
                        break
                    p |= c << (i * w)
            self._packed = p
        return p if p >= 0 else None

    # -- order ----------------------------------------------------------
    def _check(self, other: "VectorTimestamp") -> None:
        if not isinstance(other, VectorTimestamp):
            raise TypeError(f"cannot compare VectorTimestamp with {type(other)!r}")
        if other.n != self.n:
            raise ClockError(f"vector width mismatch: {self.n} vs {other.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        # Both backends hash their component tuple, so mixed-backend
        # equal timestamps collide correctly in sets/dicts.
        h = self._hash
        if h is None:
            h = hash(self.as_tuple())
            self._hash = h
        return h

    def __le__(self, other: "VectorTimestamp") -> bool:
        self._check(other)
        pa, pb = self._packed, other._packed
        if pa is not None and pb is not None and pa >= 0 and pb >= 0:
            g = _PACK_GUARD[self.n]
            return ((pb | g) - pa) & g == g
        a, b = self._t, other._t
        if a is not None and b is not None:
            return all(x <= y for x, y in zip(a, b))
        return bool(np.all(self.as_array() <= other.as_array()))

    def __lt__(self, other: "VectorTimestamp") -> bool:
        """Strict vector dominance == happens-before (the isomorphism)."""
        self._check(other)
        pa, pb = self._packed, other._packed
        if pa is not None and pb is not None and pa >= 0 and pb >= 0:
            # Packing is injective per width, so inequality of the
            # words is inequality of the vectors.
            g = _PACK_GUARD[self.n]
            return pa != pb and ((pb | g) - pa) & g == g
        a, b = self._t, other._t
        if a is not None and b is not None:
            return a != b and all(x <= y for x, y in zip(a, b))
        sa, sb = self.as_array(), other.as_array()
        return bool(np.all(sa <= sb) and np.any(sa < sb))

    def __ge__(self, other: "VectorTimestamp") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "VectorTimestamp") -> bool:
        return other.__lt__(self)

    def concurrent_with(self, other: "VectorTimestamp") -> bool:
        """True iff neither dominates the other (a || b)."""
        self._check(other)
        pa, pb = self._packed, other._packed
        if pa is not None and pb is not None and pa >= 0 and pb >= 0:
            g = _PACK_GUARD[self.n]
            return ((pb | g) - pa) & g != g and ((pa | g) - pb) & g != g
        return not (self <= other) and not (other <= self)

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Component-wise max (the join in the timestamp lattice)."""
        self._check(other)
        a, b = self._t, other._t
        if a is not None and b is not None:
            if a == b:
                return self
            return VectorTimestamp._from_trusted_tuple(
                tuple(x if x >= y else y for x, y in zip(a, b))
            )
        return VectorTimestamp._from_trusted_array(
            np.maximum(self.as_array(), other.as_array())
        )

    def sum(self) -> int:
        """Total event count witnessed (used by lattice level indexing).

        Cached — linearization sorts call this once per comparison key.
        """
        s = self._sum
        if s is None:
            if self._t is not None:
                s = sum(self._t)
            else:
                s = int(self._arr.sum())  # type: ignore[union-attr]
            self._sum = s
        return s

    def __repr__(self) -> str:
        return f"VectorTimestamp({self.as_tuple()})"


def compare(a: VectorTimestamp, b: VectorTimestamp) -> Ordering:
    """Classify the causal relation between two timestamps.

    Returns ``"<"`` (a happens-before b), ``">"``, ``"="`` or ``"||"``.
    """
    if a == b:
        return "="
    if a < b:
        return "<"
    if b < a:
        return ">"
    return "||"


def concurrent(a: VectorTimestamp, b: VectorTimestamp) -> bool:
    """Convenience alias for :meth:`VectorTimestamp.concurrent_with`."""
    return a.concurrent_with(b)


# ---------------------------------------------------------------------------
# Batch kernels — m-at-a-time operations for detector hot paths
# ---------------------------------------------------------------------------

def stack_timestamps(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Stack m same-width timestamps into an (m, n) int64 matrix."""
    ts = list(timestamps)
    if not ts:
        return np.zeros((0, 0), dtype=np.int64)
    n = ts[0].n
    for t in ts:
        if t.n != n:
            raise ClockError(f"vector width mismatch: {n} vs {t.n}")
    if ts[0]._t is not None:
        # Tuple backend: one C-level bulk conversion beats stacking m
        # tiny arrays.
        return np.asarray([t.as_tuple() for t in ts], dtype=np.int64)
    return np.stack([t.as_array() for t in ts])


def pack_matrix(vecs: "np.ndarray") -> "np.ndarray | None":
    """Pack an (m, n) int64 component matrix into m uint64 words.

    Returns ``None`` when the matrix has no packed form (``n`` beyond
    :data:`PACKED_MAX_N`, or any component beyond
    :func:`packed_capacity`) — callers fall back to the component
    matrix.  The word layout matches :meth:`VectorTimestamp.packed`.
    """
    if vecs.ndim != 2:
        return None
    n = vecs.shape[1]
    if not 1 <= n <= PACKED_MAX_N:
        return None
    if vecs.size and int(vecs.max()) > _PACK_LIMIT[n]:
        return None
    w = _PACK_WIDTH[n]
    packed = vecs[:, 0].astype(np.uint64)
    for k in range(1, n):
        packed |= vecs[:, k].astype(np.uint64) << np.uint64(k * w)
    return packed


#: Row-chunk size (in elements) for the packed kernel's scratch buffer.
#: ~64K uint64 elements = 512 KiB keeps the subtract/and/eq passes in
#: cache; one-shot (m × m) temporaries cost ~7x more in page faults at
#: m=5000.
_PACKED_CHUNK_ELEMS = 1 << 16


def packed_le(n: int) -> "Callable[[int, int], bool]":
    """Pairwise SWAR dominance over width-``n`` packed words:
    ``le(a.packed(), b.packed())`` ⇔ ``a <= b``."""
    g = _PACK_GUARD[n]
    return lambda a, b: ((b | g) - a) & g == g


def _packed_leq(
    a_packed: "np.ndarray", b_packed: "np.ndarray", n: int
) -> "np.ndarray":
    """``leq[i, j] ⇔ a[i] ≤ b[j]`` over packed words: a broadcast
    subtract with per-field guard bits absorbing borrows (SWAR), so the
    cost is ~3 elementwise passes regardless of n (the component-sliced
    kernel pays 2n - 1).  Row-chunked over a reused scratch buffer so
    the uint64 intermediates never leave cache."""
    g = np.uint64(_PACK_GUARD[n])
    la, lb = a_packed.shape[0], b_packed.shape[0]
    out = np.empty((la, lb), dtype=bool)
    bg = b_packed | g
    rows = max(1, _PACKED_CHUNK_ELEMS // max(1, lb))
    scratch = np.empty((min(rows, la), lb), dtype=np.uint64)
    for lo in range(0, la, rows):
        hi = min(la, lo + rows)
        s = scratch[: hi - lo]
        np.subtract(bg[None, :], a_packed[lo:hi, None], out=s)
        np.bitwise_and(s, g, out=s)
        np.equal(s, g, out=out[lo:hi])
    return out


def _sliced_leq(a_vecs: "np.ndarray", b_vecs: "np.ndarray") -> "np.ndarray":
    """Component-sliced ``leq[i, j] ⇔ a[i] ≤ b[j]`` (n 2-D compares)."""
    col = a_vecs[:, 0]
    leq = col[:, None] <= b_vecs[:, 0][None, :]
    for k in range(1, a_vecs.shape[1]):
        leq &= a_vecs[:, k][:, None] <= b_vecs[:, k][None, :]
    return leq


def dominates_matrix(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Boolean m×m matrix ``leq[i, j] ⇔ timestamps[i] ≤ timestamps[j]``.

    Three kernels, chosen by width: packed-SWAR when the set fits the
    int64 packed encoding (one uint64 subtract instead of n compares),
    component-sliced for other narrow vectors (n two-D compares, no
    (m, m, n) intermediate), and a chunked 3-D broadcast for wide ones
    so peak memory stays bounded by :data:`_CHUNK_ELEMS` elements.
    """
    vecs = stack_timestamps(timestamps)
    m = vecs.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=bool)
    n = vecs.shape[1]
    if n <= PACKED_MAX_N:
        packed = pack_matrix(vecs)
        if packed is not None:
            return _packed_leq(packed, packed, n)
        return _sliced_leq(vecs, vecs)
    leq = np.empty((m, m), dtype=bool)
    rows = max(1, _CHUNK_ELEMS // max(1, m * n))
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        np.all(vecs[lo:hi, None, :] <= vecs[None, :, :], axis=2, out=leq[lo:hi])
    return leq


def concurrency_matrix(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Boolean m×m matrix: ``conc[i, j]`` iff the two timestamps are
    concurrent (neither dominates).  Diagonal is False."""
    leq = dominates_matrix(timestamps)
    conc = ~(leq | leq.T)
    np.fill_diagonal(conc, False)
    return conc


#: (row, chain) pairs searched per vectorized pass of
#: :func:`chain_concurrency_csr` (whole chains per group, at least one).
_CHAIN_PAIRS = 1 << 14


def _chain_bounds(
    vecs: "np.ndarray",
    packed: "np.ndarray | None",
    walk: "np.ndarray",
    rows: "np.ndarray",
    base: "np.ndarray",
    size: "np.ndarray",
) -> "tuple[np.ndarray, np.ndarray]":
    """Per (row, chain) pair, the range ``[p, s)`` of chain positions
    concurrent with the row.  Pair i pairs stamp ``rows[i]`` with the
    chain stored at ``walk[base[i]:base[i] + size[i]]``;
    ``p = #{k : chain[k] <= row}`` (a prefix, the chain being monotone)
    and ``s = #{k : not row <= chain[k]}`` (likewise a prefix).

    Both are branchless binary searches over all pairs at once: each
    step tries to advance every count by the same power of two and
    keeps the advance where the probed chain element still satisfies
    the prefix predicate.  Probes compare packed words (SWAR) when
    ``packed`` is given, component rows otherwise.
    """
    p = np.zeros(rows.shape[0], dtype=np.intp)
    s = np.zeros(rows.shape[0], dtype=np.intp)
    if packed is not None:
        g = np.uint64(_PACK_GUARD[vecs.shape[1]])
        chain_w = packed[walk]
        row_w = packed[rows]
        row_g = row_w | g

        def below(k: "np.ndarray") -> "np.ndarray":      # chain[k] <= row
            return ((row_g - chain_w[k]) & g) == g

        def above(k: "np.ndarray") -> "np.ndarray":      # row <= chain[k]
            return (((chain_w[k] | g) - row_w) & g) == g
    else:
        chain_v = vecs[walk]
        row_v = vecs[rows]

        def below(k: "np.ndarray") -> "np.ndarray":
            return np.all(chain_v[k] <= row_v, axis=1)

        def above(k: "np.ndarray") -> "np.ndarray":
            return np.all(row_v <= chain_v[k], axis=1)

    last = size - 1
    step = 1 << (int(size.max()).bit_length() - 1)
    while step:
        k = p + (step - 1)
        fits = k <= last
        np.minimum(k, last, out=k)
        p += step * (fits & below(k + base))
        k = s + (step - 1)
        fits = k <= last
        np.minimum(k, last, out=k)
        s += step * (fits & ~above(k + base))
        step >>= 1
    return p, s


def chain_concurrency_csr(
    vecs: "np.ndarray", chains: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR form ``(cols, indptr)`` of the concurrency relation over the
    (m, n) stamp matrix ``vecs``: row i's concurrent partners (ascending)
    sit at ``cols[indptr[i]:indptr[i + 1]]``.  Equal to ``np.nonzero``
    over :func:`concurrency_matrix`'s output, per-row column order
    included.

    ``chains[i]`` labels the chain of row i.  A chain's rows, taken in
    ascending row order, must carry non-decreasing stamps (one process's
    records between clock resets, say); a :class:`ClockError` reports a
    labelling that breaks this.  Along a chain "b <= a" holds on a
    prefix and "a <= b" on a suffix, so each row's partners in a chain
    form one contiguous range, found by :func:`_chain_bounds`.  The cost
    is O(m·C·log m) for C chains plus the output size; no m×m matrix is
    built, and the (row, chain) pairs are searched in groups of about
    :data:`_CHAIN_PAIRS`.
    """
    m = vecs.shape[0]
    indptr = np.zeros(m + 1, dtype=np.intp)
    if m == 0:
        return np.empty(0, dtype=np.intp), indptr
    chains = np.asarray(chains)
    if chains.shape != (m,):
        raise ClockError(f"need one chain id per row: {chains.shape} vs ({m},)")
    walk = np.argsort(chains, kind="stable")     # chain-major, rows ascending
    labels = chains[walk]
    same = labels[1:] == labels[:-1]
    stamps = vecs[walk]
    if not np.all(stamps[:-1][same] <= stamps[1:][same]):
        raise ClockError("chain stamps must be non-decreasing in row order")
    packed = pack_matrix(vecs)
    starts = np.concatenate(([0], np.flatnonzero(~same) + 1))
    sizes = np.diff(starts, append=m)
    per = max(1, _CHAIN_PAIRS // m)
    keys = []
    for c0 in range(0, starts.shape[0], per):
        group = slice(c0, c0 + per)
        count = starts[group].shape[0]
        rows = np.tile(np.arange(m), count)
        base = np.repeat(starts[group], m)
        p, s = _chain_bounds(
            vecs, packed, walk, rows, base, np.repeat(sizes[group], m)
        )
        widths = np.maximum(s - p, 0)
        racing = np.flatnonzero(widths)
        if not racing.size:
            continue
        widths = widths[racing]
        # Expand each racing pair's [p, s) into walk positions.
        ends = np.cumsum(widths)
        first = base[racing] + p[racing] - (ends - widths)
        pos = np.arange(ends[-1]) + np.repeat(first, widths)
        keys.append(np.repeat(rows[racing], widths) * m + walk[pos])
    if not keys:
        return np.empty(0, dtype=np.intp), indptr
    # Row-major order across chains: one sort of the (row, col) keys.
    rows, cols = np.divmod(np.sort(np.concatenate(keys)), m)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return cols.astype(np.intp, copy=False), indptr


def merge_many(timestamps: Sequence[VectorTimestamp]) -> VectorTimestamp:
    """Join (component-wise max) of m ≥ 1 timestamps in one pass."""
    ts = list(timestamps)
    if not ts:
        raise ClockError("merge_many needs at least one timestamp")
    if len(ts) == 1:
        return ts[0]
    vecs = stack_timestamps(ts)
    merged = vecs.max(axis=0)
    if vecs.shape[1] < FASTPATH_MAX_N:
        return VectorTimestamp._from_trusted_tuple(tuple(int(x) for x in merged))
    return VectorTimestamp._from_trusted_array(merged)


class VectorClock(Clock[VectorTimestamp]):
    """Mattern/Fidge causality-tracking vector clock.

    VC1: local event  → ``C[i] += 1``
    VC2: send         → ``C[i] += 1``; piggyback C
    VC3: receive(T)   → ``C = max(C, T)``; ``C[i] += 1``

    Internal state is a plain Python list below :data:`FASTPATH_MAX_N`
    processes (so ``read()`` mints tuple-backed timestamps with no
    NumPy allocation) and an int64 array at or above it.

    Parameters
    ----------
    pid:
        This process's index in the vector.
    n:
        Number of processes (vector width).
    """

    def __init__(self, pid: int, n: int) -> None:
        validate_pid(pid, n)
        self._pid = int(pid)
        self._n = int(n)
        self._small = self._n < FASTPATH_MAX_N
        self._v: "list[int] | np.ndarray"
        if self._small:
            self._v = [0] * self._n
        else:
            self._v = np.zeros(self._n, dtype=np.int64)
        # Observability handles (None = no-op fast path).
        self._m_ticks: "Counter | None" = None
        self._m_merges: "Counter | None" = None
        self._m_piggyback: "Counter | None" = None

    def bind_observer(self, obs: "Observability") -> None:
        """Attach causality-clock metrics: VC1/VC2 ticks, VC3 merges,
        and piggyback units (each send carries the full n-vector)."""
        registry = obs.registry
        if registry is None:
            return
        self._m_ticks = registry.counter("clock.vector.ticks")
        self._m_merges = registry.counter("clock.vector.merges")
        self._m_piggyback = registry.counter("clock.vector.piggyback_units")

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def n(self) -> int:
        return self._n

    def on_local_event(self) -> VectorTimestamp:
        self._v[self._pid] += 1
        if self._m_ticks is not None:
            self._m_ticks.inc()
        return self.read()

    def on_send(self) -> VectorTimestamp:
        self._v[self._pid] += 1
        if self._m_ticks is not None:
            assert self._m_piggyback is not None
            self._m_ticks.inc()
            self._m_piggyback.inc(self._n)
        return self.read()

    def on_receive(self, remote: VectorTimestamp) -> VectorTimestamp:
        if remote.n != self._n:
            raise ClockError(f"vector width mismatch: {self._n} vs {remote.n}")
        if self._small:
            v = self._v
            for k, r in enumerate(remote.as_tuple()):
                if r > v[k]:  # type: ignore[index]
                    v[k] = r  # type: ignore[index]
        else:
            np.maximum(self._v, remote.as_array(), out=self._v)  # type: ignore[call-overload]
        self._v[self._pid] += 1
        if self._m_merges is not None:
            self._m_merges.inc()
        return self.read()

    def read(self) -> VectorTimestamp:
        if self._small:
            return VectorTimestamp._from_trusted_tuple(tuple(self._v))
        return VectorTimestamp._from_trusted_array(self._v)  # type: ignore[arg-type]

    def snapshot(self) -> dict[str, list[int]]:
        """JSON-safe state summary (see :mod:`repro.recover`)."""
        return {"v": [int(x) for x in self._v]}

    def __repr__(self) -> str:  # pragma: no cover
        return f"VectorClock(pid={self._pid}, v={tuple(int(x) for x in self._v)})"


__all__ = [
    "VectorClock",
    "VectorTimestamp",
    "compare",
    "concurrent",
    "Ordering",
    "FASTPATH_MAX_N",
    "PACKED_MAX_N",
    "packed_capacity",
    "stack_timestamps",
    "pack_matrix",
    "packed_le",
    "dominates_matrix",
    "concurrency_matrix",
    "chain_concurrency_csr",
    "merge_many",
]
