"""Mattern/Fidge vector clock — rules VC1–VC3 (paper §4.2.1).

Timestamps are immutable :class:`VectorTimestamp` objects whose
components live in a plain Python tuple, so pairwise comparisons,
merges and hashing run as C-level tuple operations with no per-event
NumPy allocation.  The paper's scenarios run 3–16 processes, and the
detectors compare timestamps millions of times per run.

Timestamps with n ≤ :data:`PACKED_MAX_N` components that all fit in
``64 // n - 1`` bits also have a **packed int64 encoding**
(:meth:`VectorTimestamp.packed`, computed once and cached): the
components bit-packed into one word with a guard bit per field, so a
dominance check over bare words (:func:`packed_le`) is a single
subtract-and-mask (SWAR) instead of n comparisons.  The online
detector keys its pending records by these words.

Batch helpers (:func:`stack_timestamps`, :func:`dominates_matrix`,
:func:`concurrency_matrix`, :func:`chain_concurrency_csr`) give
detectors an m-at-a-time API so hot paths stop issuing m² Python-level
``__le__`` calls; :func:`pack_matrix` packs a stamp matrix for the
chain-range race kernel.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from repro.clocks.base import Clock, ClockError, validate_pid

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import Observability
    from repro.obs.registry import Counter

Ordering = Literal["<", ">", "=", "||"]

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


def _component(x: object) -> int:
    """One validated vector component: a non-negative integer.

    Anything :func:`operator.index` accepts (``int``, NumPy integers)
    passes; floats, strings and ``bool`` raise :class:`ClockError`
    instead of being silently truncated or coerced.
    """
    if not isinstance(x, bool):
        try:
            c = operator.index(x)  # type: ignore[arg-type]
        except TypeError:
            pass
        else:
            if c < 0:
                raise ClockError("vector components must be non-negative")
            return c
    raise ClockError(f"vector components must be integers, got {x!r}")


class VectorTimestamp:
    """An immutable n-component vector timestamp.

    Supports the causality partial order: ``a < b`` iff a ≤ b
    component-wise and a ≠ b (vector dominance).  ``a || b`` denotes
    concurrency.  Hashable, so timestamps can key sets/dicts in the
    lattice machinery.
    """

    __slots__ = ("_t", "_hash", "_sum", "_packed")

    _t: "tuple[int, ...]"
    _hash: "int | None"
    _sum: "int | None"
    #: Packed-int64 encoding: ``None`` = not yet computed, ``-1`` =
    #: unpackable (too wide or a component overflows), else the word.
    _packed: "int | None"

    def __init__(self, components: Iterable[int]) -> None:
        if isinstance(components, np.ndarray):
            if components.ndim != 1:
                raise ClockError(
                    "vector timestamp needs a 1-D nonempty vector, "
                    f"got shape {components.shape}"
                )
            components = components.tolist()
        t = tuple(_component(x) for x in components)
        if not t:
            raise ClockError(
                "vector timestamp needs a 1-D nonempty vector, got shape (0,)"
            )
        self._t = t
        self._hash = None
        self._sum = None
        self._packed = None

    @classmethod
    def _from_trusted_tuple(cls, t: "tuple[int, ...]") -> "VectorTimestamp":
        """Wrap an already-validated component tuple (no checks)."""
        ts = cls.__new__(cls)
        ts._t = t
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
            cls._UNITS[key] = ts
        return ts

    # -- accessors ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i: int) -> int:
        return self._t[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._t)

    def as_tuple(self) -> "tuple[int, ...]":
        """The component tuple."""
        return self._t

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
            n = len(self._t)
            if n > PACKED_MAX_N:
                p = -1
            else:
                w = _PACK_WIDTH[n]
                limit = _PACK_LIMIT[n]
                p = 0
                for i, c in enumerate(self._t):
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
        if len(other._t) != len(self._t):
            raise ClockError(f"vector width mismatch: {self.n} vs {other.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._t)
            self._hash = h
        return h

    def __le__(self, other: "VectorTimestamp") -> bool:
        self._check(other)
        return all(x <= y for x, y in zip(self._t, other._t))

    def __lt__(self, other: "VectorTimestamp") -> bool:
        """Strict vector dominance == happens-before (the isomorphism)."""
        self._check(other)
        a, b = self._t, other._t
        return a != b and all(x <= y for x, y in zip(a, b))

    def __ge__(self, other: "VectorTimestamp") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "VectorTimestamp") -> bool:
        return other.__lt__(self)

    def concurrent_with(self, other: "VectorTimestamp") -> bool:
        """True iff neither dominates the other (a || b)."""
        return not self <= other and not other <= self

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Component-wise max (the join in the timestamp lattice)."""
        self._check(other)
        a, b = self._t, other._t
        if a == b:
            return self
        return VectorTimestamp._from_trusted_tuple(
            tuple(x if x >= y else y for x, y in zip(a, b))
        )

    def sum(self) -> int:
        """Total event count witnessed (used by lattice level indexing).

        Cached — linearization sorts call this once per comparison key.
        """
        s = self._sum
        if s is None:
            s = sum(self._t)
            self._sum = s
        return s

    def __repr__(self) -> str:
        return f"VectorTimestamp({self._t})"


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
    rows = [t._t for t in timestamps]
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    try:
        return np.asarray(rows, dtype=np.int64)
    except ValueError as exc:                    # inhomogeneous shape
        n = len(rows[0])
        other = next((len(r) for r in rows if len(r) != n), None)
        if other is None:
            raise
        raise ClockError(f"vector width mismatch: {n} vs {other}") from exc


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


def packed_le(n: int) -> "Callable[[int, int], bool]":
    """Pairwise SWAR dominance over width-``n`` packed words:
    ``le(a.packed(), b.packed())`` ⇔ ``a <= b``."""
    g = _PACK_GUARD[n]
    return lambda a, b: ((b | g) - a) & g == g


def dominates_matrix(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Boolean m×m matrix ``leq[i, j] ⇔ timestamps[i] ≤ timestamps[j]``,
    as n component-sliced 2-D compares (no (m, m, n) intermediate)."""
    vecs = stack_timestamps(timestamps)
    if vecs.shape[0] == 0:
        return np.zeros((0, 0), dtype=bool)
    leq = vecs[:, 0][:, None] <= vecs[:, 0][None, :]
    for k in range(1, vecs.shape[1]):
        leq &= vecs[:, k][:, None] <= vecs[:, k][None, :]
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


class VectorClock(Clock[VectorTimestamp]):
    """Mattern/Fidge causality-tracking vector clock.

    VC1: local event  → ``C[i] += 1``
    VC2: send         → ``C[i] += 1``; piggyback C
    VC3: receive(T)   → ``C = max(C, T)``; ``C[i] += 1``

    Internal state is a plain Python list, so ``read()`` mints a
    timestamp with one ``tuple()`` copy.

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
        self._v = [0] * self._n
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
        v = self._v
        for k, r in enumerate(remote.as_tuple()):
            if r > v[k]:
                v[k] = r
        v[self._pid] += 1
        if self._m_merges is not None:
            self._m_merges.inc()
        return self.read()

    def read(self) -> VectorTimestamp:
        return VectorTimestamp._from_trusted_tuple(tuple(self._v))

    def snapshot(self) -> dict[str, list[int]]:
        """JSON-safe state summary (see :mod:`repro.recover`)."""
        return {"v": list(self._v)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"VectorClock(pid={self._pid}, v={tuple(self._v)})"


__all__ = [
    "VectorClock",
    "VectorTimestamp",
    "compare",
    "concurrent",
    "Ordering",
    "PACKED_MAX_N",
    "packed_capacity",
    "stack_timestamps",
    "pack_matrix",
    "packed_le",
    "dominates_matrix",
    "concurrency_matrix",
    "chain_concurrency_csr",
]
