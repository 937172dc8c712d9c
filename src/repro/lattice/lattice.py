"""State-lattice construction and statistics.

Enumerates all consistent cuts level by level (level = number of
included events), the standard Cooper–Marzullo sweep.  The enumeration
is exact, with an explicit ``max_states`` guard because the unpruned
lattice of an n-process execution with p events each has O(p^n) states
(§4.2.4) — hitting the guard raises rather than silently truncating.

Statistics reported for E4:

* ``n_states`` — lattice size (consistent cuts, including the empty
  and final cuts);
* ``width_per_level`` / ``max_width`` — the "fatness" profile;
* ``is_chain`` — True iff the lattice is a total order (the Δ=0
  strobe-per-event case: a linear order of n·p + 1 cuts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.clocks.vector import VectorTimestamp
from repro.lattice.cut import Cut


class LatticeExplosion(RuntimeError):
    """Raised when enumeration would exceed the state cap."""


@dataclass(slots=True)
class LatticeStats:
    """Summary statistics of a consistent-cut lattice."""

    n_states: int
    n_levels: int
    width_per_level: list[int] = field(default_factory=list)

    @property
    def max_width(self) -> int:
        return max(self.width_per_level) if self.width_per_level else 0

    @property
    def is_chain(self) -> bool:
        """A chain has exactly one cut per level."""
        return all(w == 1 for w in self.width_per_level)

    @property
    def mean_width(self) -> float:
        if not self.width_per_level:
            return 0.0
        return sum(self.width_per_level) / len(self.width_per_level)


class StateLattice:
    """The lattice of consistent cuts of one (observed) execution.

    Parameters
    ----------
    timestamps:
        ``timestamps[i][k]`` = vector timestamp of event k of process i.
        Pass Mattern/Fidge timestamps for the program-order lattice or
        strobe-vector timestamps for the strobe-pruned sublattice.
    max_states:
        Enumeration cap; exceeding it raises :class:`LatticeExplosion`.
    """

    def __init__(
        self,
        timestamps: Sequence[Sequence[VectorTimestamp]],
        *,
        max_states: int = 2_000_000,
    ) -> None:
        if not timestamps:
            raise ValueError("need at least one process")
        self._ts = [list(per_proc) for per_proc in timestamps]
        self._n = len(self._ts)
        self._max_states = int(max_states)
        self._levels: list[list[Cut]] | None = None
        # Memoized structure, shared by enumerate_levels() and the
        # backward Definitely sweep in evaluate() (which previously
        # recomputed successors + consistency per cut per sweep):
        #   _succ     cut -> its consistent successors, built once;
        #   _interned counts-tuple -> canonical Cut, so a cut reached
        #             from several predecessors is one object;
        #   _ts_tup   timestamps as plain int tuples (C-level compares
        #             in the consistency test, no per-component
        #             __getitem__ through the timestamp wrapper);
        #   _n_events per-process event counts.
        self._succ: dict[Cut, tuple[Cut, ...]] = {}
        self._interned: dict[tuple[int, ...], Cut] = {}
        self._ts_tup = [[t.as_tuple() for t in per_proc] for per_proc in self._ts]
        self._n_events = [len(per_proc) for per_proc in self._ts]

    @property
    def n(self) -> int:
        return self._n

    def _consistent_counts(self, counts: tuple[int, ...]) -> bool:
        """``is_consistent`` over pre-extracted timestamp tuples, for
        counts already known to be in range (successor generation)."""
        ts_tup = self._ts_tup
        for i, c_i in enumerate(counts):
            if c_i == 0:
                continue
            v = ts_tup[i][c_i - 1]
            for j, c_j in enumerate(counts):
                if v[j] > c_j and j != i:
                    return False
        return True

    def _successor_cuts(self, cut: Cut) -> tuple[Cut, ...]:
        """Consistent successors of ``cut``, memoized and interned."""
        cached = self._succ.get(cut)
        if cached is not None:
            return cached
        out = []
        counts = cut.counts
        interned = self._interned
        for i in range(self._n):
            if counts[i] < self._n_events[i]:
                nxt_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                if self._consistent_counts(nxt_counts):
                    nxt = interned.get(nxt_counts)
                    if nxt is None:
                        nxt = Cut(nxt_counts)
                        interned[nxt_counts] = nxt
                    out.append(nxt)
        result = tuple(out)
        self._succ[cut] = result
        return result

    def _successors(self, cut: Cut) -> Iterator[Cut]:
        yield from self._successor_cuts(cut)

    def enumerate_levels(self) -> list[list[Cut]]:
        """All consistent cuts grouped by level (cached)."""
        if self._levels is not None:
            return self._levels
        total_events = sum(len(t) for t in self._ts)
        levels: list[list[Cut]] = [[Cut.initial(self._n)]]
        count = 1
        frontier = set(levels[0])
        for _ in range(total_events):
            nxt: set[Cut] = set()
            # Set-union fixpoint: the union is order-independent, and the
            # level itself is sorted before it is stored below.
            for cut in frontier:  # repro: noqa SIM003 -- order cannot escape
                nxt.update(self._successor_cuts(cut))
            if not nxt:
                break
            count += len(nxt)
            if count > self._max_states:
                raise LatticeExplosion(
                    f"lattice exceeds max_states={self._max_states}"
                )
            ordered = sorted(nxt, key=lambda c: c.counts)
            levels.append(ordered)
            frontier = nxt
        self._levels = levels
        return levels

    def stats(self) -> LatticeStats:
        levels = self.enumerate_levels()
        widths = [len(lv) for lv in levels]
        return LatticeStats(
            n_states=sum(widths), n_levels=len(levels), width_per_level=widths
        )

    def cuts(self) -> Iterator[Cut]:
        """All consistent cuts in level order."""
        for level in self.enumerate_levels():
            yield from level

    # ------------------------------------------------------------------
    def evaluate(
        self,
        state_of: Callable[[Cut], dict],
        predicate: Callable[[dict], bool],
    ) -> tuple[bool, bool]:
        """(possibly, definitely) for ``predicate`` over this lattice.

        ``state_of`` maps a cut to a variable environment.  Possibly:
        some cut satisfies.  Definitely: every path root→final passes
        through a satisfying cut — computed with the standard dynamic
        program (a cut is *evitable* if unsatisfying and some successor
        is evitable; Definitely ⇔ the initial cut is not evitable).
        """
        levels = self.enumerate_levels()
        possibly = False
        sat: dict[Cut, bool] = {}
        for level in levels:
            for cut in level:
                s = bool(predicate(state_of(cut)))
                sat[cut] = s
                possibly = possibly or s
        # Backward sweep for Definitely, over the successor graph built
        # during enumeration (memoized — nothing is recomputed here).
        evitable: dict[Cut, bool] = {}
        for level in reversed(levels):
            for cut in level:
                if sat[cut]:
                    evitable[cut] = False
                    continue
                succs = self._successor_cuts(cut)
                if not succs:
                    evitable[cut] = True     # reached the end avoiding φ
                else:
                    evitable[cut] = any(evitable[s] for s in succs)
        definitely = not evitable[Cut.initial(self._n)]
        return possibly, definitely


__all__ = ["StateLattice", "LatticeStats", "LatticeExplosion"]
