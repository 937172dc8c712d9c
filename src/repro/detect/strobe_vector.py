"""Vector-strobe detection with the borderline bin — the algorithm
family of [24] re-derived from the paper's description.

Records are stamped with strobe vector clocks (SVC1–SVC2).  The
observer:

1. linearizes records by ``(vector sum, pid, seq)`` — vector dominance
   implies strictly smaller component sum, so this respects the
   strobe-induced partial order;
2. replays the global state along the linearization, watching φ;
3. at every point of interest runs **race analysis**: records whose
   vector timestamps are *concurrent* with the current record raced
   with it within Δ (the strobe had not yet arrived), so their true
   order is unknown.  The analysis enumerates the alternative variable
   environments reachable by reordering the race — each racing
   record's variable may be at its pre- or post-event value — and
   classifies:

   * φ true under **every** resolution → FIRM detection;
   * φ true under some resolutions only → BORDERLINE detection
     (the §5 "borderline bin … characterized by a race condition");
   * φ false in the linearization but true under some resolution →
     BORDERLINE detection too — this is how the bin "captures … most
     false negatives" (§5).

Δ=0 behaviour: every strobe arrives before the next relevant event,
so no two records are concurrent, races vanish, and the detector's
output is exact and identical to the scalar-strobe detector's (§4.2.3
item 5; experiment E6).
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Mapping

import numpy as np

from repro.clocks.vector import chain_concurrency_csr, stack_timestamps
from repro.core.records import SensedEventRecord
from repro.detect.base import Detection, DetectionLabel, Detector
from repro.predicates.base import Predicate

#: Cache-key marker for "variable absent from the environment".
_MISSING = object()


class _MemoizedEval:
    """Per-detector memo over :meth:`Predicate.evaluate_safe`.

    Predicates are pure functions of the environment restricted to
    their declared ``variables`` (the :class:`Predicate` contract), so
    evaluation results are cached keyed on exactly those values.  Race
    analysis re-evaluates the same handful of environments thousands of
    times per finalize; the memo turns those into dict hits.  Unhashable
    variable values fall through to direct evaluation.
    """

    __slots__ = (
        "_predicate", "_vars", "_varset", "_index", "_getter", "_fast",
        "_interval", "_array", "_cache",
    )

    def __init__(self, predicate: Predicate) -> None:
        self._predicate = predicate
        self._vars = tuple(predicate.variables)
        self._varset = frozenset(self._vars)
        self._index = {v: k for k, v in enumerate(self._vars)}
        # C-level key extraction for complete environments (the common
        # case); incomplete ones fall back to the per-variable probe.
        if len(self._vars) == 1:
            only = self._vars[0]
            self._getter = lambda env: (env[only],)
        else:
            self._getter = itemgetter(*self._vars)
        #: positional evaluator over ``_vars``-ordered values, or None
        self._fast = predicate.value_evaluator()
        #: bounds-based evaluator (monotone predicates), or None
        self._interval = predicate.interval_evaluator()
        #: array form of ``_interval`` (batched offline finalize), or None
        self._array = predicate.interval_array_evaluator()
        self._cache: dict = {}

    def _eval_values(self, values) -> bool | None:
        """Evaluate on ``_vars``-ordered values without touching the memo."""
        if self._fast is not None:
            return self._fast(values)
        return self._predicate.evaluate(dict(zip(self._vars, values)))

    def evaluate_safe(self, env: Mapping[str, Any]) -> bool | None:
        try:
            key = self._getter(env)
            complete = True
        except KeyError:
            key = tuple(env.get(v, _MISSING) for v in self._vars)
            complete = False
        try:
            hit = self._cache.get(key, _MISSING)
        except TypeError:            # unhashable variable value
            return self._predicate.evaluate_safe(env)
        if hit is not _MISSING:
            return hit
        if complete:
            result: bool | None = self._eval_values(key)
        else:
            result = None            # a declared variable is absent
        self._cache[key] = result
        return result


class VectorStrobeDetector(Detector):
    """Vector-strobe Instantaneously(φ) detection with race analysis.

    Parameters
    ----------
    predicate, initials:
        As for every detector.
    max_race_combos:
        Cap on the number of alternative environments enumerated per
        race window.  Beyond the cap the detection is conservatively
        labelled BORDERLINE (a race too tangled to resolve is by
        definition borderline).
    """

    name = "strobe_vector"

    def __init__(
        self,
        predicate: Predicate,
        initials: Mapping[str, Any],
        *,
        max_race_combos: int = 4096,
    ) -> None:
        super().__init__(predicate, initials)
        self._max_combos = int(max_race_combos)
        self._eval = _MemoizedEval(predicate)

    def frontier_snapshot(self) -> dict[str, Any]:
        """Base summary plus the (sum, pid, seq) linearization frontier
        — the sort key of the last retained record, which fixes where
        the offline replay's total order currently ends."""
        snap = super().frontier_snapshot()
        tail = self._linearization_tail()
        snap["linearization_tail"] = (
            None if tail is None else [int(x) for x in tail]
        )
        return snap

    def _linearization_tail(self) -> tuple | None:
        """The largest sort key over the store, or None when empty."""
        records = self.store.all()
        return self._sort_key(max(records, key=self._sort_key)) if records else None

    # ------------------------------------------------------------------
    def _race_results(
        self,
        env: dict,
        cur: bool,
        race: list[int],
        vars_l: list[str],
        vals_l: list[Any],
        prevs: list[Any],
        applied_upto: int,
    ) -> set[bool] | None:
        """Truth values of φ over the environments reachable by
        re-resolving the race (``race`` = linearization indices of
        records concurrent with the current one; ``vars_l``/``vals_l``
        are the records' variables and post-event values, and ``prevs``
        holds the pre-event value of every *applied* record).  Returns
        None when the combination count exceeds the cap.

        ``cur`` is φ's (non-None) value in the linearization
        environment, which is always among the reachable resolutions.

        When the predicate exposes an interval evaluator (monotone in
        every variable), only each racing variable's extreme values
        matter, so the hot path tracks per-variable [lo, hi] bounds and
        never allocates value sets.  The combination cap is ruled out
        from an upper bound first — each variable reaches at most
        ``1 + (#racing alternatives)`` distinct values, so when the
        product of those bounds fits under the cap, the exact
        distinct-value product does too.  Only when the bound exceeds
        the cap (or the environment is incomplete) does the exact
        set-based analysis in :meth:`_race_results_sets` re-run.
        """
        ev = self._eval
        fast = ev._interval
        if fast is None:
            return self._race_results_sets(
                env, cur, race, vars_l, vals_l, prevs, applied_upto
            )
        info_map: dict[str, list] = {}
        get_info = info_map.get
        env_get = env.get
        for j in race:
            var = vars_l[j]
            info = get_info(var)
            if info is None:
                cu = env_get(var)
                info_map[var] = info = [cu, cu, 1]
            else:
                info[2] += 1
            alt = prevs[j] if j <= applied_upto else vals_l[j]
            if alt is not None:
                lo = info[0]
                if lo is None:
                    info[0] = info[1] = alt
                elif alt < lo:
                    info[0] = alt
                elif alt > info[1]:
                    info[1] = alt
        bound = 1
        for info in info_map.values():
            bound *= info[2] + 1
        if bound > self._max_combos:
            return self._race_results_sets(
                env, cur, race, vars_l, vals_l, prevs, applied_upto
            )
        varset = ev._varset
        index = ev._index
        positions: list[int] = []
        lows: list = []
        highs: list = []
        for var, info in info_map.items():
            # lo == hi covers both the single-distinct-value case and
            # the all-None case (an unset variable with no alternative).
            if info[0] != info[1] and var in varset:
                positions.append(index[var])
                lows.append(info[0])
                highs.append(info[1])
        if not positions:
            return {cur}
        try:
            base_key = list(ev._getter(env))
        except KeyError:             # declared variable absent
            return self._race_results_sets(
                env, cur, race, vars_l, vals_l, prevs, applied_upto
            )
        return fast(base_key, positions, lows, highs)

    def _race_results_sets(
        self,
        env: dict,
        cur: bool,
        race: list[int],
        vars_l: list[str],
        vals_l: list[Any],
        prevs: list[Any],
        applied_upto: int,
    ) -> set[bool] | None:
        """Exact set-based race analysis: builds per-variable distinct
        value sets, applies the combination cap, then evaluates via the
        interval evaluator (when available) or explicit enumeration.
        Enumeration stops early once both truth values are witnessed —
        the result set can no longer change (which is also why the
        combo visiting order is free to be arbitrary).
        """
        # For each racing record: if already applied (position <= applied_upto
        # in the linearization) its variable may alternatively still hold its
        # pre-event value; if not yet applied, it may alternatively already
        # hold its post-event value.
        choices: dict[str, set] = {}
        env_get = env.get
        setdefault = choices.setdefault
        for j in race:
            var = vars_l[j]
            current = env_get(var)
            alt = prevs[j] if j <= applied_upto else vals_l[j]
            vals = setdefault(var, {current} if current is not None else set())
            if alt is not None:
                vals.add(alt)
        vars_ = [v for v, vals in choices.items() if len(vals) > 1]
        if not vars_:
            return {cur}
        combos = 1
        for v in vars_:
            combos *= len(choices[v])
            if combos > self._max_combos:
                return None
        # The cap is counted over *all* racing variables (above,
        # unchanged semantics) but enumeration needs only the ones φ
        # reads: resolutions of φ-irrelevant variables cannot move the
        # result set.
        ev = self._eval
        varset = ev._varset
        relevant = [v for v in vars_ if v in varset]
        if not relevant:
            return {cur}
        try:
            base_key = list(ev._getter(env))
        except KeyError:             # declared variable absent: generic path
            return self._race_results_generic(env, cur, relevant, choices)
        positions = [ev._index[v] for v in relevant]
        if ev._interval is not None:
            # Structure-aware product evaluation (e.g. interval bounds
            # for linear thresholds): exact result set in O(choices).
            sets = [choices[v] for v in relevant]
            return ev._interval(
                base_key, positions,
                [min(s) for s in sets], [max(s) for s in sets],
            )
        results: set[bool] = {cur}
        cache = ev._cache
        eval_values = ev._eval_values
        for combo in itertools.product(*(choices[v] for v in relevant)):
            # Build the memo key directly — no per-combo dict copy.
            key_list = base_key.copy()
            for pos, val in zip(positions, combo):
                key_list[pos] = val
            key = tuple(key_list)
            try:
                r = cache.get(key, _MISSING)
            except TypeError:        # unhashable value: evaluate directly
                r = bool(eval_values(key_list))
            else:
                if r is _MISSING:
                    r = eval_values(key_list)
                    cache[key] = r
            if r is not None and bool(r) not in results:
                results.add(bool(r))
                break               # {True, False}: no further combo matters
        return results

    def _race_results_generic(
        self, env: dict, cur: bool, vars_: list[str], choices: dict[str, set]
    ) -> set[bool]:
        """Dict-copy enumeration fallback for incomplete environments."""
        results: set[bool] = {cur}
        evaluate = self._eval.evaluate_safe
        for combo in itertools.product(*(choices[v] for v in vars_)):
            e = dict(env)
            e.update(zip(vars_, combo))
            r = evaluate(e)
            if r is not None and bool(r) not in results:
                results.add(bool(r))
                break
        return results

    # ------------------------------------------------------------------
    def _truth(
        self,
        i: int,
        env: dict,
        race: list[int],
        vars_l: list[str],
        vals_l: list[Any],
        prevs: list[Any],
        prev_lin: bool,
    ) -> tuple[bool, bool, bool] | None:
        """Truth phase for one linearized record: ``(cur, possible,
        certain)`` — φ in the linearization and whether some / every
        race resolution makes it true — or None when φ is undefined
        (a declared variable is still absent).

        ``env`` is the linearization environment after applying record
        i, ``vars_l``/``vals_l`` give variable and post-event value per
        linearization index, ``race`` the indices of records concurrent
        with record i, ``prevs[j]`` the pre-event value of applied
        record j (j ≤ i), and ``prev_lin`` the emission state's φ."""
        cur = self._eval.evaluate_safe(env)
        if cur is None:
            return None
        cur = bool(cur)
        if cur and prev_lin:
            # Not a rising edge: nothing can be emitted here, and with
            # the linearization itself witnessing φ, ``possible`` is
            # True whatever the race resolves to — skip the analysis.
            return True, True, True
        if not race:
            return cur, cur, cur     # no race: only the linearization value
        results = self._race_results(env, cur, race, vars_l, vals_l, prevs, i)
        if results is None:          # too tangled: unknown
            return cur, True, False
        return cur, True in results, False not in results

    def _emit(
        self,
        state: dict,
        rec: SensedEventRecord,
        env: dict,
        cur: bool,
        possible: bool,
        certain: bool,
        race_size: int,
        detail_extra: dict | None = None,
    ) -> Detection | None:
        """Emission phase: the labelling rules, shared by the offline and
        online paths.  ``state`` carries ``prev_lin``/``prev_possible``
        across records; returns the detection emitted at ``rec``, if
        any.  ``env`` is copied only on emission, so callers may keep
        mutating it afterwards.  A record whose ``(cur, possible)``
        equals the state's ``(prev_lin, prev_possible)`` emits nothing
        and leaves the state as it was, so callers may skip it."""
        prev_lin = state["prev_lin"]
        detection = None
        if cur and not prev_lin:
            detail = {"race_size": race_size}
            if detail_extra:
                detail.update(detail_extra)
            label = DetectionLabel.FIRM if certain else DetectionLabel.BORDERLINE
            detection = Detection(self.name, rec, dict(env), label, detail=detail)
        elif (not cur) and possible and not state["prev_possible"] and not prev_lin:
            # The linearization says false, but a race resolution says
            # true: borderline (potential missed occurrence).
            detail = {"race_size": race_size}
            if detail_extra:
                detail.update(detail_extra)
            detail["lin_false"] = True
            detection = Detection(
                self.name, rec, dict(env), DetectionLabel.BORDERLINE, detail=detail
            )
        if detection is not None:
            self.detections.append(detection)
        state["prev_lin"] = cur
        state["prev_possible"] = possible
        return detection

    def _truth_arrays(
        self,
        vars_l: list[str],
        vals_l: list[Any],
        cols: np.ndarray,
        indptr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Batched truth phase over the whole linearization: boolean
        ``(cur, possible, certain)`` rows equal to :meth:`_truth`'s
        record by record, or None when the values are not eligible (see
        :func:`_exact_floats`).

        The predicate environment is an (m, V) float matrix, each
        variable's column forward-filled from its records, so a
        record's pre-event value is one row up.  A row that needs race
        analysis gets per-variable [lo, hi] bounds from one
        ``minimum.at`` / ``maximum.at`` pass over its CSR entries, and
        the predicate's array evaluator folds them.  A row whose
        combination bound Π(c_v + 1) (c_v racing records of variable v)
        may exceed the cap runs :meth:`_truth`, whose exact set-based
        analysis keeps its None ("too tangled")."""
        pvars = self._eval._vars
        width = len(pvars)
        m = len(vars_l)
        col = np.fromiter(
            map(self._eval._index.get, vars_l, itertools.repeat(width)),
            dtype=np.intp, count=m,
        )
        rows = np.flatnonzero(col < width)
        picked = vals_l if rows.size == m else [vals_l[k] for k in rows.tolist()]
        values = _exact_floats([self.initials[v] for v in pvars] + list(picked))
        if values is None:
            return None
        init = values[:width]
        post = np.zeros(m)                       # post-event value per record
        post[rows] = values[width:]
        # env[i, c]: variable c after record i, from its latest record.
        last = np.full((m, width), -1, dtype=np.intp)
        last[rows, col[rows]] = rows
        np.maximum.accumulate(last, axis=0, out=last)
        env = np.where(last >= 0, post[last], init)
        prev = np.zeros(m)                       # pre-event value per record
        prev[rows] = np.where(rows > 0, env[rows - 1, col[rows]], init[col[rows]])
        cur, _ = self._eval._array(env, env)
        sizes = np.diff(indptr)
        # _truth's skip: rows with no race or continuing φ need no analysis.
        skip = cur & np.concatenate(([False], cur[:-1]))
        need = (sizes > 0) & ~skip
        entry_row = np.repeat(np.arange(m), sizes)
        keep = need[entry_row]
        i, j = entry_row[keep], cols[keep]
        # _race_results' combination bound, over every racing variable,
        # in log2 with a margin: rows at or near the cap take the exact
        # path.
        code, kinds = col, width
        if rows.size < m:                        # variables φ does not read
            names: dict[str, int] = {}
            code = np.fromiter(
                (names.setdefault(v, len(names)) for v in vars_l),
                dtype=np.intp, count=m,
            )
            kinds = len(names)
        pairs, counts = np.unique(i * kinds + code[j], return_counts=True)
        bound = np.bincount(
            pairs // kinds, weights=np.log2(counts + 1.0), minlength=m
        )
        cap = self._max_combos
        tangled = need & (bound > np.log2(cap) - 1e-9 if cap >= 1 else True)
        fast = need & ~tangled
        # Fast rows' entries that race a predicate variable: the racing
        # record's pre-event value if already applied, else its post.
        c = col[j]
        keep = fast[i] & (c < width)
        i, j, c = i[keep], j[keep], c[keep]
        alt = np.where(j <= i, prev[j], post[j])
        lo = env.copy()
        hi = env.copy()
        np.minimum.at(lo, (i, c), alt)
        np.maximum.at(hi, (i, c), alt)
        true_reachable, false_reachable = self._eval._array(lo, hi)
        possible = np.where(fast, true_reachable, cur) | skip
        certain = np.where(fast, ~false_reachable, cur) | skip
        if tangled.any():
            self._resolve_tangled(
                np.flatnonzero(tangled), possible, certain,
                vars_l, vals_l, cols, indptr,
            )
        return cur, possible, certain

    def _resolve_tangled(
        self,
        tangled: np.ndarray,
        possible: np.ndarray,
        certain: np.ndarray,
        vars_l: list[str],
        vals_l: list[Any],
        cols: np.ndarray,
        indptr: np.ndarray,
    ) -> None:
        """Per-record truth phase for the ``tangled`` rows (ascending,
        none of them skipped), writing their ``possible``/``certain`` in
        place."""
        env = dict(self.initials)
        env_get = env.get
        prevs: list[Any] = []
        prevs_append = prevs.append
        done = 0
        for i in tangled.tolist():
            for var, value in zip(vars_l[done:i + 1], vals_l[done:i + 1]):
                prevs_append(env_get(var))
                env[var] = value
            done = i + 1
            race = cols[indptr[i]:indptr[i + 1]].tolist()
            _, possible[i], certain[i] = self._truth(
                i, env, race, vars_l, vals_l, prevs, False
            )

    @staticmethod
    def _sort_key(r: SensedEventRecord):
        return (r.strobe_vector.sum(), r.pid, r.seq)

    @staticmethod
    def _linearize(
        records: list[SensedEventRecord],
    ) -> tuple[list[SensedEventRecord], np.ndarray, np.ndarray]:
        """The (sum, pid, seq) linearization of (pid, seq)-sorted
        ``records``, with their stacked stamps and race-kernel chain ids
        in the same order."""
        vecs = stack_timestamps([r.strobe_vector for r in records])
        # A stable argsort on component sums alone realizes the
        # (sum, pid, seq) key without m Python-level key tuples.
        order = np.argsort(vecs.sum(axis=1), kind="stable")
        # Chains: cut the store wherever a stamp fails to dominate its
        # predecessor — at most process boundaries and at every restart
        # (the strobe clock reboots from zero).  Stamps within a chain
        # are ordered, hence so are their sums, so the linearization
        # keeps each chain in store order, as the kernel requires.
        breaks = np.any(vecs[1:] < vecs[:-1], axis=1)
        chains = np.concatenate(([0], np.cumsum(breaks)))[: len(records)]
        return [records[k] for k in order], vecs[order], chains[order]

    def _check_stamps(self, records: list[SensedEventRecord]) -> None:
        missing = [r for r in records if r.strobe_vector is None]
        if missing:
            raise ValueError(
                f"{len(missing)} records lack strobe_vector stamps; configure "
                "ClockConfig(strobe_vector=True)"
            )

    def finalize(self) -> list[Detection]:
        records = self.store.all()
        self._check_stamps(records)
        ordered, vecs, chains = self._linearize(records)
        cols, indptr = chain_concurrency_csr(vecs, chains)
        vars_l = [r.var for r in ordered]
        vals_l = [r.value for r in ordered]
        self.detections = []
        truth = None
        if self._eval._array is not None:
            truth = self._truth_arrays(vars_l, vals_l, cols, indptr)
        if truth is None:
            self._finalize_per_record(
                ordered, vars_l, vals_l, cols.tolist(), indptr.tolist()
            )
            return self.detections
        cur, possible, certain = truth
        # Only rows that move (cur, possible) can emit (see _emit); the
        # environment is replayed up to each one.
        moved = (cur != np.concatenate(([False], cur[:-1]))) | (
            possible != np.concatenate(([False], possible[:-1]))
        )
        cur, possible, certain = cur.tolist(), possible.tolist(), certain.tolist()
        sizes = np.diff(indptr).tolist()
        state = {"prev_lin": False, "prev_possible": False}
        env = dict(self.initials)
        done = 0
        for i in np.flatnonzero(moved).tolist():
            env.update(zip(vars_l[done:i + 1], vals_l[done:i + 1]))
            done = i + 1
            self._emit(
                state, ordered[i], env, cur[i], possible[i], certain[i], sizes[i]
            )
        return self.detections

    def _finalize_per_record(
        self,
        ordered: list[SensedEventRecord],
        vars_l: list[str],
        vals_l: list[Any],
        cols: list[int],
        bounds: list[int],
    ) -> None:
        """Per-record offline path: truth and emission phase per record
        of the linearization (``cols``/``bounds`` the race CSR)."""
        state = {"prev_lin": False, "prev_possible": False}
        env = dict(self.initials)
        env_get = env.get
        truth = self._truth
        emit = self._emit
        prevs: list[Any] = []
        prevs_append = prevs.append
        for i, rec in enumerate(ordered):
            var = rec.var
            prevs_append(env_get(var))
            env[var] = rec.value
            race = cols[bounds[i]:bounds[i + 1]]
            row = truth(i, env, race, vars_l, vals_l, prevs, state["prev_lin"])
            if row is not None:
                emit(state, rec, env, *row, len(race))


def _exact_floats(values: list[Any]) -> np.ndarray | None:
    """``values`` as float64 when every one is a finite ``int``,
    ``float`` or ``bool`` that converts exactly (ints below 2^53 in
    magnitude), so array arithmetic repeats Python's bit for bit; else
    None."""
    types = set(map(type, values))
    if not types <= {int, float, bool}:
        return None
    try:
        out = np.array(values, dtype=np.float64)
    except OverflowError:                        # an int beyond float range
        return None
    if not np.isfinite(out).all():
        return None
    if int in types:
        big = np.flatnonzero(np.abs(out) >= 2.0 ** 53)
        if any(type(values[k]) is int for k in big.tolist()):
            return None
    return out


__all__ = ["VectorStrobeDetector"]
