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
        "_interval", "_cache",
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
        records = self.store.all()
        snap["linearization_tail"] = (
            [int(x) for x in self._sort_key(max(records, key=self._sort_key))]
            if records else None
        )
        return snap

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
    def _step(
        self,
        i: int,
        rec: SensedEventRecord,
        env: dict,
        vars_l: list[str],
        vals_l: list[Any],
        prevs: list[Any],
        race: list[int],
        state: dict,
        *,
        detail_extra: dict | None = None,
    ) -> None:
        """Process one linearized record: evaluate φ, run race analysis,
        emit detections.  ``state`` carries ``prev_lin``/``prev_possible``
        across calls (shared by the offline and online paths).

        ``env`` is the *live* linearization environment after applying
        record i — it is copied only on emission, so callers may keep
        mutating it afterwards.  ``vars_l``/``vals_l`` give variable and
        post-event value per linearization index, ``race`` the indices
        of records concurrent with record i, and ``prevs[j]`` the
        pre-event value of applied record j (j ≤ i)."""
        cur = self._eval.evaluate_safe(env)
        if cur is None:
            return
        cur = bool(cur)
        if cur and state["prev_lin"]:
            # Not a rising edge: nothing can be emitted here, and with
            # the linearization itself witnessing φ, ``possible`` is
            # True whatever the race resolves to — skip the analysis.
            state["prev_possible"] = True
            return
        if race:
            results = self._race_results(env, cur, race, vars_l, vals_l, prevs, i)
        else:
            results = (cur,)         # no race: only the linearization value

        if results is None:          # too tangled: unknown
            possible, certain = True, False
        else:
            possible = True in results
            certain = False not in results

        if cur and not state["prev_lin"]:
            detail = {"race_size": len(race)}
            if detail_extra:
                detail.update(detail_extra)
            label = DetectionLabel.FIRM if certain else DetectionLabel.BORDERLINE
            self.detections.append(
                Detection(self.name, rec, dict(env), label, detail=detail)
            )
        elif (not cur) and possible and not state["prev_possible"] and not state["prev_lin"]:
            # The linearization says false, but a race resolution says
            # true: borderline (potential missed occurrence).
            detail = {"race_size": len(race)}
            if detail_extra:
                detail.update(detail_extra)
            detail["lin_false"] = True
            self.detections.append(
                Detection(self.name, rec, dict(env), DetectionLabel.BORDERLINE, detail=detail)
            )
        state["prev_lin"] = cur
        state["prev_possible"] = possible

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
        cols_a, indptr_a = chain_concurrency_csr(vecs, chains)
        cols = cols_a.tolist()       # Python ints: cheap slices/indexing
        bounds = indptr_a.tolist()
        vars_l = [r.var for r in ordered]
        vals_l = [r.value for r in ordered]

        self.detections = []
        state = {"prev_lin": False, "prev_possible": False}
        env = dict(self.initials)
        env_get = env.get
        step = self._step
        prevs: list[Any] = []
        prevs_append = prevs.append
        for i, rec in enumerate(ordered):
            var = rec.var
            prevs_append(env_get(var))
            env[var] = rec.value
            step(
                i, rec, env, vars_l, vals_l, prevs,
                cols[bounds[i]:bounds[i + 1]], state,
            )
        return self.detections


__all__ = ["VectorStrobeDetector"]
