"""Relational predicates — §3.1.2.b.

"A relational predicate φ is an arbitrary expression on the
system-wide sensed variables", e.g. ``x_i + y_j > 7``.  Relational
predicates cannot be decomposed into local conjuncts, which is why the
strobe-clock detectors must assemble (approximately) instantaneous
global states before evaluating.

:class:`SumThresholdPredicate` is the paper's flagship instance: the
exhibition-hall occupancy predicate ``Σ_i (x_i − y_i) > 200`` (§5),
provided as a first-class type because E5 sweeps it and because its
linear structure lets detectors compute borderline margins cheaply.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.predicates.base import Predicate, PredicateError


class RelationalPredicate(Predicate):
    """Arbitrary boolean expression over located variables.

    Parameters
    ----------
    variables:
        Mapping variable name → owning process id.
    fn:
        The expression; receives the environment dict.
    label:
        Human-readable form.

    Examples
    --------
    >>> phi = RelationalPredicate({"x": 0, "y": 1}, lambda e: e["x"] + e["y"] > 7)
    >>> phi.evaluate({"x": 3, "y": 5})
    True
    """

    def __init__(
        self,
        variables: Mapping[str, int],
        fn: Callable[[Mapping[str, Any]], bool],
        label: str = "",
    ) -> None:
        if not variables:
            raise PredicateError("need at least one variable")
        self._vars = dict(variables)
        # Read-only view, built once: ``variables`` sits on detector
        # hot paths (check_env per evaluation) and a per-access dict
        # copy dominated profile time there.
        self._vars_view = MappingProxyType(self._vars)
        self._fn = fn
        self._label = label

    @property
    def variables(self) -> Mapping[str, int]:
        return self._vars_view

    def evaluate(self, env: Mapping[str, Any]) -> bool:
        self.check_env(env)
        return bool(self._fn(env))

    def __str__(self) -> str:
        return self._label or f"φ({', '.join(sorted(self._vars))})"


class SumThresholdPredicate(RelationalPredicate):
    """``Σ_i weight_i · var_i  >  threshold`` (strict).

    The exhibition hall's φ = Σ(x_i − y_i) > 200 is expressed with +1
    weights on the entry counters and −1 weights on the exit counters.

    ``margin(env)`` returns the signed distance from the threshold —
    detectors use it to size the race window ("borderline bin", §5).
    """

    def __init__(
        self,
        terms: Sequence[tuple[str, int, float]],
        threshold: float,
        label: str = "",
    ) -> None:
        """``terms``: (variable, owning pid, weight) triples."""
        if not terms:
            raise PredicateError("need at least one term")
        names = [t[0] for t in terms]
        if len(set(names)) != len(names):
            raise PredicateError(f"duplicate variables: {names}")
        self._weights = {name: float(w) for name, _, w in terms}
        self._threshold = float(threshold)
        # The weighted total as one compiled left fold in term order
        # (``_w0 * v[0] + _w1 * v[1] + ...``), shared by the scalar and
        # array race evaluators: ``v[k]`` may be a number or a column.
        ns = {f"_w{k}": w for k, w in enumerate(self._weights.values())}
        fold = " + ".join(f"_w{k} * v[{k}]" for k in range(len(ns)))
        self._fold = eval(f"lambda v: {fold}", ns)  # codegen, trusted input
        variables = {name: pid for name, pid, _ in terms}
        # The lambda runs under evaluate()'s check_env, so it can use
        # the unchecked sum (total() would re-validate per call).
        super().__init__(
            variables,
            lambda env: self._total_unchecked(env) > self._threshold,
            label or f"Σ w·v > {threshold}",
        )

    @property
    def threshold(self) -> float:
        return self._threshold

    def value_evaluator(self):
        """Positional fast path (see :meth:`Predicate.value_evaluator`).

        Compiles a left-fold expression over the same term order as
        :meth:`_total_unchecked` (both follow ``self._weights``
        insertion order = ``tuple(self.variables)`` order), so results
        match :meth:`evaluate` on complete environments bit-for-bit
        (float addition is folded in the identical sequence; the
        ``sum()`` start value 0 only perturbs signed zeros, which
        compare identically).
        """
        weights = tuple(self._weights.values())
        ns = {f"_w{k}": w for k, w in enumerate(weights)}
        ns["_th"] = self._threshold
        total = " + ".join(f"_w{k} * v[{k}]" for k in range(len(weights)))
        return eval(f"lambda v: {total} > _th", ns)  # codegen, trusted input

    def interval_evaluator(self):
        """Race-set fast path (see :meth:`Predicate.interval_evaluator`).

        A linear total is monotone in each term, so the reachable totals
        over independent per-position choices form an interval whose
        endpoints are themselves product combinations (per-position
        extreme of ``w·v``).  Float addition is monotone non-strict in
        each operand, so folding the per-position extremes (in term
        order, as every combination is folded) bounds every
        combination's float total exactly:

        * ``True`` is reachable  ⇔  max-endpoint total > threshold;
        * ``False`` is reachable ⇔  min-endpoint total ≤ threshold.
        """
        weights = tuple(self._weights.values())

        def _eval(base, positions, lows, highs, _w=weights, _th=self._threshold,
                  _t=self._fold):
            lo = list(base)
            hi = list(base)
            for k, pos in enumerate(positions):
                if _w[pos] >= 0:
                    lo[pos] = lows[k]
                    hi[pos] = highs[k]
                else:
                    lo[pos] = highs[k]
                    hi[pos] = lows[k]
            out = set()
            if _t(hi) > _th:
                out.add(True)
            if _t(lo) <= _th:
                out.add(False)
            return out

        return _eval

    def interval_array_evaluator(self):
        """Array form of :meth:`interval_evaluator` (see
        :meth:`Predicate.interval_array_evaluator`).

        The endpoint swap for negative weights and the compiled term
        fold are those of the scalar form, applied to whole columns, so
        every row's float totals are the scalar form's bit for bit.
        """
        flip = ~(np.array(tuple(self._weights.values())) >= 0)
        threshold = self._threshold
        fold = self._fold

        def _eval(lows, highs):
            lo = np.where(flip, highs, lows).T
            hi = np.where(flip, lows, highs).T
            with np.errstate(all="ignore"):     # IEEE results, as in Python
                return fold(hi) > threshold, fold(lo) <= threshold

        return _eval

    def total(self, env: Mapping[str, Any]) -> float:
        self.check_env(env)
        return self._total_unchecked(env)

    def _total_unchecked(self, env: Mapping[str, Any]) -> float:
        return sum(self._weights[v] * env[v] for v in self._weights)

    def margin(self, env: Mapping[str, Any]) -> float:
        """Signed distance above the threshold (positive = predicate true)."""
        return self.total(env) - self._threshold


__all__ = ["RelationalPredicate", "SumThresholdPredicate"]
