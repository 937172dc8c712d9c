"""Predicate and modality base types."""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Mapping


class PredicateError(ValueError):
    """Raised on malformed predicates or incomplete environments."""


class Modality(Enum):
    """Time modality under which a predicate is to be detected (§3.1.1).

    * ``INSTANTANEOUS`` — the predicate held at some instant of
      physical time (single time axis; the dominant specification in
      pervasive systems).
    * ``POSSIBLY`` — it held in *some* consistent observation of the
      execution (partial order) [10].
    * ``DEFINITELY`` — it held in *every* consistent observation [10].
    """

    INSTANTANEOUS = "instantaneous"
    POSSIBLY = "possibly"
    DEFINITELY = "definitely"


class Predicate(ABC):
    """A boolean condition over named, located variables.

    ``variables`` maps variable name → owning process id.  ``evaluate``
    consumes an environment {variable: value}; missing variables raise
    :class:`PredicateError` so detectors fail loudly rather than
    silently defaulting.

    ``evaluate`` must be a *pure function* of the environment
    restricted to ``variables`` — detectors rely on this to memoize
    evaluations on hot paths (see repro.detect.strobe_vector).
    """

    @property
    @abstractmethod
    def variables(self) -> Mapping[str, int]:
        """Variable name → owning process id."""

    @abstractmethod
    def evaluate(self, env: Mapping[str, Any]) -> bool:
        """Evaluate under a complete environment."""

    # ------------------------------------------------------------------
    def processes(self) -> list[int]:
        """Sorted distinct owning processes."""
        return sorted(set(self.variables.values()))

    def check_env(self, env: Mapping[str, Any]) -> None:
        variables = self.variables
        if all(v in env for v in variables):
            return
        missing = [v for v in variables if v not in env]
        raise PredicateError(f"environment missing variables: {missing}")

    def evaluate_safe(self, env: Mapping[str, Any]) -> bool | None:
        """Evaluate, returning None when variables are missing — used
        by online detectors before every location has reported."""
        try:
            self.check_env(env)
        except PredicateError:
            return None
        return self.evaluate(env)

    def value_evaluator(self) -> "Any | None":
        """Optional positional fast path for detector hot loops.

        Returns a callable taking a sequence of values ordered exactly
        as ``tuple(self.variables)`` and returning what
        ``evaluate(dict(zip(tuple(self.variables), values)))`` would
        (same arithmetic, same result) while skipping the environment
        dict and presence checks — the caller guarantees completeness.
        Returns ``None`` when the predicate has no such shortcut;
        callers must then fall back to :meth:`evaluate`.
        """
        return None

    def interval_evaluator(self) -> "Any | None":
        """Optional bounds-based fast path for race analysis.

        Returns a callable ``(base_values, positions, lows, highs) ->
        set[bool]`` where ``base_values`` is ordered as
        ``tuple(self.variables)``, ``positions`` indexes into it, and
        ``lows[k]``/``highs[k]`` are the extreme values position
        ``positions[k]`` may independently take (``lows[k] <=
        highs[k]``; the base value lies within the closed range).  The
        result must equal the set of ``evaluate``-truth-values over the
        full cartesian product of each position's value choices — which
        is only recoverable from the extremes when the predicate is
        monotone in every variable (e.g. linear thresholds, where
        per-position extremes bound every combination); such predicates
        answer in O(positions) instead of O(product).  Predicates whose
        truth depends on interior values (equality tests, parities)
        MUST return ``None``; callers then fall back to explicit
        enumeration over the full choice sets.
        """
        return None

    def interval_array_evaluator(self) -> "Any | None":
        """Optional array form of :meth:`interval_evaluator`, for
        evaluating race analysis over a whole linearization at once.

        Returns a callable ``(lows, highs) -> (true_reachable,
        false_reachable)``: ``lows``/``highs`` are ``(k, V)`` float64
        matrices whose columns follow ``tuple(self.variables)``, and row
        r lets variable c take any value in ``[lows[r, c], highs[r,
        c]]``.  Row r of each boolean result must equal ``True in s`` /
        ``False in s`` for ``s`` the :meth:`interval_evaluator` result
        on those bounds, bit for bit; with ``lows is highs`` the first
        result is ``evaluate`` row by row.  Returns ``None`` when the
        predicate has no such form; callers then evaluate per record.
        """
        return None

    # ------------------------------------------------------------------
    # Algebra — §3.1: "Combinations of the above can also be constructed."
    # Composition yields general predicates (the conjunctive *structure*
    # is lost, so interval detectors reject them; replay detectors work).
    # ------------------------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return ComposedPredicate(self, other, "and")

    def __or__(self, other: "Predicate") -> "Predicate":
        return ComposedPredicate(self, other, "or")

    def __invert__(self) -> "Predicate":
        return NegatedPredicate(self)


class ComposedPredicate(Predicate):
    """Boolean combination of two predicates over merged variables.

    Shared variable names must agree on the owning process.
    """

    def __init__(self, a: Predicate, b: Predicate, op: str) -> None:
        if op not in ("and", "or"):
            raise PredicateError(f"unknown op {op!r}")
        conflicts = [
            v for v in sorted(set(a.variables) & set(b.variables))
            if a.variables[v] != b.variables[v]
        ]
        if conflicts:
            raise PredicateError(
                f"variables owned by different processes in the operands: {conflicts}"
            )
        self._a, self._b, self._op = a, b, op
        self._vars = {**dict(a.variables), **dict(b.variables)}

    @property
    def variables(self) -> Mapping[str, Any]:
        return dict(self._vars)

    def evaluate(self, env: Mapping[str, Any]) -> bool:
        self.check_env(env)
        if self._op == "and":
            return self._a.evaluate(env) and self._b.evaluate(env)
        return self._a.evaluate(env) or self._b.evaluate(env)

    def __str__(self) -> str:
        sym = "∧" if self._op == "and" else "∨"
        return f"({self._a} {sym} {self._b})"


class NegatedPredicate(Predicate):
    """Negation of a predicate."""

    def __init__(self, inner: Predicate) -> None:
        self._inner = inner

    @property
    def variables(self) -> Mapping[str, Any]:
        return dict(self._inner.variables)

    def evaluate(self, env: Mapping[str, Any]) -> bool:
        return not self._inner.evaluate(env)

    def __str__(self) -> str:
        return f"¬{self._inner}"


__all__ = ["Predicate", "PredicateError", "Modality", "ComposedPredicate", "NegatedPredicate"]
