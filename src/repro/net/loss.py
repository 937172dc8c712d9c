"""Message-loss models.

§4.2.2 (end): "a message loss may result in the wrong detection of the
predicate in the temporal vicinity of the lost message.  However,
there will be no long-term ripple effects" — experiment E11 injects
loss through these models and measures exactly that.

:class:`GilbertElliottLoss` adds bursty loss (the realistic wireless
case) beyond the i.i.d. Bernoulli model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class LossModel(ABC):
    """Decides, per message, whether it is dropped.

    ``bind_observer`` attaches drop accounting to the observer's
    :class:`~repro.obs.registry.MetricsRegistry`; unbound models pay a
    single ``is None`` test per decision (subclasses with richer state,
    e.g. :class:`GilbertElliottLoss`, add their own instruments).
    """

    _m_drops = None        # Counter | None — the no-op fast path

    def bind_observer(self, obs) -> None:
        if obs.registry is not None:
            self._m_drops = obs.registry.counter("net.loss.drops")

    @abstractmethod
    def drops(self, rng: np.random.Generator) -> bool:
        """True if the next message should be dropped."""


class NoLoss(LossModel):
    """Reliable channel."""

    def drops(self, rng: np.random.Generator) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent per-message loss with probability ``p``."""

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0,1], got {p}")
        self._p = float(p)

    @property
    def p(self) -> float:
        return self._p

    def drops(self, rng: np.random.Generator) -> bool:
        dropped = bool(rng.random() < self._p)
        if dropped and self._m_drops is not None:
            self._m_drops.inc()
        return dropped

    def __repr__(self) -> str:
        return f"BernoulliLoss({self._p})"


class GilbertElliottLoss(LossModel):
    """Two-state (good/bad) Markov loss process.

    In the good state messages are dropped with probability
    ``p_good`` (usually ~0); in the bad state with ``p_bad`` (high).
    ``p_gb``/``p_bg`` are per-message transition probabilities, so the
    mean burst (bad-state sojourn, in messages) is ``1 / p_bg``.

    ``start_bad`` starts the chain in the bad state — the shape the
    fault injector wants for a time-windowed burst episode, where the
    window *is* the burst and should drop from its first message.
    """

    def __init__(
        self,
        p_gb: float = 0.01,
        p_bg: float = 0.2,
        p_good: float = 0.0,
        p_bad: float = 0.8,
        *,
        start_bad: bool = False,
    ) -> None:
        for name, v in (("p_gb", p_gb), ("p_bg", p_bg), ("p_good", p_good), ("p_bad", p_bad)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        self._p_gb = p_gb
        self._p_bg = p_bg
        self._p_good = p_good
        self._p_bad = p_bad
        self._bad = bool(start_bad)
        self._start_bad = bool(start_bad)
        self._m_transitions = None
        self._m_bad = None

    @property
    def in_bad_state(self) -> bool:
        return self._bad

    def bind_observer(self, obs) -> None:
        super().bind_observer(obs)
        if obs.registry is not None:
            self._m_transitions = obs.registry.counter("net.loss.burst_transitions")
            self._m_bad = obs.registry.gauge("net.loss.in_bad_state")

    def drops(self, rng: np.random.Generator) -> bool:
        # Transition first, then sample loss in the new state.
        was_bad = self._bad
        if self._bad:
            if rng.random() < self._p_bg:
                self._bad = False
        else:
            if rng.random() < self._p_gb:
                self._bad = True
        if self._m_transitions is not None and was_bad != self._bad:
            self._m_transitions.inc()
            self._m_bad.set(1.0 if self._bad else 0.0)
        p = self._p_bad if self._bad else self._p_good
        dropped = bool(rng.random() < p)
        if dropped and self._m_drops is not None:
            self._m_drops.inc()
        return dropped

    def mean_burst_length(self) -> float:
        """Expected bad-state sojourn in messages: geometric, 1/p_bg
        (the ``r`` of the classic Gilbert model's 1/r mean burst)."""
        if self._p_bg == 0.0:
            return float("inf")
        return 1.0 / self._p_bg

    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability (for test calibration)."""
        denom = self._p_gb + self._p_bg
        if denom == 0.0:
            return self._p_bad if self._bad else self._p_good
        pi_bad = self._p_gb / denom
        return pi_bad * self._p_bad + (1.0 - pi_bad) * self._p_good

    def __repr__(self) -> str:
        extra = ", start_bad=True" if self._start_bad else ""
        return (
            f"GilbertElliottLoss(p_gb={self._p_gb}, p_bg={self._p_bg}, "
            f"p_good={self._p_good}, p_bad={self._p_bad}{extra})"
        )


__all__ = ["LossModel", "NoLoss", "BernoulliLoss", "GilbertElliottLoss"]
