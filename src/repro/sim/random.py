"""Latency distributions used by the OS and hardware noise models.

The paper's latency data has the canonical systems shape: a tight body
(most operations take close to their nominal cost), a moderate spread from
cache/TLB/frequency effects, and a heavy upper tail from scheduler
preemption and interrupt interference.  We model that as a mixture:

* body: lognormal around the nominal cost (multiplicative noise),
* tail: with small probability, a Pareto-distributed excursion (models a
  preemption or SMI-like event that stalls the software path).

All sampling goes through named :class:`LatencyModel` objects bound to a
seeded stream, so experiments are reproducible and individual sources of
noise can be switched off for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.sim.time import SimTime


@dataclass(frozen=True)
class LatencyModel:
    """A randomized latency: nominal cost plus body jitter plus rare tail.

    Parameters
    ----------
    nominal_ps:
        Deterministic base latency in picoseconds.
    jitter_sigma:
        Sigma of the lognormal multiplicative body jitter.  0 disables
        body jitter (the draw is exactly ``nominal_ps`` unless the tail
        fires).
    tail_prob:
        Probability that a draw takes a heavy-tail excursion.
    tail_scale_ps:
        Scale (minimum magnitude) of the Pareto excursion, added on top
        of the body draw.
    tail_alpha:
        Pareto shape; smaller = heavier tail.  Must be > 0.
    """

    nominal_ps: SimTime
    jitter_sigma: float = 0.0
    tail_prob: float = 0.0
    tail_scale_ps: SimTime = 0
    tail_alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.nominal_ps < 0:
            raise ValueError(f"nominal_ps must be >= 0, got {self.nominal_ps}")
        if self.jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")
        if not 0.0 <= self.tail_prob <= 1.0:
            raise ValueError(f"tail_prob must be in [0,1], got {self.tail_prob}")
        if self.tail_alpha <= 0:
            raise ValueError(f"tail_alpha must be > 0, got {self.tail_alpha}")
        if self.tail_scale_ps < 0:
            raise ValueError(f"tail_scale_ps must be >= 0, got {self.tail_scale_ps}")

    def sample(self, rng: np.random.Generator) -> SimTime:
        """Draw one latency in integer picoseconds (never below zero)."""
        value = float(self.nominal_ps)
        if self.jitter_sigma > 0.0:
            # Lognormal with median == nominal: exp(N(0, sigma)) multiplier.
            value *= float(np.exp(rng.normal(0.0, self.jitter_sigma)))
        if self.tail_prob > 0.0 and rng.random() < self.tail_prob:
            # Pareto excursion: tail_scale * (1/U)^(1/alpha) >= tail_scale.
            u = rng.random()
            # Guard against u == 0 (probability ~2^-53 but be safe).
            u = max(u, 1e-12)
            value += float(self.tail_scale_ps) * u ** (-1.0 / self.tail_alpha)
        return max(0, round(value))

    def without_noise(self) -> "LatencyModel":
        """A deterministic copy (nominal only) for noise ablations."""
        return LatencyModel(nominal_ps=self.nominal_ps)
