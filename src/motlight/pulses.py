"""Impedance-matched effective-rate profiles and conversion to laser amplitudes.

The emitting site ramps up as Gamma1(t) = Gamma * sigmoid(2 Gamma t); the
receiving site mirrors it, Gamma2(t) = Gamma1(-t).  The drive amplitude factor
g0 E_A(t) / Delta is recovered from the rate by sqrt(kappa Gamma_i(t)) / eta_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PulseSchedule"]

DEFAULT_WINDOW_HALFWIDTH = 6.0  # in units of 1/Gamma; calibrated for the transfer tables


def _sigmoid(x: float) -> float:
    """The logistic 1 / (1 + e^{-x}) of one float."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # e^{-x} beyond the float range: the logistic rounds to 0
        return 0.0


@dataclass(frozen=True)
class PulseSchedule:
    """One site's effective-rate pulse over a finite window."""

    gamma_max: float
    t_start: float
    t_end: float
    site: int  # 1 = emitter (rising), 2 = receiver (falling)

    def __post_init__(self):
        if self.gamma_max <= 0:
            raise ValueError("gamma_max must be positive")
        if self.site not in (1, 2):
            raise ValueError("site must be 1 or 2")
        if self.t_end <= self.t_start:
            raise ValueError("empty pulse window")

    @classmethod
    def pair(cls, gamma: float, halfwidth: float = DEFAULT_WINDOW_HALFWIDTH):
        """Emitter and receiver over the window [-halfwidth / gamma, halfwidth / gamma]."""
        if not gamma > 0:
            raise ValueError(f"the pulse rate gamma must be positive, got {gamma}")
        t0, t1 = -halfwidth / gamma, halfwidth / gamma
        return cls(gamma, t0, t1, site=1), cls(gamma, t0, t1, site=2)

    def rate(self, t: float) -> float:
        """Gamma_i(t) at one time: Gamma sigmoid(2 Gamma t) rising, or mirrored."""
        return self.gamma_max * _sigmoid(2.0 * self.gamma_max * (t if self.site == 1 else -t))

    def amplitude(self, t: float, kappa: float, eta_x: float) -> float:
        """The drive amplitude factor sqrt(kappa rate(t)) / eta_x at one time.

        Hamiltonian envelopes call this on every operator apply.
        """
        return math.sqrt(kappa * self.rate(t)) / eta_x
