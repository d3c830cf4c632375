"""Impedance-matched effective-rate profiles and conversion to laser amplitudes.

The emitting site ramps up as Gamma1(t) = Gamma * sigmoid(2 Gamma t); the
receiving site mirrors it, Gamma2(t) = Gamma1(-t).  The drive amplitude factor
g0 E_A(t) / Delta is recovered from the rate by sqrt(kappa Gamma_i(t)) / eta_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PulseSchedule", "gamma1", "gamma2", "amplitude_from_rate", "default_window"]

DEFAULT_WINDOW_HALFWIDTH = 6.0  # in units of 1/Gamma; calibrated for the transfer tables


def gamma1(t, gamma: float):
    """Rising rate profile Gamma e^{Gamma t} / (e^{Gamma t} + e^{-Gamma t}).

    That is Gamma sigmoid(2 Gamma t), with the logistic 1 / (1 + e^{-x}) of
    _sigmoid taken elementwise: where e^{-x} overflows to inf the rate is 0.
    """
    x = 2.0 * gamma * np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return gamma * (1.0 / (1.0 + np.exp(-x)))


def gamma2(t, gamma: float):
    """Falling (mirrored) profile Gamma2(t) = Gamma1(-t)."""
    return gamma1(-np.asarray(t, dtype=float), gamma)


def amplitude_from_rate(rate, kappa: float, eta_x: float):
    """Drive amplitude factor g0 E_A / Delta such that (eta_x * amp)^2 / kappa = rate."""
    return np.sqrt(kappa * np.asarray(rate, dtype=float)) / eta_x


def _sigmoid(x: float) -> float:
    """The logistic 1 / (1 + e^{-x}) of one float."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # e^{-x} beyond the float range: the logistic rounds to 0
        return 0.0


def default_window(gamma: float, halfwidth: float = DEFAULT_WINDOW_HALFWIDTH):
    return (-halfwidth / gamma, halfwidth / gamma)


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
        t0, t1 = default_window(gamma, halfwidth)
        return cls(gamma, t0, t1, site=1), cls(gamma, t0, t1, site=2)

    def rate(self, t):
        return gamma1(t, self.gamma_max) if self.site == 1 else gamma2(t, self.gamma_max)

    def amplitude(self, t: float, kappa: float, eta_x: float) -> float:
        """amplitude_from_rate(self.rate(t), kappa, eta_x) at one time, in plain floats.

        Hamiltonian envelopes call this on every operator apply.
        """
        s = _sigmoid(2.0 * self.gamma_max * (t if self.site == 1 else -t))
        return math.sqrt(kappa * (self.gamma_max * s)) / eta_x
