"""Tests for the impedance-matched rate profiles and amplitude conversion."""

import numpy as np
import pytest
from scipy.special import expit

from motlight.pulses import (
    PulseSchedule,
    amplitude_from_rate,
    default_window,
    gamma1,
    gamma2,
)


def test_gamma1_closed_form():
    # [TRIVIAL] Gamma e^{Gamma t} / (e^{Gamma t} + e^{-Gamma t})
    g = 0.01
    for t in (-300.0, -50.0, 0.0, 80.0, 400.0):
        expected = g * np.exp(g * t) / (np.exp(g * t) + np.exp(-g * t))
        assert np.isclose(gamma1(t, g), expected, rtol=1e-12)
    assert np.isclose(gamma1(0.0, g), g / 2.0)


def test_gamma_profiles_mirror_and_sum():
    g = 0.02
    t = np.linspace(-400.0, 400.0, 101)
    assert np.allclose(gamma2(t, g), gamma1(-t, g))
    # sigmoid identity: Gamma1 + Gamma2 = Gamma everywhere
    assert np.allclose(gamma1(t, g) + gamma2(t, g), g)


def test_gamma1_saturates_without_overflow():
    g = 0.01
    assert np.isclose(gamma1(1e6, g), g)
    assert gamma1(-1e6, g) == 0.0


def test_gamma1_matches_expit():
    # the numpy logistic against scipy's expit, through both saturations
    g = 0.64
    t = np.concatenate([np.linspace(-700.0, 700.0, 4001), [-1e6, -1e3, 0.0, 1e3, 1e6]])
    np.testing.assert_allclose(gamma1(t, g), g * expit(2.0 * g * t), rtol=1e-15, atol=0.0)
    assert gamma1(1e6, g) == g and gamma1(-1e6, g) == 0.0


def test_amplitude_from_rate_inverts():
    kappa, eta = 1.0, 0.1
    rate = 0.007
    amp = amplitude_from_rate(rate, kappa, eta)
    assert np.isclose((eta * amp) ** 2 / kappa, rate)


def test_default_window():
    lo, hi = default_window(0.01)
    assert np.isclose(lo, -600.0) and np.isclose(hi, 600.0)
    lo, hi = default_window(0.01, halfwidth=3.0)
    assert np.isclose(lo, -300.0) and np.isclose(hi, 300.0)


def test_pulse_schedule_pair():
    emit, recv = PulseSchedule.pair(0.01, halfwidth=4.0)
    assert emit.site == 1 and recv.site == 2
    assert emit.t_start == recv.t_start == -400.0
    assert np.isclose(emit.rate(100.0), gamma1(100.0, 0.01))
    assert np.isclose(recv.rate(100.0), gamma1(-100.0, 0.01))
    assert np.isclose(emit.amplitude(0.0, kappa=1.0, eta_x=0.1),
                      np.sqrt(0.005) / 0.1)


def test_scalar_amplitude_matches_array_path():
    # PulseSchedule.amplitude works on one float; the module functions on arrays
    kappa, eta = 1.0, 0.1
    for gamma in (0.64, 0.01):
        for pulse in PulseSchedule.pair(gamma):
            ts = np.linspace(pulse.t_start - 2.0 / gamma, pulse.t_end + 2.0 / gamma, 997)
            expected = amplitude_from_rate(pulse.rate(ts), kappa, eta)
            got = np.array([pulse.amplitude(float(t), kappa, eta) for t in ts])
            assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


def test_pulse_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule(-0.01, -1.0, 1.0, site=1)
    with pytest.raises(ValueError):
        PulseSchedule(0.01, -1.0, 1.0, site=3)
    with pytest.raises(ValueError):
        PulseSchedule(0.01, 1.0, -1.0, site=1)
