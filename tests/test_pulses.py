"""Tests for the impedance-matched rate profiles and amplitude conversion."""

import numpy as np
import pytest
from scipy.special import expit

from motlight.pulses import PulseSchedule


def test_gamma1_closed_form():
    # [TRIVIAL] Gamma e^{Gamma t} / (e^{Gamma t} + e^{-Gamma t})
    g = 0.01
    emit, _ = PulseSchedule.pair(g)
    for t in (-300.0, -50.0, 0.0, 80.0, 400.0):
        expected = g * np.exp(g * t) / (np.exp(g * t) + np.exp(-g * t))
        assert np.isclose(emit.rate(t), expected, rtol=1e-12)
    assert emit.rate(0.0) == g / 2.0


def test_gamma_profiles_mirror_and_sum():
    g = 0.02
    emit, recv = PulseSchedule.pair(g)
    for t in np.linspace(-400.0, 400.0, 101):
        assert recv.rate(t) == emit.rate(-t)
        # sigmoid identity: Gamma1 + Gamma2 = Gamma everywhere
        assert np.isclose(emit.rate(t) + recv.rate(t), g)


def test_gamma1_saturates_without_overflow():
    emit, recv = PulseSchedule.pair(0.01)
    assert emit.rate(1e6) == 0.01 and emit.rate(-1e6) == 0.0
    assert recv.rate(-1e6) == 0.01 and recv.rate(1e6) == 0.0


def test_gamma1_matches_expit():
    # the scalar logistic against scipy's expit, through both saturations
    g = 0.64
    ts = np.concatenate([np.linspace(-700.0, 700.0, 4001), [-1e6, -1e3, 0.0, 1e3, 1e6]])
    for pulse, sign in zip(PulseSchedule.pair(g), (1.0, -1.0)):
        got = np.array([pulse.rate(float(t)) for t in ts])
        np.testing.assert_allclose(got, g * expit(sign * 2.0 * g * ts), rtol=1e-15, atol=0.0)


def test_amplitude_from_rate_inverts():
    # (eta_x amplitude)^2 / kappa is the rate again
    kappa, eta = 1.0, 0.1
    for pulse in PulseSchedule.pair(0.007):
        for t in (-300.0, 0.0, 45.0):
            amp = pulse.amplitude(t, kappa, eta)
            assert np.isclose((eta * amp) ** 2 / kappa, pulse.rate(t), rtol=1e-14)


def test_default_window():
    emit, recv = PulseSchedule.pair(0.01)
    assert (emit.t_start, emit.t_end) == (recv.t_start, recv.t_end) == (-600.0, 600.0)
    emit, _ = PulseSchedule.pair(0.01, halfwidth=3.0)
    assert (emit.t_start, emit.t_end) == (-300.0, 300.0)


def test_pulse_schedule_pair():
    emit, recv = PulseSchedule.pair(0.01, halfwidth=4.0)
    assert emit.site == 1 and recv.site == 2
    assert emit.t_start == recv.t_start == -400.0
    assert np.isclose(emit.rate(100.0), 0.01 * expit(2.0))
    assert np.isclose(recv.rate(100.0), 0.01 * expit(-2.0))
    assert np.isclose(emit.amplitude(0.0, kappa=1.0, eta_x=0.1),
                      np.sqrt(0.005) / 0.1)


def test_amplitude_matches_expit():
    # sqrt(kappa Gamma_i(t)) / eta_x with Gamma_i from scipy's expit
    kappa, eta = 1.0, 0.1
    for gamma in (0.64, 0.01):
        for pulse, sign in zip(PulseSchedule.pair(gamma), (1.0, -1.0)):
            ts = np.linspace(pulse.t_start - 2.0 / gamma, pulse.t_end + 2.0 / gamma, 997)
            expected = np.sqrt(kappa * gamma * expit(sign * 2.0 * gamma * ts)) / eta
            got = np.array([pulse.amplitude(float(t), kappa, eta) for t in ts])
            assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


def test_pulse_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule(-0.01, -1.0, 1.0, site=1)
    with pytest.raises(ValueError):
        PulseSchedule(0.01, -1.0, 1.0, site=3)
    with pytest.raises(ValueError):
        PulseSchedule(0.01, 1.0, -1.0, site=1)


@pytest.mark.parametrize("gamma", [0.0, -0.5, float("nan")])
def test_pair_refuses_a_rate_that_is_not_positive(gamma):
    # refused before the window half-width is divided by it
    with pytest.raises(ValueError, match="must be positive"):
        PulseSchedule.pair(gamma)
