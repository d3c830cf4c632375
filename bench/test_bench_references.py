"""Tests of the benchmark's reference computations and of its checks' power.

Run with `python3 -m pytest bench`.  They use numpy and scipy only.
"""

import math

import numpy as np
import pytest

import references
import workloads


def test_squeeze_reference_converged_and_discriminating():
    eta_p, nu_x, nu_z, chi, r, _ = workloads.SQUEEZE_ROW
    ref = references.squeeze_fidelities(eta_p, nu_x, nu_z, chi, r)
    smaller = references.squeeze_fidelities(eta_p, nu_x, nu_z, chi, r, dim=9)
    assert abs(ref["drive"] - smaller["drive"]) < 1e-11
    assert ref["vacuum"] == pytest.approx(1.0 / math.cosh(r) ** 2, abs=1e-15)
    assert ref["flipped"] < ref["drive"]
    for wrong in ("vacuum", "flipped"):
        row = {"fidelity": repr(ref[wrong]), "norm_drift": "0"}
        assert workloads.check_squeeze([row], "", ref, {})
    assert not workloads.check_squeeze([{"fidelity": repr(ref["drive"]), "norm_drift": "0"}],
                                       "", ref, {})


def test_effective_squeezer_limit():
    # far below the trap frequencies the drive is the two-mode squeezer: F -> 1
    ref = references.squeeze_fidelities(0.1, 1.0, 3.0, 0.0004, 0.01, dim=8)
    assert 1.0 - ref["drive"] < 1e-4
    assert 1.0 - ref["flipped"] > 3.0 * (1.0 - ref["drive"])


def test_cascade_residual_amplitude_closed_form():
    gamma, w = 0.01, 1.5
    a_res, beta = references.cascade_amplitudes(gamma, w)
    t0, t1 = -w / gamma, w / gamma
    # exp(-int G1) with int gamma expit(2 gamma t) dt = log(1 + e^{2 gamma t}) / 2
    expected = math.sqrt((1.0 + math.exp(2 * gamma * t0)) / (1.0 + math.exp(2 * gamma * t1)))
    assert a_res == pytest.approx(expected, rel=1e-10)
    assert 0.0 < beta and a_res ** 2 + beta ** 2 <= 1.0 + 1e-12


def test_cascade_long_window_transfers():
    _, beta = references.cascade_amplitudes(0.01, 12.0)
    assert beta == pytest.approx(1.0, abs=1e-6)


def test_passive_transfer_limits():
    a_res, beta = 0.1, 0.9
    for n in (0, 1, 5):
        c = np.zeros(8)
        c[n] = 1.0
        assert references.passive_transfer_fidelity(c, a_res, beta) == pytest.approx(beta ** (2 * n))
    alpha = 2.0
    c = references.coherent_amplitudes(alpha, 40)
    expected = math.exp(-alpha ** 2 * (a_res ** 2 + (1.0 - beta) ** 2))
    assert references.passive_transfer_fidelity(c, a_res, beta) == pytest.approx(expected, rel=1e-10)
    assert references.passive_transfer_fidelity(c, 0.0, 1.0) == pytest.approx(1.0)
    # the sign of beta matters for a coherent input: the phase convention is fixed
    assert references.passive_transfer_fidelity(c, a_res, -beta) < 1e-6


def test_lamb_dicke_linear_model_adiabatic_decay():
    alpha, g, kappa = math.sqrt(10.0), 0.1, 1.0
    bx = references.lamb_dicke_bx(alpha, g, kappa, [0.0, 50.0])
    assert bx[0] == pytest.approx(alpha)
    # adiabatic elimination of the cavity: amplitude decay at g^2 / kappa
    assert bx[1] == pytest.approx(alpha * math.exp(-g * g / kappa * 50.0), rel=2e-2)


def test_fig4_tolerance_catches_a_dropped_coupling():
    alpha, g, kappa = workloads.FIG4["alpha"], workloads.FIG4["eta_drive"], workloads.FIG4["kappa"]
    t = workloads.FIG4["t_final"]
    (linear,) = references.lamb_dicke_bx(alpha, g, kappa, [t])
    dev = abs(alpha - linear) / linear  # no coupling: |<b_x>| stays alpha
    assert dev > 2.0 * workloads.lamb_dicke_tolerance(0.15, alpha, g * g / kappa, t)


def test_ensemble_check_uses_the_no_jump_branch():
    n = workloads.ENSEMBLE_NTRAJ
    p0, f0 = 0.65, 0.997
    jumps = 3
    good = {"mean_fidelity": repr((n - jumps) / n * f0), "mean_jumps": repr(jumps / n)}
    assert not workloads.check_ensemble_jumps([good], "", {}, {"nojump": (p0, f0)})
    low = {"mean_fidelity": repr((n - jumps - 1) / n * f0), "mean_jumps": repr(jumps / n)}
    assert workloads.check_ensemble_jumps([low], "", {}, {"nojump": (p0, f0)})
    assert workloads.check_ensemble_jumps([good], "", {}, {})
    state = {"nojump": (p0, f0), "jumps_seen": (0.5, 0.5)}
    assert workloads.check_ensemble_jumps([good], "", {}, state)


def test_binomial_floor():
    from scipy.stats import binom

    lo = workloads.binomial_floor(100, 0.3, 1e-7)
    assert 0 < lo < 30
    assert binom.cdf(lo - 1, 100, 0.3) <= 1e-7 < binom.cdf(lo, 100, 0.3)
