"""The cascaded transfer against an independent lab-frame solve.

`_lab_transfer` is the third-order or exact-sine cascade of the transfer
tables written out again from numpy and scipy alone: it imports nothing
from motlight.  It keeps the free energies nu (n1 + n2) + delta (c1 + c2)
in the static part of H_eff(t), integrates i dpsi/dt = H_eff(t) psi with
scipy's DOP853 at rtol 1e-10 and atol 1e-12, starts from P(t0)* psi0 and
reads the result out through P(t1), P(t) = exp(i t H0) being the rotating
frame's phase.  The row is table2's (eta 0.1, nu 10) at 8x3x3x8 with a
phase state of 5 levels, drive_max 8 and a window of +-4/Gamma; the exact
sine is also checked at 12x3x3x12, where the frequency floor sets its step.
Each row runs under the transfer rows' excitation cap, which holds the
states it evolves below the space's largest total excitation.
"""

import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp

DIMS = (8, 3, 3, 8)
ETA, NU, KAPPA, G0_SQ_OVER_DET, DRIVE_MAX, HALFWIDTH, N_TOP = 0.1, 10.0, 1.0, 0.2, 8.0, 4.0, 4


def _on(dims, mode, m):
    """m on one mode of dims, the identity on the others."""
    out = sp.identity(1, format="csr")
    for j, d in enumerate(dims):
        out = sp.kron(out, sp.csr_matrix(m) if j == mode else sp.identity(d), format="csr")
    return out


def _phase_state(dims, mode):
    """(|0> + ... + |N_TOP>) / sqrt(N_TOP + 1) on one mode, the vacuum on the others."""
    out = np.ones(1)
    for j, d in enumerate(dims):
        col = np.zeros(d)
        if j == mode:
            col[: N_TOP + 1] = 1.0 / math.sqrt(N_TOP + 1)
        else:
            col[0] = 1.0
        out = np.kron(out, col)
    return out.astype(complex)


def _lab_transfer(dims, truncation):
    """(no-jump norm, fidelity of the renormalized state with the target) of the lab-frame solve."""
    gamma = (ETA * DRIVE_MAX) ** 2 / KAPPA
    t0, t1 = -HALFWIDTH / gamma, HALFWIDTH / gamma
    d_mot, d_cav = dims[0], dims[1]
    on = functools.partial(_on, dims)
    b = np.diag(np.sqrt(np.arange(1.0, d_mot)), 1)
    x = b + b.T
    if truncation == "exact":
        w, v = np.linalg.eigh(x)
        s = v @ np.diag(np.sin(ETA * w)) @ v.T
        s2 = s @ s
    else:
        s = ETA * x - ETA**3 / 6.0 * x @ x @ x
        s2 = ETA**2 * x @ x
    a = np.diag(np.sqrt(np.arange(1.0, d_cav)), 1)
    n_mot, n_cav = np.diag(np.arange(d_mot, dtype=float)), np.diag(np.arange(d_cav, dtype=float))
    a1, a2 = on(1, a), on(2, a)
    h0 = NU * (on(0, n_mot) + on(3, n_mot)) + NU * (on(1, n_cav) + on(2, n_cav))
    static = (h0 - G0_SQ_OVER_DET * (on(0, s2) @ on(1, n_cav) + on(3, s2) @ on(2, n_cav))
              - 1j * KAPPA * (on(1, n_cav) + on(2, n_cav)) - 2j * KAPPA * (a2.getH() @ a1))
    drive1 = -(on(0, s) @ (a1 + a1.getH()))
    drive2 = -(on(3, s) @ (a2 + a2.getH()))

    def amplitude(rate):  # g0 E_A / Delta from the effective rate
        return math.sqrt(KAPPA * rate) / ETA

    def rhs(t, y):
        r1 = gamma / (1.0 + math.exp(-2.0 * gamma * t))  # emitter rises
        r2 = gamma / (1.0 + math.exp(2.0 * gamma * t))  # receiver falls
        return -1j * (static @ y + amplitude(r1) * (drive1 @ y) + amplitude(r2) * (drive2 @ y))

    level = h0.diagonal().real
    psi0 = np.exp(-1j * t0 * level) * _phase_state(dims, 0)
    sol = scipy.integrate.solve_ivp(rhs, (t0, t1), psi0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.success
    psi = np.exp(1j * t1 * level) * sol.y[:, -1]
    norm = float(np.vdot(psi, psi).real)
    fidelity = abs(np.vdot(_phase_state(dims, 3), psi)) ** 2 / norm
    return norm, fidelity


def _check_against_reference(dims, exact_trig):
    """Run the row at dims through run_transfer_tables and hold it to the reference."""
    from motlight.experiments import ExperimentConfig, run_transfer_tables

    cfg = ExperimentConfig(
        experiment="table2", dims=list(dims), steps_per_period=20, exact_trig=exact_trig,
        params={"rows": [(ETA, NU, 0.9)], "state": ("phase", N_TOP), "drive_max": DRIVE_MAX,
                "window_halfwidth": HALFWIDTH, "kappa": KAPPA},
    )
    (row,) = run_transfer_tables(cfg)
    # the row evolves its sectors up to an excitation cap below the space's top
    assert row.convergence["excitation_cap"] < sum(d - 1 for d in dims)
    norm, fidelity = _lab_transfer(dims, "exact" if exact_trig else "third_order")
    assert abs(row.results["no_jump_norm"] - norm) <= 1e-6
    assert abs(row.results["fidelity"] - fidelity) <= 1e-6
    return row


@pytest.mark.parametrize("exact_trig", [False, True])
def test_transfer_matches_independent_lab_frame_solve(exact_trig):
    _check_against_reference(DIMS, exact_trig)


def test_exact_transfer_at_a_floored_step_matches_the_lab_frame_solve():
    # at 12x3x3x12 the exact sine's entries below 1e-10 of the largest would
    # set omega_max 100 (offset 9 in the motion, nu each, plus the cavity's
    # delta); the floor leaves 80, and the step still meets the reference
    from motlight.fock import make_space
    from motlight.hamiltonians import AtomCavityParams, build_cascaded_effective
    from motlight.pulses import PulseSchedule

    dims = (12, 3, 3, 12)
    p = AtomCavityParams(nu_x=NU, delta_cA=NU, eta_x=ETA, g0_sq_over_det=G0_SQ_OVER_DET,
                         kappa=KAPPA)
    pulses = PulseSchedule.pair((ETA * DRIVE_MAX) ** 2 / KAPPA, halfwidth=HALFWIDTH)
    h, _ = build_cascaded_effective(p, pulses, make_space(dims), truncation="exact")
    assert h.max_frequency == 80.0
    assert max(t.max_frequency(h.space, h.freqs) for t in h.terms) == 100.0
    row = _check_against_reference(dims, True)
    assert row.convergence["dt"] == 2.0 * math.pi / 80.0 / 20
