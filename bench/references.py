"""Reference computations for the benchmark's output checks.

Everything here is plain numpy/scipy and shares no code with `motlight`:
each function rebuilds its model from the physics and integrates it with
scipy's own solvers, so an error in the package's operators, frames or
integrators cannot cancel out of a comparison.

  squeeze_fidelities   table1's drive integrated in the lab frame (DOP853),
                       compared with the closed-form two-mode squeezed state
  cascade_amplitudes   the adiabatic cascade's single-excitation ODE
  passive_transfer_fidelity
                       exact output fidelity of a passive linear transfer
                       for any input on a truncated mode
  lamb_dicke_bx        |<b_x>| of the first-order Lamb-Dicke (linear) model
                       of one damped atom-cavity site
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.special import expit, gammaln

__all__ = [
    "squeeze_fidelities",
    "cascade_amplitudes",
    "passive_transfer_fidelity",
    "coherent_amplitudes",
    "lamb_dicke_bx",
]


def _lowering(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)


def _tmss(d: int, r: float) -> np.ndarray:
    """sum_m (-tanh r)^m / cosh r |m, m>, renormalized on d x d levels."""
    psi = np.zeros((d, d), dtype=complex)
    m = np.arange(d)
    psi[m, m] = (-math.tanh(r)) ** m / math.cosh(r)
    psi = psi.ravel()
    return psi / np.linalg.norm(psi)


def squeeze_fidelities(eta_p, nu_x, nu_z, chi, r, phi=-math.pi / 2.0, dim=12, rtol=1e-12, atol=1e-14):
    """Fidelity with the ideal two-mode squeezed state after the table1 drive.

    Integrates i dpsi/dt = H(t) psi in the lab frame with

        H(t) = nu_x n_x + nu_z n_z - eps e^{i phi} e^{-i d21 t} U - h.c.,
        U = exp(2i eta' X_x) (x) exp(2i eta' X_z),  eps = chi / (4 eta'^2),
        d21 = nu_x + nu_z,  T = r / chi,

    from the vacuum, moves the final state into the frame rotating with the
    free energies, and returns the fidelities with the closed-form state of
    squeezing r for the drive as given, for the drive dropped (the vacuum)
    and for the drive phase flipped by pi.
    """
    b = _lowering(dim)
    x = b + b.conj().T
    ux = scipy.linalg.expm(2j * eta_p * x)
    uz = scipy.linalg.expm(2j * eta_p * x)
    u = np.kron(ux, uz)
    n = np.arange(dim, dtype=float)
    free = (nu_x * n[:, None] + nu_z * n[None, :]).ravel()
    eps = chi / (4.0 * eta_p * eta_p)
    d21 = nu_x + nu_z
    t_final = r / chi
    target = _tmss(dim, r)
    psi0 = np.zeros(dim * dim, dtype=complex)
    psi0[0] = 1.0

    def fidelity(phase):
        c = -eps * np.exp(1j * phase)
        cu, cud = c * u, np.conj(c) * u.conj().T

        def rhs(t, psi):
            return -1j * (free * psi + np.exp(-1j * d21 * t) * (cu @ psi)
                          + np.exp(1j * d21 * t) * (cud @ psi))

        sol = scipy.integrate.solve_ivp(rhs, (0.0, t_final), psi0, method="DOP853",
                                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        psi = np.exp(1j * free * t_final) * sol.y[:, -1]
        return float(abs(np.vdot(target, psi)) ** 2 / np.vdot(psi, psi).real)

    return {
        "drive": fidelity(phi),
        "vacuum": float(abs(target[0]) ** 2),
        "flipped": fidelity(phi + math.pi),
    }


def cascade_amplitudes(gamma: float, halfwidth: float, rtol=1e-12, atol=1e-14):
    """(a_res, beta) of the adiabatic cascade's single-excitation ODE.

    With rates G1(t) = gamma expit(2 gamma t), G2(t) = G1(-t) over the
    window |t| <= halfwidth / gamma, one excitation starting in the emitting
    mode obeys

        dc1/dt = -G1 c1,   dc2/dt = -G2 c2 + 2 sqrt(G1 G2) c1.

    a_res = c1(end) is what stays behind and beta = c2(end) what arrives.
    """
    def rates(t):
        return gamma * expit(2.0 * gamma * t), gamma * expit(-2.0 * gamma * t)

    def rhs(t, c):
        g1, g2 = rates(t)
        return [-g1 * c[0], -g2 * c[1] + 2.0 * math.sqrt(g1 * g2) * c[0]]

    t0, t1 = -halfwidth / gamma, halfwidth / gamma
    sol = scipy.integrate.solve_ivp(rhs, (t0, t1), [1.0, 0.0], method="DOP853",
                                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"cascade ODE failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def coherent_amplitudes(alpha: float, dim: int) -> np.ndarray:
    """Fock amplitudes of a real coherent state, renormalized on dim levels."""
    n = np.arange(dim)
    c = np.exp(-alpha * alpha / 2.0 + n * math.log(alpha) - 0.5 * gammaln(n + 1))
    return c / np.linalg.norm(c)


def passive_transfer_fidelity(c, a_res: float, beta: float) -> float:
    """Fidelity of a passive linear transfer of sum_n c_n |n> onto the receiving mode.

    Each input excitation ends in the emitting mode with amplitude a_res, in
    the receiving mode with amplitude beta and in the lost light otherwise,
    so |n, 0> -> sum_{j+l+k=n} sqrt(n!/(j! l! k!)) a_res^j beta^l eps^k
    |j, l>|k>_lost with |eps|^2 = 1 - a_res^2 - beta^2.  The overlap with
    the target |0> (x) sum_m c_m |m> sums over the lost photon number k:

        F = sum_k | sum_n conj(c_{n-k}) c_n sqrt(C(n, k)) beta^(n-k) eps^k |^2.

    A Fock state |n> gives |beta|^(2n); an untruncated coherent state
    |alpha> gives exp(-|alpha|^2 (a_res^2 + (1 - beta)^2)).
    """
    c = np.asarray(c, dtype=complex)
    eps_sq = max(1.0 - a_res * a_res - beta * beta, 0.0)
    total = 0.0
    for k in range(c.size):
        n = np.arange(k, c.size)
        log_binom = gammaln(n + 1) - gammaln(n - k + 1) - gammaln(k + 1)
        weights = np.exp(0.5 * log_binom) * beta ** (n - k) * eps_sq ** (0.5 * k)
        total += abs(np.sum(np.conj(c[n - k]) * c[n] * weights)) ** 2
    return float(total)


def lamb_dicke_bx(alpha: float, g: float, kappa: float, ts) -> np.ndarray:
    """|<b_x>(t)| of a damped atom-cavity site to first order in eta.

    To first order in the Lamb-Dicke parameter and in the rotating-wave
    approximation the site is the beamsplitter H = -g (b a† + b† a) with
    cavity amplitude decay kappa, so the two amplitudes obey

        d<b>/dt = i g <a>,   d<a>/dt = i g <b> - kappa <a>,

    a linear system solved here exactly by the matrix exponential.
    """
    m = np.array([[0.0, 1j * g], [1j * g, -kappa]])
    y0 = np.array([alpha, 0.0], dtype=complex)
    return np.array([abs((scipy.linalg.expm(m * t) @ y0)[0]) for t in ts])
