"""Fidelities, the analytic EPR Wigner function, and validity diagnostics.

All diagnostics are plain arithmetic: they evaluate the closed-form
conditions under which the effective mode-mode models hold, and return the
left-hand sides so callers can compare against their own thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .fock import DensityMatrix, FockSpace, StateVector, coherent_state

__all__ = [
    "ValidityReport",
    "fidelity_pure",
    "fidelity_mixed",
    "fidelity_phase_calibrated",
    "reference_decayed_coherent",
    "epr_wigner",
    "lamb_dicke_validity",
    "thermal_like_validity",
    "spontaneous_scattering_rate",
    "spontaneous_scattering_average",
    "strong_coupling_figure",
]


# ---------------------------------------------------------------------------
# fidelities


def fidelity_pure(psi: StateVector, phi: StateVector) -> float:
    """|<phi|psi>|^2 for normalized pure states (global-phase blind)."""
    if psi.space != phi.space:
        raise ValueError("states live on different spaces")
    a = np.asarray(psi.normalized().amplitudes)
    b = np.asarray(phi.normalized().amplitudes)
    return float(abs(np.vdot(b, a)) ** 2)


def fidelity_mixed(rho: DensityMatrix, phi: StateVector) -> float:
    """<phi|rho|phi> for a density matrix against a normalized pure state."""
    if rho.space != phi.space:
        raise ValueError("state and density matrix live on different spaces")
    b = np.asarray(phi.normalized().amplitudes)
    val = complex(b.conj() @ (np.asarray(rho.entries) @ b))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(val.real)


def fidelity_phase_calibrated(
    psi: StateVector, phi: StateVector, mode: int, nscan: int = 720
) -> tuple[float, float]:
    """Fidelity maximized over a linear Fock-space phase e^{-i s n} on one mode.

    Off-resonant couplings imprint a deterministic occupation-proportional
    phase (an AC-Stark rotation of the mode) on an otherwise faithful state.
    That rotation is state-independent and can be calibrated away at readout,
    so the overlap after removing the best single slope s is the faithful
    figure of merit.  Returns (fidelity, slope).  A target that fills at most
    one level of the mode has no such phase to find: its slope is 0.
    """
    if psi.space != phi.space:
        raise ValueError("states live on different spaces")
    a = psi.normalized().amplitudes.reshape(psi.space.dims)
    b = phi.normalized().amplitudes.reshape(phi.space.dims)
    # overlap(s) = sum_n e^{+i s n} q_n with q_n = sum over the slice at n
    prod = np.conj(b) * a
    axes = tuple(j for j in range(psi.space.nmodes) if j != mode)
    q = prod.sum(axis=axes)
    if np.count_nonzero(q) <= 1:
        return float(np.abs(q).sum() ** 2), 0.0
    n = np.arange(q.size)
    slopes = np.linspace(-math.pi, math.pi, nscan, endpoint=False)
    vals = np.abs(np.exp(-1j * np.outer(slopes, n)) @ q)
    k = int(np.argmax(vals))
    # refine around the scan maximum
    lo, hi = slopes[k] - 2.0 * math.pi / nscan, slopes[k] + 2.0 * math.pi / nscan
    res = scipy.optimize.minimize_scalar(
        lambda s: -abs(np.exp(-1j * s * n) @ q), bounds=(lo, hi), method="bounded"
    )
    return float(res.fun**2), float(res.x)


def reference_decayed_coherent(
    alpha: complex, nu: float, gamma: float, t: float, space: FockSpace, mode: int = 0
) -> StateVector:
    """Coherent state of amplitude alpha e^{-(i nu + gamma) t}.

    This is the ideal free-decay reference for a damped coherent state; the
    zero-point global phase is dropped.
    """
    amp = alpha * np.exp(-(1j * nu + gamma) * t)
    alphas = [0.0] * space.nmodes
    alphas[mode] = amp
    return coherent_state(space, alphas)


# ---------------------------------------------------------------------------
# EPR Wigner function


def epr_wigner(x: float, p_x: float, z: float, p_z: float, r: float) -> float:
    """Two-mode squeezed vacuum Wigner function in dimensionless quadratures.

    W = (4/pi^2) exp(-[(x+z)^2 + (p_x-p_z)^2] e^{2r})
              * exp(-[(x-z)^2 + (p_x+p_z)^2] e^{-2r})

    At r=0 this is the product of two vacuum Gaussians; for r>0 the
    correlations x ~ -z and p_x ~ p_z sharpen (EPR-type entanglement).
    """
    plus = (x + z) ** 2 + (p_x - p_z) ** 2
    minus = (x - z) ** 2 + (p_x + p_z) ** 2
    return float(4.0 / math.pi**2 * np.exp(-plus * np.exp(2.0 * r) - minus * np.exp(-2.0 * r)))


# ---------------------------------------------------------------------------
# validity diagnostics


def lamb_dicke_validity(eta: float, nbar: float, sigma: float | None = None, a: float = 3.0) -> float:
    """Left-hand side of the Lamb-Dicke condition (1/2) eta^2 (1 + nbar + a sigma).

    sigma defaults to sqrt(nbar), the spread of a coherent state; a standard
    deviations above the mean must still sit well inside the Lamb-Dicke
    regime.  Values well below 1 mean the expansion of the trig coupling is
    trustworthy.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if sigma is None:
        sigma = math.sqrt(max(nbar, 0.0))
    return 0.5 * eta**2 * (1.0 + nbar + a * sigma)


def thermal_like_validity(eta: float, r: float) -> float:
    """(1/2) eta^2 (4 nbar + 5/2) with nbar = sinh^2(r).

    Lamb-Dicke condition specialized to a two-mode squeezed state, whose
    single-mode marginals are thermal-like with mean occupation sinh^2 r;
    the sigma term is evaluated at a=3 with the thermal spread.
    """
    nbar = math.sinh(r) ** 2
    return 0.5 * eta**2 * (4.0 * nbar + 2.5)


def spontaneous_scattering_rate(
    gamma: float, eta: float, drive_ratio_sq: float, delta_21: float, t: float
) -> float:
    """Instantaneous spontaneous-scattering rate of the Raman drive.

    s(t) = (1/4) gamma eta^2 (E/Delta)^2 (|1 - e^{-i d21 t}|^2
                                          + (1/5)|1 + e^{i d21 t}|^2)

    drive_ratio_sq is (E/Delta_01)^2.  The 1/5 branch accounts for the
    far-detuned second beam.
    """
    e1 = abs(1.0 - np.exp(-1j * delta_21 * t)) ** 2
    e2 = abs(1.0 + np.exp(1j * delta_21 * t)) ** 2
    return float(0.25 * gamma * eta**2 * drive_ratio_sq * (e1 + e2 / 5.0))


def spontaneous_scattering_average(gamma: float, eta: float, drive_ratio_sq: float) -> float:
    """Time average of spontaneous_scattering_rate: (1/4)(2 + 2/5) prefactor."""
    return 0.25 * (2.0 + 2.0 / 5.0) * gamma * eta**2 * drive_ratio_sq


def strong_coupling_figure(g0: float, kappa: float, gamma: float) -> float:
    """Strong-coupling figure of merit 10 g0^2 / (kappa gamma); >> 1 required."""
    if kappa <= 0 or gamma <= 0:
        raise ValueError("kappa and gamma must be positive")
    if g0 < 0:
        raise ValueError("g0 must be nonnegative")
    return 10.0 * g0**2 / (kappa * gamma)


@dataclass(frozen=True)
class ValidityReport:
    """Collected regime checks for one parameter set.

    lamb_dicke_lhs      (1/2) eta^2 (1 + nbar + a sigma); pass < 0.25
    rwa_ratios          (nu/kappa, nu/|Omega|, |nu_x - nu_z|/chi); pass > 10
    adiabaticity        |Omega|_max / kappa; pass < 0.5
    strong_coupling     10 g0^2/(kappa gamma); pass > 10
    spontaneous_ratio   gamma / Delta_01; pass < 1e-3
    """

    lamb_dicke_lhs: float
    rwa_ratios: tuple[float, float, float]
    adiabaticity: float
    strong_coupling: float
    spontaneous_ratio: float

    LAMB_DICKE_PASS = 0.25
    RWA_PASS = 10.0
    ADIABATIC_PASS = 0.5
    STRONG_COUPLING_PASS = 10.0
    SPONTANEOUS_PASS = 1e-3

    def __post_init__(self):
        vals = (self.lamb_dicke_lhs, *self.rwa_ratios, self.adiabaticity,
                self.strong_coupling, self.spontaneous_ratio)
        if any(v < 0 for v in vals):
            raise ValueError("validity metrics must be nonnegative")

    def passes(self) -> dict[str, bool]:
        return {
            "lamb_dicke": self.lamb_dicke_lhs < self.LAMB_DICKE_PASS,
            "rwa": all(r > self.RWA_PASS for r in self.rwa_ratios),
            "adiabaticity": self.adiabaticity < self.ADIABATIC_PASS,
            "strong_coupling": self.strong_coupling > self.STRONG_COUPLING_PASS,
            "spontaneous": self.spontaneous_ratio < self.SPONTANEOUS_PASS,
        }
