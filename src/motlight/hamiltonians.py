"""Builders for the drive, atom-cavity, and cascaded Hamiltonians and jump operators.

Conventions:
  * hbar = 1; all rates in units of the chosen base rate (kappa = 1 in the
    transfer problems, the trap frequency scale in the two-mode problems).
  * Constant energy shifts (zero-point energies, -E^2/Delta terms) are dropped.
  * Every Hamiltonian is built in the rotating frame, the interaction
    picture of the free mode energies sum_j nu_j n_j: the free terms are
    dropped and the operator keeps the diagonal phase
    P(t) = diag(exp(i t sum_j nu_j n_j)), A(t) = P(t) A P(t)*, so every
    residual oscillation is retained exactly, for any truncation of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockSpace,
    Operator,
    destroy,
    embed,
    number,
    position_exponential,
    position_quadrature,
)
from .timedep import Term, TimeDependentOperator

__all__ = [
    "TwoModeDriveParams",
    "AtomCavityParams",
    "build_two_mode_drive",
    "effective_mixer",
    "effective_squeezer",
    "chi_coupling",
    "build_atom_cavity",
    "build_cascaded_effective",
]


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class TwoModeDriveParams:
    """Counterpropagating-beam drive of two orthogonal motional modes."""

    nu_x: float
    nu_z: float
    eta_x_p: float  # projected Lamb-Dicke parameter alpha * eta_x
    eta_z_p: float  # projected Lamb-Dicke parameter beta * eta_z
    drive_strength_sq_over_det: float  # E^2 / Delta_01
    delta_21: float  # laser-laser detuning
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_x_p < 0.5 and 0.0 < self.eta_z_p < 0.5):
            raise ValueError("projected Lamb-Dicke parameters must lie in (0, 0.5)")
        if self.nu_x <= 0 or self.nu_z <= 0:
            raise ValueError("trap frequencies must be positive")


@dataclass(frozen=True)
class AtomCavityParams:
    """Single trapped atom coupled to one cavity mode via a far-detuned drive."""

    nu_x: float
    delta_cA: float
    eta_x: float
    g0_sq_over_det: float  # g0^2 / Delta_0A
    kappa: float
    g0_EA_over_det: float | None = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.nu_x <= 0:
            raise ValueError("nu_x must be positive")
        if not (0.0 < self.eta_x < 0.5):
            raise ValueError("eta_x must lie in (0, 0.5)")


# ---------------------------------------------------------------------------
# two-mode laser drive


def _drive_factors(space: FockSpace, eta_x_p: float, eta_z_p: float) -> list[np.ndarray]:
    """Per-mode factors exp(2i eta_j' X_j) of U+ = exp(2i (eta_x' X_x + eta_z' X_z))."""
    return [position_exponential(d, 2j * eta) for d, eta in zip(space.dims, (eta_x_p, eta_z_p))]


def build_two_mode_drive(params: TwoModeDriveParams, space: FockSpace) -> TimeDependentOperator:
    """Adiabatic drive Hamiltonian for the two-mode mixing/squeezing scheme.

    The |E_L|^2 cross term cos(2k(alpha x + beta z) - delta_21 t + phi) is built
    from the fixed unitary U+ = exp(2ik(alpha x + beta z)) and its adjoint,
    each carrying a scalar phase per evaluation time.  U+ is the Kronecker
    product exp(2i eta_x' X_x) (x) exp(2i eta_z' X_z), so both terms are held
    as per-mode factors and the product is never formed.  The frame is the
    interaction picture of nu_x n_x + nu_z n_z.
    """
    if space.nmodes != 2:
        raise ValueError("two-mode drive needs a two-mode space")
    eps = params.drive_strength_sq_over_det
    ux, uz = _drive_factors(space, params.eta_x_p, params.eta_z_p)
    c = -eps * np.exp(1j * params.phi)
    terms = [
        Term(factors=(c * ux, uz), omega=-params.delta_21),
        Term(factors=(np.conj(c) * ux.conj().T, uz.conj().T), omega=+params.delta_21),
    ]
    return TimeDependentOperator(space, terms, (params.nu_x, params.nu_z))


def _effective_pair(chi: float, phi: float, space: FockSpace, what: str,
                    raise_z: bool) -> Operator:
    """chi (b_x† B e^{i phi} + h.c.) with B = b_z†, or b_z if not raise_z."""
    if space.nmodes != 2:
        raise ValueError(f"{what} needs a two-mode space")
    bx, bz = destroy(space, 0).mat, destroy(space, 1).mat
    m = chi * (np.exp(1j * phi) * (bx.getH() @ (bz.getH() if raise_z else bz)))
    return Operator(space, m + m.getH())


def effective_mixer(chi: float, phi: float, space: FockSpace) -> Operator:
    """Beamsplitter interaction chi (b_x† b_z e^{i phi} + h.c.)."""
    return _effective_pair(chi, phi, space, "mixer", raise_z=False)


def effective_squeezer(chi: float, phi: float, space: FockSpace) -> Operator:
    """Nondegenerate parametric interaction chi (b_x† b_z† e^{i phi} + h.c.)."""
    return _effective_pair(chi, phi, space, "squeezer", raise_z=True)


def chi_coupling(params: TwoModeDriveParams) -> float:
    """Effective two-mode coupling rate 4 eta_x' eta_z' E^2 / Delta_01."""
    return 4.0 * params.eta_x_p * params.eta_z_p * params.drive_strength_sq_over_det


# ---------------------------------------------------------------------------
# atom-cavity system


def _sine_matrices(space: FockSpace, mode: int, eta: float, truncation: str):
    """sin(k x) and sin^2(k x) on the motional mode, exact or Lamb-Dicke truncated.

    Third-order truncation: sin = eta X - eta^3 X^3 / 6; sin^2 keeps eta^2 X^2.
    Exact: sin = (u - u†) / 2i with u = exp(i eta X).  X = b + b† is odd, so
    sin(eta X) joins only levels of opposite parity; the entries at an even
    offset n - m, rounding residue of the subtraction, are set to zero.
    """
    x = position_quadrature(space, mode).mat
    if truncation == "exact":
        d = space.dims[mode]
        u = position_exponential(d, 1j * eta)
        sine = (u - u.conj().T) / 2j
        sine[np.add.outer(np.arange(d), np.arange(d)) % 2 == 0] = 0.0
        s = embed(space, mode, sine)
        s2 = (s @ s).tocsr()
    elif truncation == "third_order":
        x3 = (x @ x @ x).tocsr()
        s = (eta * x - (eta**3 / 6.0) * x3).tocsr()
        s2 = (eta**2 * (x @ x)).tocsr()
    else:
        raise ValueError("truncation must be 'exact' or 'third_order'")
    return s, s2


def _atom_cavity_terms(
    params: AtomCavityParams,
    space: FockSpace,
    mot: int,
    cav: int,
    envelope,
    truncation: str,
) -> list[Term]:
    """Terms of one atom-cavity site without its free energies, on arbitrary mode positions."""
    s, s2 = _sine_matrices(space, mot, params.eta_x, truncation)
    n_cav = number(space, cav).mat
    a = destroy(space, cav).mat
    terms = [Term(-params.g0_sq_over_det * (s2 @ n_cav))]
    coupling = -(s @ (a.getH() + a).tocsr())
    if callable(envelope):
        terms.append(Term(coupling, envelope=envelope))
    else:
        terms.append(Term(float(envelope) * coupling))
    return terms


def build_atom_cavity(
    params: AtomCavityParams,
    space: FockSpace,
    truncation: str = "third_order",
) -> TimeDependentOperator:
    """Hamiltonian of one atom-cavity site on a (motion, cavity) space.

    The drive amplitude factor g0 E_A / Delta_0A is the constant
    params.g0_EA_over_det.  The frame is the interaction picture of
    nu_x n_mot + delta_cA n_cav.
    """
    if space.nmodes != 2:
        raise ValueError("atom-cavity space must be (motion, cavity)")
    if params.g0_EA_over_det is None:
        raise ValueError("drive amplitude g0 E_A / Delta_0A not specified")
    terms = _atom_cavity_terms(params, space, 0, 1, params.g0_EA_over_det, truncation)
    return TimeDependentOperator(space, terms, (params.nu_x, params.delta_cA))


def build_cascaded_effective(
    params: AtomCavityParams,
    pulses,
    space: FockSpace,
    truncation: str = "third_order",
) -> tuple[TimeDependentOperator, Operator]:
    """Non-Hermitian effective Hamiltonian and jump operator of the cascade.

    Space layout: (motion 1, cavity 1, cavity 2, motion 2).  Both sites are
    identical, with the one site's `params`.  `pulses` is the (emitter,
    receiver) PulseSchedule pair.  H_eff(t) - H_eff(t)† = -2i C†C at all
    times by construction, C = sqrt(kappa) (a1 + a2): the driven terms are
    s (a + a†) times a real amplitude, the site terms are Hermitian, and
    -i kappa (n1 + n2) - 2i kappa a2† a1 is -i C†C plus the Hermitian
    i kappa (a1† a2 - a2† a1).  The frame is the interaction picture of the
    four free energies (nu_x, delta_cA, delta_cA, nu_x); the operator merges
    into three terms, one per envelope.  Both cavities share one delta_cA,
    so C is applied without the frame phase, which only multiplies it by a
    number.
    """
    if space.nmodes != 4:
        raise ValueError("cascade space must be (mot1, cav1, cav2, mot2)")
    p1, p2 = pulses
    env1 = lambda t: p1.amplitude(t, params.kappa, params.eta_x)  # noqa: E731
    env2 = lambda t: p2.amplitude(t, params.kappa, params.eta_x)  # noqa: E731
    terms = _atom_cavity_terms(params, space, 0, 1, env1, truncation)
    terms += _atom_cavity_terms(params, space, 3, 2, env2, truncation)
    k = params.kappa
    a1 = destroy(space, 1).mat
    a2 = destroy(space, 2).mat
    cascade = (
        -1j * k * number(space, 1).mat
        - 1j * k * number(space, 2).mat
        - 2j * k * (a2.getH() @ a1).tocsr()
    )
    terms.append(Term(cascade))
    freqs = (params.nu_x, params.delta_cA, params.delta_cA, params.nu_x)
    h = TimeDependentOperator(space, terms, freqs)
    jump = Operator(space, math.sqrt(k) * (a1 + a2))
    return h, jump
