"""Fidelities, the EPR variance of a two-mode state, and validity diagnostics.

The validity diagnostics are plain arithmetic: they evaluate the
closed-form conditions under which the effective mode-mode models hold, and
return the left-hand sides so callers can compare against their own
thresholds.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import DensityMatrix, FockSpace, StateVector, coherent_state

__all__ = [
    "fidelity_pure",
    "fidelity_mixed",
    "fidelity_phase_calibrated",
    "reference_decayed_coherent",
    "epr_variance",
    "lamb_dicke_validity",
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
        raise ArithmeticError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(val.real)


def fidelity_phase_calibrated(psi: StateVector, phi: StateVector, mode: int) -> tuple[float, float]:
    """Fidelity maximized over a linear Fock-space phase e^{-i s n} on one mode.

    Off-resonant couplings imprint a deterministic occupation-proportional
    phase (an AC-Stark rotation of the mode) on an otherwise faithful state.
    That rotation is state-independent and can be calibrated away at readout,
    so the overlap after removing the best single slope s is the faithful
    figure of merit.  Returns (fidelity, slope).  A target that fills at most
    one level of the mode has no such phase to find: its slope is 0.

    The overlap is A(s) = sum_n q_n e^{-i s n}, n up to the last filled
    level N, so |A|^2 = sum_m r_m e^{-i s m} with r the autocorrelation of
    q.  Its stationary points are the s = -arg z of the roots z of
    sum_m m r_m z^(m+N), a polynomial of degree 2N, found as the eigenvalues
    of its companion matrix (Edelman and Murakami, Math. Comp. 64, 763
    (1995)).  |A|^2 is evaluated at each of them and at s = 0, and the
    largest is returned; a root off the unit circle only adds a candidate.
    When the filled levels share a spacing g > 1 the maximum repeats with
    period 2 pi / g: among the candidates within a relative 1e-12 of the
    largest, the slope of least |s|, then the lesser s, is returned.
    """
    if psi.space != phi.space:
        raise ValueError("states live on different spaces")
    a = psi.normalized().amplitudes.reshape(psi.space.dims)
    b = phi.normalized().amplitudes.reshape(phi.space.dims)
    # overlap(s) = sum_n e^{-i s n} q_n with q_n = sum over the slice at n
    prod = np.conj(b) * a
    axes = tuple(j for j in range(psi.space.nmodes) if j != mode)
    q = prod.sum(axis=axes)
    if np.count_nonzero(q) <= 1:
        return float(np.abs(q).sum() ** 2), 0.0
    q = q[: np.flatnonzero(q)[-1] + 1]
    r = np.correlate(q, q, "full")  # r_m for m = -N, ..., N
    roots = np.roots((np.arange(1 - q.size, q.size) * r)[::-1])
    slopes = np.append(-np.angle(roots), 0.0)
    vals = np.abs(np.exp(-1j * np.outer(slopes, np.arange(q.size))) @ q) ** 2
    best = vals >= vals.max() * (1.0 - 1e-12)
    k = np.lexsort((slopes[best], np.abs(slopes[best])))[0]
    return float(vals[best][k]), float(slopes[best][k])


def reference_decayed_coherent(
    alpha: complex, nu: float, gamma: float, t: float, space: FockSpace
) -> StateVector:
    """Coherent state of amplitude alpha e^{-(i nu + gamma) t} on mode 0, vacuum elsewhere.

    This is the ideal free-decay reference for a damped coherent state; the
    zero-point global phase is dropped.
    """
    alphas = [0.0] * space.nmodes
    alphas[0] = alpha * np.exp(-(1j * nu + gamma) * t)
    return coherent_state(space, alphas)


# ---------------------------------------------------------------------------
# EPR variance


def epr_variance(state: StateVector) -> float:
    """Var(x_0 + x_1) + Var(p_0 - p_1) of a two-mode state.

    x = (b + b†)/sqrt2 and p = i(b† - b)/sqrt2, so vacuum gives 2 and the
    two-mode squeezed state of two_mode_squeezed_state gives 2 e^{-2r}.  A
    value below 2 certifies inseparability (Duan, Giedke, Cirac and Zoller,
    PRL 84, 2722 (2000)).  Each quadrature acts on its own axis of the
    (d_0, d_1) amplitude matrix.
    """
    space = state.space
    if space.nmodes != 2:
        raise ValueError("the EPR variance needs a two-mode state")
    psi = state.normalized().amplitudes
    c = psi.reshape(space.dims)
    (x0, p0), (x1, p1) = _quadratures(c, 0), _quadratures(c, 1)
    total = 0.0
    for y in ((x0 + x1).ravel(), (p0 - p1).ravel()):
        total += float(np.vdot(y, y).real - np.vdot(psi, y).real ** 2)
    return total


def _quadratures(c: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """x c and p c for the mode of one axis of the two-mode amplitude matrix c,
    with b|n> = sqrt(n)|n-1> and b† annihilating the top level."""
    c = np.moveaxis(c, axis, 0)
    s = np.sqrt(np.arange(1, c.shape[0]))[:, None]
    down, up = np.zeros_like(c), np.zeros_like(c)  # b c and b† c
    down[:-1] = s * c[1:]
    up[1:] = s * c[:-1]
    x = (down + up) / math.sqrt(2.0)
    p = 1j * (up - down) / math.sqrt(2.0)
    return np.moveaxis(x, 0, axis), np.moveaxis(p, 0, axis)


# ---------------------------------------------------------------------------
# validity diagnostics


def lamb_dicke_validity(eta: float, nbar: float, sigma: float | None = None) -> float:
    """Left-hand side of the Lamb-Dicke condition (1/2) eta^2 (1 + nbar + 3 sigma).

    sigma defaults to sqrt(nbar), the spread of a coherent state; three
    standard deviations above the mean must still sit well inside the
    Lamb-Dicke regime.  Values well below 1 mean the expansion of the trig
    coupling is trustworthy.
    """
    if sigma is None:
        sigma = math.sqrt(max(nbar, 0.0))
    return 0.5 * eta**2 * (1.0 + nbar + 3.0 * sigma)


def strong_coupling_figure(g0: float, kappa: float, gamma: float) -> float:
    """Strong-coupling figure of merit 10 g0^2 / (kappa gamma); >> 1 required."""
    if kappa <= 0 or gamma <= 0:
        raise ValueError("kappa and gamma must be positive")
    if g0 < 0:
        raise ValueError("g0 must be nonnegative")
    return 10.0 * g0**2 / (kappa * gamma)

