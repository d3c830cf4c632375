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


_NSCAN = 720  # slopes scanned before the Newton refinement


def fidelity_phase_calibrated(psi: StateVector, phi: StateVector, mode: int) -> tuple[float, float]:
    """Fidelity maximized over a linear Fock-space phase e^{-i s n} on one mode.

    Off-resonant couplings imprint a deterministic occupation-proportional
    phase (an AC-Stark rotation of the mode) on an otherwise faithful state.
    That rotation is state-independent and can be calibrated away at readout,
    so the overlap after removing the best single slope s is the faithful
    figure of merit.  Returns (fidelity, slope).  A target that fills at most
    one level of the mode has no such phase to find: its slope is 0.

    The overlap is A(s) = sum_n q_n e^{-i s n}.  |A|^2 is scanned at 720
    slopes, and its maximum is refined within two scan steps of the best one
    by Newton's method on d|A|^2/ds = 2 Re(A* A'), with A' and A'' in closed
    form.  A Newton step that would leave the bracket is replaced by
    bisection, and the bracket shrinks to the side the derivative points to.
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
    n = np.arange(q.size)
    slopes = np.linspace(-math.pi, math.pi, _NSCAN, endpoint=False)
    vals = np.abs(np.exp(-1j * np.outer(slopes, n)) @ q)
    k = int(np.argmax(vals))
    lo, hi = slopes[k] - 2.0 * math.pi / _NSCAN, slopes[k] + 2.0 * math.pi / _NSCAN
    s = float(slopes[k])
    for _ in range(100):
        w = np.exp(-1j * s * n) * q
        amp, d1, d2 = w.sum(), -1j * (n @ w), -((n * n) @ w)
        g = (np.conj(amp) * d1).real  # (d|A|^2/ds) / 2
        dg = abs(d1) ** 2 + (np.conj(amp) * d2).real
        step = -g / dg if dg < 0.0 else math.nan
        if abs(step) <= 1e-15:
            break
        if g > 0.0:
            lo = s
        else:
            hi = s
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    return float(abs(np.exp(-1j * s * n) @ q) ** 2), float(s)


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

