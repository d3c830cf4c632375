"""Tests for fidelities, the EPR variance, and validity diagnostics."""

import math

import numpy as np
import pytest
import scipy.optimize

from motlight.analysis import (
    epr_variance,
    fidelity_mixed,
    fidelity_phase_calibrated,
    fidelity_pure,
    lamb_dicke_validity,
    reference_decayed_coherent,
    strong_coupling_figure,
)
from motlight.fock import (
    DensityMatrix,
    StateVector,
    coherent_state,
    destroy,
    expectation,
    fock_state,
    make_space,
    number,
    truncated_phase_state,
    two_mode_squeezed_state,
)


# ---------------------------------------------------------------------------
# fidelities


def test_fidelity_pure_basics():
    spc = make_space((4,))
    a = fock_state(spc, (1,))
    b = fock_state(spc, (2,))
    assert fidelity_pure(a, a) == 1.0
    assert fidelity_pure(a, b) == 0.0
    # normalization and global phase are irrelevant
    c = StateVector(spc, 3.7j * a.amplitudes)
    assert np.isclose(fidelity_pure(c, a), 1.0)
    with pytest.raises(ValueError):
        fidelity_pure(a, fock_state(make_space((5,)), (1,)))


def test_fidelity_pure_coherent_overlap():
    # [DERIVED] |<alpha|beta>|^2 = exp(-|alpha - beta|^2)
    spc = make_space((40,))
    a = coherent_state(spc, (1.0,))
    b = coherent_state(spc, (1.5 + 0.3j,))
    assert np.isclose(fidelity_pure(a, b), math.exp(-abs(1.0 - (1.5 + 0.3j)) ** 2),
                      atol=1e-8)


def test_fidelity_mixed():
    spc = make_space((4,))
    psi = fock_state(spc, (1,))
    rho = psi.projector()
    assert np.isclose(fidelity_mixed(rho, psi), 1.0)
    assert np.isclose(fidelity_mixed(rho, fock_state(spc, (0,))), 0.0)
    with pytest.raises(ValueError):
        fidelity_mixed(rho, fock_state(make_space((3,)), (0,)))
    # a broken (non-Hermitian) rho is a numerical failure, not a config error
    broken = DensityMatrix(make_space((2,)), [[0.5, 0.1j], [0.1j, 0.5]])
    plus = StateVector(broken.space, [1.0, 1.0])
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        fidelity_mixed(broken, plus)


def test_fidelity_phase_calibrated():
    # [DERIVED] A state differing from the target only by a linear Fock-space
    # phase e^{i s n} on one mode is recovered exactly, and the fitted slope
    # equals the phase imprinted.
    spc = make_space((3, 20))
    target = StateVector(
        spc, np.kron([1.0, 0.0, 0.0], coherent_state(make_space((20,)), [1.3]).amplitudes)
    )
    slope = 0.31
    phased = np.exp(1j * slope * np.arange(20))
    psi = StateVector(spc, target.amplitudes.reshape(3, 20) * phased)
    raw = fidelity_pure(psi, target)
    fid, fitted = fidelity_phase_calibrated(psi, target, mode=1)
    assert raw < 0.9  # the phase visibly degrades the raw overlap
    assert math.isclose(fid, 1.0, abs_tol=1e-9)
    assert math.isclose(fitted, slope, abs_tol=1e-6)
    # On a phase-free pair the calibration is a no-op.
    fid0, fitted0 = fidelity_phase_calibrated(target, target, mode=1)
    assert math.isclose(fid0, 1.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        fidelity_phase_calibrated(psi, fock_state(make_space((4,)), (0,)), mode=0)


def _brent_calibrated(psi, phi, mode, nscan=720):
    """The same scan, refined by scipy's bounded Brent search (xatol 1e-5)."""
    a = psi.normalized().amplitudes.reshape(psi.space.dims)
    b = phi.normalized().amplitudes.reshape(phi.space.dims)
    q = (np.conj(b) * a).sum(axis=tuple(j for j in range(psi.space.nmodes) if j != mode))
    n = np.arange(q.size)
    slopes = np.linspace(-math.pi, math.pi, nscan, endpoint=False)
    k = int(np.argmax(np.abs(np.exp(-1j * np.outer(slopes, n)) @ q)))
    res = scipy.optimize.minimize_scalar(
        lambda s: -abs(np.exp(-1j * s * n) @ q), method="bounded",
        bounds=(slopes[k] - 2.0 * math.pi / nscan, slopes[k] + 2.0 * math.pi / nscan))
    return float(res.fun**2), float(res.x)


def test_fidelity_phase_calibrated_matches_brent():
    # a received phase state of table 2 at 18x4x4x18, its 11 filled levels
    # distorted in amplitude and phase, with a slope of 0.43 and a quadratic
    # phase on top: the polynomial's roots find at least Brent's maximum, and
    # the same slope within Brent's tolerance
    spc = make_space((18, 4, 4, 18))
    target = truncated_phase_state(spc, 10, mode=3)
    rng = np.random.default_rng(1)
    n = np.arange(18)
    col = (n <= 10) * (1.0 + 0.3 * rng.standard_normal(18) + 0.3j * rng.standard_normal(18))
    col = col * np.exp(1j * (0.43 * n + 0.02 * n**2)) + (n > 10) * 0.05 * rng.standard_normal(18)
    psi = StateVector(spc, np.kron(np.eye(spc.dim // 18)[0], col))
    fid, slope = fidelity_phase_calibrated(psi, target, mode=3)
    fid_brent, slope_brent = _brent_calibrated(psi, target, mode=3)
    assert fid_brent <= fid <= fid_brent + 1e-9
    assert abs(slope - slope_brent) <= 1e-5
    # and it is the maximum: no nearby slope does better
    q = (target.amplitudes.conj() * psi.normalized().amplitudes).reshape(-1, 18).sum(axis=0)
    for ds in (-1e-6, -1e-7, 1e-7, 1e-6):
        assert abs(np.exp(-1j * (slope + ds) * n) @ q) ** 2 <= fid


def _calibrated_of(q):
    """fidelity_phase_calibrated on one mode whose overlap profile is q, and that
    profile as the function sees it: q over its norm and sqrt(len(q))."""
    spc = make_space((len(q),))
    psi, target = StateVector(spc, np.asarray(q, dtype=complex)), StateVector(spc, np.ones(len(q)))
    fid, slope = fidelity_phase_calibrated(psi, target, mode=0)
    return fid, slope, np.asarray(q) / np.linalg.norm(q) / math.sqrt(len(q))


def _overlap_sq(q, s):
    return abs(np.exp(-1j * s * np.arange(len(q))) @ q) ** 2


@pytest.mark.parametrize("length", range(2, 41))
def test_calibrated_fidelity_is_the_global_maximum(length):
    # the roots give the best slope: at least the best of 2^16 slopes on a
    # grid (by FFT: A(2 pi k / M) is the zero-padded transform of q), and no
    # slope 1e-7 to either side does better
    rng = np.random.default_rng(length)
    fid, slope, q = _calibrated_of(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    grid = np.abs(np.fft.fft(q, 1 << 16)) ** 2
    assert fid >= grid.max() * (1.0 - 1e-14)
    assert -math.pi <= slope < math.pi
    for ds in (-1e-7, 1e-7):
        assert _overlap_sq(q, slope + ds) <= fid


@pytest.mark.parametrize("imprinted", [1.0, 2.5, 2.9, -0.4, -2.2])
def test_calibrated_slope_of_tied_maxima_is_the_least(imprinted):
    # levels of one spacing g = 2, as an even cat fills, repeat the maximum
    # with period pi: of the imprinted slope and that slope -+ pi, the one of
    # least |s| is returned
    n = np.arange(12)
    q = (n % 2 == 0) * np.exp(1j * imprinted * n) * (1.0 + 0.2 * np.cos(n))
    fid, slope, q = _calibrated_of(q)
    least = min((imprinted - math.pi, imprinted, imprinted + math.pi), key=abs)
    assert math.isclose(slope, least, abs_tol=1e-12)
    assert math.isclose(fid, _overlap_sq(q, imprinted), rel_tol=1e-12)
    assert math.isclose(fid, np.abs(q).sum() ** 2, rel_tol=1e-12)  # every level in phase


def test_calibrated_fidelity_of_two_levels_and_an_empty_first_level():
    # two filled levels, 2 and 5: A(s) = a e^{-2is} + b e^{-5is} peaks at
    # (|a| + |b|)^2 where 3s = arg b - arg a (mod 2 pi), with period 2 pi / 3
    a, b = 0.6 * np.exp(0.4j), 0.3 * np.exp(-2.9j)
    fid, slope, q = _calibrated_of([0, 0, a, 0, 0, b, 0])
    assert math.isclose(fid, (abs(q[2]) + abs(q[5])) ** 2, rel_tol=1e-13)
    tied = (np.angle(b) - np.angle(a) + 2.0 * math.pi * np.arange(-2, 3)) / 3.0
    assert math.isclose(slope, tied[np.argmin(np.abs(tied))], abs_tol=1e-12)
    # an empty first level with a slope of -1.1: recovered exactly
    n = np.arange(9)
    fid, slope, _ = _calibrated_of((n > 0) * np.exp(-1.1j * n) / np.sqrt(1.0 + n))
    assert math.isclose(slope, -1.1, abs_tol=1e-12)
    assert math.isclose(fid, np.sum(1.0 / np.sqrt(1.0 + n[1:])) ** 2
                        / np.sum(1.0 / (1.0 + n[1:])) / 9.0, rel_tol=1e-12)


def test_reference_decayed_coherent():
    spc = make_space((30,))
    ref = reference_decayed_coherent(math.sqrt(10.0), nu=10.0, gamma=0.01, t=50.0,
                                     space=spc)
    expected_n = 10.0 * math.exp(-2.0 * 0.01 * 50.0)
    assert np.isclose(expectation(number(spc, 0), ref), expected_n, atol=1e-6)


# ---------------------------------------------------------------------------
# EPR variance


def test_epr_variance_vacuum_and_product():
    # [DERIVED] Var(x+z) + Var(p_x-p_z) is 2 on vacuum, the separable bound
    spc = make_space((48, 48))
    assert math.isclose(epr_variance(fock_state(spc, (0, 0))), 2.0, abs_tol=1e-6)
    # |1,0> is a product state: 2 + 2 = 4
    assert math.isclose(epr_variance(fock_state(spc, (1, 0))), 4.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        epr_variance(fock_state(make_space((4,)), (0,)))


def test_epr_variance_squeezed_values_and_symmetry():
    # [DERIVED] 2 e^{-2r} on the two-mode squeezed state; below 2 is the
    # inseparability criterion, and r = 0 is the vacuum
    spc = make_space((48, 48))
    r = 1.0
    assert math.isclose(epr_variance(two_mode_squeezed_state(spc, r)), 2.0 * math.exp(-2.0 * r),
                        abs_tol=1e-6)
    assert math.isclose(epr_variance(two_mode_squeezed_state(spc, 0.0)), 2.0, abs_tol=1e-12)
    # x_0 + x_1 and p_0 - p_1 are symmetric (up to sign) under swapping the modes
    small = make_space((5, 5))
    rng = np.random.default_rng(3)
    c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    swapped = StateVector(small, c.T.reshape(-1))
    assert math.isclose(epr_variance(StateVector(small, c.reshape(-1))), epr_variance(swapped),
                        rel_tol=1e-12)


def _epr_variance_sparse(state: StateVector) -> float:
    """The EPR variance through the sparse whole-space operators (b_0 + b_1, i(b_1 - b_0))."""
    space, psi = state.space, state.normalized().amplitudes
    b0, b1 = destroy(space, 0).mat, destroy(space, 1).mat
    total = 0.0
    for a in (b0 + b1, 1j * (b1 - b0)):
        y = (a + a.getH()) @ psi / math.sqrt(2.0)
        total += float(np.vdot(y, y).real - np.vdot(psi, y).real ** 2)
    return total


@pytest.mark.parametrize("dims", [(3, 5), (6, 4), (2, 9), (7, 7)])
def test_epr_variance_per_mode_is_the_sparse_operator_form(dims):
    # each quadrature applied on its own axis of the amplitude matrix gives
    # the whole-space operators' value, for random states at unequal dims
    spc = make_space(dims)
    rng = np.random.default_rng(sum(dims))
    for _ in range(3):
        psi = StateVector(spc, rng.normal(size=spc.dim) + 1j * rng.normal(size=spc.dim))
        assert abs(epr_variance(psi) - _epr_variance_sparse(psi)) <= 1e-12


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5])
def test_epr_variance_of_squeezed_states_is_the_sparse_operator_form(r):
    state = two_mode_squeezed_state(make_space((48, 48)), r)
    assert abs(epr_variance(state) - _epr_variance_sparse(state)) <= 1e-12


# ---------------------------------------------------------------------------
# validity diagnostics


def test_lamb_dicke_validity():
    # coherent state with nbar = 10, eta = 0.15, a = 3: (1/2) eta^2 (1 + 10 + 3 sqrt(10))
    lhs = lamb_dicke_validity(0.15, 10.0)
    assert np.isclose(lhs, 0.5 * 0.15**2 * (11.0 + 3.0 * math.sqrt(10.0)))
    # the commonly quoted rounding of this value is 0.225 (from ~ 10 eta^2)
    assert abs(lhs - 0.225) < 0.01
    assert np.isclose(lamb_dicke_validity(0.1, 4.0, sigma=0.0), 0.5 * 0.01 * 5.0)


def test_strong_coupling_figure():
    assert np.isclose(strong_coupling_figure(2.0, 1.0, 1.0), 40.0)
    with pytest.raises(ValueError):
        strong_coupling_figure(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        strong_coupling_figure(-1.0, 1.0, 1.0)

