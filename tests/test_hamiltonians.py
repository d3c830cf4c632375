"""Tests for the drive, atom-cavity and cascade builders."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from motlight.cli import main
from motlight.dynamics import IntegratorConfig
from motlight.experiments import TABLE1_ROWS
from motlight.fock import (
    StateVector,
    coherent_state,
    destroy,
    expectation,
    fock_state,
    make_space,
    number,
    position_exponential,
    position_quadrature,
    two_mode_squeezed_state,
)
from motlight.hamiltonians import (
    AtomCavityParams,
    TwoModeDriveParams,
    build_atom_cavity,
    build_cascaded_effective,
    build_two_mode_drive,
    chi_coupling,
    effective_mixer,
    effective_squeezer,
)
from motlight.pulses import PulseSchedule
from motlight.timedep import Term, TimeDependentOperator, excitation_blocks


def _two_mode_params(phi=0.0):
    return TwoModeDriveParams(
        nu_x=1.0, nu_z=3.0, eta_x_p=0.1, eta_z_p=0.1,
        drive_strength_sq_over_det=0.01, delta_21=4.0, phi=phi,
    )


# ---------------------------------------------------------------------------
# two-mode drive


def test_two_mode_drive_is_hermitian():
    h = build_two_mode_drive(_two_mode_params(phi=0.7), make_space((6, 6)))
    for t in (0.0, 0.13, -2.2):
        m = h.matrix(t)
        assert abs(m - m.getH()).max() < 1e-13


def test_two_mode_drive_vacuum_element():
    # [DERIVED] <00|H|00> = -2 eps cos(delta t - phi) exp(-2(eta_x'^2 + eta_z'^2)),
    # from <0|exp(2 i eta X)|0> = exp(-2 eta^2) (Gaussian moment of X in vacuum);
    # the free energies and the frame phase leave the vacuum element alone
    p = _two_mode_params(phi=0.3)
    spc = make_space((8, 8))
    h = build_two_mode_drive(p, spc)
    damp = math.exp(-2.0 * (p.eta_x_p**2 + p.eta_z_p**2))
    for t in (0.0, 0.77):
        expected = -2.0 * p.drive_strength_sq_over_det * math.cos(p.delta_21 * t - p.phi) * damp
        assert np.isclose(complex(h.matrix(t)[0, 0]), expected, atol=1e-12)


def _free_phase(spc, freqs, t):
    """The diagonal of U(t) = exp(i H0 t), H0 = sum_j f_j n_j, built here from the occupations."""
    return np.exp(1j * t * (spc.occupations() @ np.asarray(freqs, dtype=float)))


def test_two_mode_drive_frames_agree():
    # rotating-frame matrix = U(t) (H_lab - H0) U(t)† with U = exp(i H0 t),
    # H_lab - H0 = -eps (e^{i phi - i delta t} U+ + h.c.) built here densely
    p = _two_mode_params(phi=-0.5)
    spc = make_space((5, 5))
    rot = build_two_mode_drive(p, spc)
    x = position_quadrature(make_space((5,)), 0).mat.toarray()
    w, v = np.linalg.eigh(x)
    uplus = np.kron(v @ np.diag(np.exp(2j * p.eta_x_p * w)) @ v.T,
                    v @ np.diag(np.exp(2j * p.eta_z_p * w)) @ v.T)
    for t in (0.0, 0.41, -3.2):
        band = -p.drive_strength_sq_over_det * np.exp(1j * (p.phi - p.delta_21 * t)) * uplus
        u = _free_phase(spc, (p.nu_x, p.nu_z), t)
        expected = u[:, None] * (band + band.conj().T) * u.conj()[None, :]
        assert np.allclose(rot.matrix(t).toarray(), expected, atol=1e-12)


def _band_drive(p, spc, freqs=None):
    """The drive as sparse phase bands of the multiplied-out U+ (the unfactored form),
    without the free energies, in the frame of freqs (None: the lab frame)."""
    uplus = np.kron(position_exponential(spc.dims[0], 2j * p.eta_x_p),
                    position_exponential(spc.dims[1], 2j * p.eta_z_p))
    c = -p.drive_strength_sq_over_det * np.exp(1j * p.phi)
    return TimeDependentOperator(spc, [
        Term(c * uplus, omega=-p.delta_21),
        Term(np.conj(c) * uplus.conj().T, omega=+p.delta_21),
    ], freqs)


@pytest.mark.parametrize("dims", [(8, 8), (12, 12)])
@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_two_mode_drive_factored_matches_bands(dims, frame):
    # the factored drive against the bands rotated the same way and, moved
    # back to the lab frame by U(t)† . U(t), against the unrotated bands
    p = TwoModeDriveParams(nu_x=1.0, nu_z=3.0, eta_x_p=0.1, eta_z_p=0.0577,
                           drive_strength_sq_over_det=0.4, delta_21=4.0, phi=0.7)
    spc = make_space(dims)
    h = build_two_mode_drive(p, spc)
    bands = _band_drive(p, spc)
    rotated = _band_drive(p, spc, (p.nu_x, p.nu_z))
    assert len(h.terms) == 2
    assert h.max_frequency == rotated.max_frequency
    rng = np.random.default_rng(5)
    v = rng.normal(size=spc.dim) + 1j * rng.normal(size=spc.dim)
    for t in (0.0, 0.37, -2.1, 5.3):
        m = h.matrix(t).toarray()
        if frame == "rotating":
            got, expected, m_ref = h.apply(t, v), rotated.apply(t, v), rotated.matrix(t).toarray()
        else:
            u = _free_phase(spc, (p.nu_x, p.nu_z), t)
            got, expected = u.conj() * h.apply(t, u * v), bands.apply(t, v)
            m, m_ref = u.conj()[:, None] * m * u[None, :], bands.matrix(t).toarray()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(m - m_ref).max() <= 1e-12 * np.abs(m_ref).max()


@pytest.mark.parametrize("eta_p, nu_z", [(0.1, 3.0), (0.1, 4.0), (0.0577, 3.0), (0.0577, 4.0)])
def test_two_mode_drive_step_matches_pruned_bands(eta_p, nu_z):
    # the factored drive's omega_max, and so dt and the step count, are those
    # of the band operator at table 1's truncation, pruned or not: entries
    # below the frequency floor set no frequency in either form
    (row,) = [r for r in TABLE1_ROWS if r[0] == eta_p and r[2] == nu_z and r[4] == 1.5]
    _, nu_x, _, chi, _, _ = row
    p = TwoModeDriveParams(nu_x=nu_x, nu_z=nu_z, eta_x_p=eta_p, eta_z_p=eta_p,
                           drive_strength_sq_over_det=chi / (4.0 * eta_p**2),
                           delta_21=nu_x + nu_z, phi=-math.pi / 2.0)
    spc = make_space((48, 48))
    h = build_two_mode_drive(p, spc)
    ref = _band_drive(p, spc, (p.nu_x, p.nu_z))
    assert h.max_frequency == ref.max_frequency == ref.pruned(1e-10).max_frequency
    assert IntegratorConfig().time_step(h) == IntegratorConfig().time_step(ref)


def test_two_mode_drive_stays_factored():
    # at the 96x96 hygiene truncation the drive is two terms of 96x96 factors,
    # and building it, taking its step and applying it allocate nothing of
    # size dim x dim
    p = _two_mode_params()
    spc = make_space((96, 96))
    tracemalloc.start()
    try:
        h = build_two_mode_drive(p, spc)
        IntegratorConfig().time_step(h)
        h.apply(0.3, fock_state(spc, (0, 0)).amplitudes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.terms) == 2
    assert all(len(t.factors) == 2 and all(u.shape == (96, 96) for u in t.factors)
               for t in h.terms)
    assert peak < 0.02 * 16 * spc.dim**2  # a dense dim x dim matrix is 1.4 GB


def test_two_mode_drive_validation():
    with pytest.raises(ValueError):
        build_two_mode_drive(_two_mode_params(), make_space((6, 6, 2)))
    with pytest.raises(ValueError):
        TwoModeDriveParams(1.0, 3.0, 0.6, 0.1, 0.01, 4.0)


# ---------------------------------------------------------------------------
# effective mixer / squeezer


def test_mixer_matrix_elements():
    spc = make_space((3, 3))
    chi, phi = 0.02, 0.9
    h = effective_mixer(chi, phi, spc)
    m = h.mat.toarray()
    i10 = spc.flat_index((1, 0))
    i01 = spc.flat_index((0, 1))
    assert np.isclose(m[i10, i01], chi * np.exp(1j * phi))
    assert np.isclose(m[i01, i10], chi * np.exp(-1j * phi))
    assert np.isclose(m[0, 0], 0.0)


def test_squeezer_matrix_elements():
    spc = make_space((3, 3))
    chi, phi = 0.02, -0.4
    h = effective_squeezer(chi, phi, spc)
    m = h.mat.toarray()
    i11 = spc.flat_index((1, 1))
    assert np.isclose(m[i11, 0], chi * np.exp(1j * phi))
    assert np.isclose(m[0, i11], chi * np.exp(-1j * phi))


def test_squeezer_generates_two_mode_squeezed_state():
    # evolving vacuum for time T under the squeezer reproduces the closed-form
    # state with r = chi T (phase -pi/2 gives the standard real-r convention)
    spc = make_space((16, 16))
    chi, r = 0.02, 0.5
    h = effective_squeezer(chi, -math.pi / 2.0, spc)
    u = scipy.linalg.expm(-1j * (r / chi) * h.mat.toarray())
    out = StateVector(spc, u @ fock_state(spc, (0, 0)).amplitudes)
    target = two_mode_squeezed_state(spc, r)
    overlap = abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2
    assert overlap > 1.0 - 1e-8
    assert np.isclose(expectation(number(spc, 0), out), math.sinh(r) ** 2, atol=1e-6)


def test_mixer_full_swap_moves_excitation():
    # chi T = pi/2 is a full swap: all population of mode x ends up in mode z
    spc = make_space((12, 12))
    chi = 0.05
    h = effective_mixer(chi, -math.pi / 2.0, spc)
    u = scipy.linalg.expm(-1j * (math.pi / 2.0) / chi * h.mat.toarray())
    out = StateVector(spc, u @ coherent_state(spc, (1.0, 0.0)).amplitudes)
    assert np.isclose(expectation(number(spc, 0), out), 0.0, atol=1e-10)
    assert np.isclose(expectation(number(spc, 1), out), 1.0, atol=1e-6)


def test_chi_coupling():
    assert np.isclose(chi_coupling(_two_mode_params()), 4.0 * 0.1 * 0.1 * 0.01)


# ---------------------------------------------------------------------------
# atom-cavity site


def _ac_params(**kw):
    base = dict(nu_x=10.0, delta_cA=10.0, eta_x=0.1, g0_sq_over_det=0.2,
                kappa=1.0, g0_EA_over_det=1.0)
    base.update(kw)
    return AtomCavityParams(**base)


def test_atom_cavity_exact_sine_oracle():
    # the lab-frame matrix nu n_b + delta n_a - (g0^2/D) sin^2(eta X) n_a
    # - amp sin(eta X)(a† + a), with sin evaluated as a matrix function
    # [DERIVED], less its free part H0 = nu n_b + delta n_a: at t = 0 the
    # rotating frame is the identity, and later it is U(t) . U(t)†
    p = _ac_params()
    spc = make_space((8, 3))
    h = build_atom_cavity(p, spc, truncation="exact")
    x = position_quadrature(spc, 0).mat.toarray()
    w, v = np.linalg.eigh(x)
    s = v @ np.diag(np.sin(p.eta_x * w)) @ v.conj().T
    na = number(spc, 1).mat.toarray()
    a = np.zeros((3, 3))
    for n in range(1, 3):
        a[n - 1, n] = math.sqrt(n)
    quad = np.kron(np.eye(8), a + a.T)
    expected = -p.g0_sq_over_det * (s @ s) @ na - 1.0 * s @ quad
    assert np.allclose(h.matrix(0.0).toarray(), expected, atol=1e-12)
    u = _free_phase(spc, (p.nu_x, p.delta_cA), 0.3)
    assert np.allclose(h.matrix(0.3).toarray(), u[:, None] * expected * u.conj()[None, :],
                       atol=1e-12)


def test_cascade_keeps_the_parity_of_the_total_excitation():
    # sin(eta X) is odd in X = b + b†: under either truncation no stored
    # entry of the cascade joins the two parities of sum_j n_j (the exact
    # sine's even offsets, rounding residue of (u - u†)/2i, are zeroed)
    p = _ac_params()
    spc = make_space((8, 3, 3, 8))
    pulses = PulseSchedule.pair(0.64, halfwidth=4.0)
    for truncation in ("third_order", "exact"):
        h, _ = build_cascaded_effective(p, pulses, spc, truncation=truncation)
        blocks = excitation_blocks([h], np.ones(spc.dim, dtype=bool))
        assert list(blocks) == ["even", "odd"], truncation


def test_atom_cavity_third_order_close_to_exact():
    # leading neglected term is the eta^4 X^4 piece of sin^2, so the defect
    # scales as eta^4; verify the magnitude and the scaling exponent
    spc = make_space((6, 3))
    errs = []
    for eta in (0.05, 0.1):
        p = _ac_params(eta_x=eta)
        exact = build_atom_cavity(p, spc, truncation="exact").matrix(0.0)
        third = build_atom_cavity(p, spc, truncation="third_order").matrix(0.0)
        errs.append(abs(exact - third).max())
        assert errs[-1] < 100 * eta**4
    ratio = errs[1] / errs[0]
    assert 8.0 < ratio < 32.0  # eta^4 scaling would give 16


def test_atom_cavity_rotating_frame_static_limit():
    # with the free energies removed, the resonant transfer band is static
    p = _ac_params()
    spc = make_space((6, 3))
    h = build_atom_cavity(p, spc, truncation="third_order")
    omegas = sorted({t.omega for t in h.terms})
    assert 0.0 in omegas
    assert h.max_frequency == 3 * p.nu_x + p.delta_cA


def test_atom_cavity_validation():
    p = _ac_params()
    with pytest.raises(ValueError):
        build_atom_cavity(p, make_space((6, 3, 2)))
    with pytest.raises(ValueError):
        build_atom_cavity(p, make_space((6, 3)), truncation="fifth_order")
    with pytest.raises(ValueError):
        build_atom_cavity(_ac_params(g0_EA_over_det=None), make_space((6, 3)))
    with pytest.raises(ValueError):
        AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1,
                         g0_sq_over_det=0.2, kappa=-1.0)


# ---------------------------------------------------------------------------
# cascaded pair


def test_cascade_identity_and_jump():
    # H_eff - H_eff† = -2i C†C, C = sqrt(kappa) (a1 + a2), holds by construction;
    # the rounding grows with kappa, so it is held to a tolerance relative to
    # max|C†C|, on sparse matrices, at both window ends and inside the window
    for truncation, dims, kappa in itertools.product(
            ("third_order", "exact"), ((4, 3, 3, 4), (18, 4, 4, 18)), (0.01, 1.0, 1e3, 1e5)):
        p = _ac_params(kappa=kappa, g0_EA_over_det=None)
        pulses = PulseSchedule.pair((0.1 * 8.0) ** 2 / kappa, halfwidth=4.0)
        spc = make_space(dims)
        h, c = build_cascaded_effective(p, pulses, spc, truncation=truncation)
        cdc = (c.mat.getH() @ c.mat).tocsr()
        t0, t1 = pulses[0].t_start, pulses[0].t_end
        for t in (t0, 0.37 * t0, 0.0, 0.61 * t1, t1):
            m = h.matrix(t)
            defect = abs(m - m.getH() + 2j * cdc).max() / abs(cdc).max()
            assert defect <= 1e-13, (truncation, dims, kappa, t, defect)
        expected = math.sqrt(kappa) * (destroy(spc, 1).mat + destroy(spc, 2).mat)
        assert abs(c.mat - expected).max() <= 1e-15 * math.sqrt(kappa)


def test_no_builder_materializes_its_operator(monkeypatch, tmp_path, tiny_runs):
    # no build and no run reads H(t): matrix(t) is left to the tests, so a
    # build-time check or a step rule that forms it fails here
    def refuse(self, t):
        raise AssertionError(f"H({t}) materialized")

    monkeypatch.setattr(TimeDependentOperator, "matrix", refuse)
    pulses = PulseSchedule.pair(0.01, halfwidth=3.0)
    for truncation in ("third_order", "exact"):
        build_cascaded_effective(_ac_params(g0_EA_over_det=None), pulses,
                                 make_space((4, 3, 3, 4)), truncation=truncation)
        build_atom_cavity(_ac_params(), make_space((6, 3)), truncation=truncation)
    build_two_mode_drive(_two_mode_params(phi=0.7), make_space((6, 6)))
    effective_mixer(0.01, 0.3, make_space((4, 4)))
    for cfg in tiny_runs:
        cfg_path = tmp_path / f"{cfg['experiment']}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([cfg["experiment"], "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


def _lab_cascade_less_h0(p, pulses, spc, truncation):
    """H_eff(t) - H0 of the cascade in the lab frame, H0 = nu (n1 + n2) + delta (c1 + c2),
    built here densely from the model: per site -(g0^2/D) s2 n_c - amp(t) s (a† + a),
    then -i kappa (c1 + c2) - 2i kappa a2† a1."""
    x_mode = position_quadrature(make_space((spc.dims[0],)), 0).mat.toarray()
    if truncation == "exact":
        w, v = np.linalg.eigh(x_mode)
        s_mode = v @ np.diag(np.sin(p.eta_x * w)) @ v.T
        s2_mode = s_mode @ s_mode
    else:
        s_mode = p.eta_x * x_mode - p.eta_x**3 / 6.0 * np.linalg.matrix_power(x_mode, 3)
        s2_mode = p.eta_x**2 * x_mode @ x_mode

    def on(mode, m):
        out = np.ones((1, 1))
        for j, d in enumerate(spc.dims):
            out = np.kron(out, m if j == mode else np.eye(d))
        return out

    a1, a2 = destroy(spc, 1).mat.toarray(), destroy(spc, 2).mat.toarray()
    static = -1j * p.kappa * (a1.conj().T @ a1 + a2.conj().T @ a2) - 2j * p.kappa * a2.conj().T @ a1
    drives = []
    for mot, a in ((0, a1), (3, a2)):
        s, s2 = on(mot, s_mode), on(mot, s2_mode)
        static = static - p.g0_sq_over_det * s2 @ a.conj().T @ a
        drives.append(-s @ (a + a.conj().T))
    amps = [lambda t, q=q: q.amplitude(t, p.kappa, p.eta_x) for q in pulses]
    return lambda t: static + amps[0](t) * drives[0] + amps[1](t) * drives[1]


def test_cascade_exact_trig_is_rotated():
    # the exact-sine cascade is held in the same rotating frame as the
    # third-order one: U(t) (H_lab - H0) U(t)†, with U = exp(i H0 t)
    p = _ac_params(g0_EA_over_det=None)
    pulses = PulseSchedule.pair(0.01, halfwidth=3.0)
    spc = make_space((4, 2, 2, 4))
    h, _ = build_cascaded_effective(p, pulses, spc, truncation="exact")
    lab = _lab_cascade_less_h0(p, pulses, spc, "exact")
    assert h.freqs == (p.nu_x, p.delta_cA, p.delta_cA, p.nu_x)
    for t in (-123.0, 0.0, 57.3):
        u = _free_phase(spc, h.freqs, t)
        expected = u[:, None] * lab(t) * u.conj()[None, :]
        assert np.abs(h.matrix(t).toarray() - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("dims, delta, omega_max", [
    ((3, 2, 2, 3), 10.0, 20.0),  # X^3 cannot raise a 3-level mode by three quanta
    ((4, 2, 2, 4), 10.0, 40.0),  # 3 nu + delta = 4 nu
    ((4, 2, 2, 4), 7.0, 37.0),
])
def test_cascade_rotating_frame_is_interaction_picture(dims, delta, omega_max):
    # rotating H_eff(t) = U(t) (H_lab - H0) U(t)†, U = exp(i H0 t), and its
    # apply agrees with its matrix on a vector and on a block of columns
    p = _ac_params(delta_cA=delta, g0_EA_over_det=None)
    pulses = PulseSchedule.pair(0.01, halfwidth=3.0)
    spc = make_space(dims)
    rot, _ = build_cascaded_effective(p, pulses, spc)
    lab = _lab_cascade_less_h0(p, pulses, spc, "third_order")
    assert rot.max_frequency == omega_max
    rng = np.random.default_rng(2)
    block = rng.normal(size=(spc.dim, 3)) + 1j * rng.normal(size=(spc.dim, 3))
    for t in (-250.0, -123.0, 0.0, 57.3, 210.0):
        u = _free_phase(spc, (p.nu_x, delta, delta, p.nu_x), t)
        expected = u[:, None] * lab(t) * u.conj()[None, :]
        m = rot.matrix(t).toarray()
        assert np.abs(m - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.allclose(rot.apply(t, block[:, 0]), m @ block[:, 0], rtol=0, atol=1e-12)
        assert np.allclose(rot.apply(t, block), m @ block, rtol=0, atol=1e-12)


@pytest.mark.parametrize("table", ["table2", "table3", "table4", "table5"])
def test_transfer_step_is_set_by_4nu(table):
    # the third-order (0.1, 10) row at the table's default dims: the eta^3 X^3
    # part of the coupling sets omega_max = 3 nu + delta = 4 nu, floor or not
    from motlight.experiments import TRANSFER_TABLES

    p = _ac_params(g0_EA_over_det=None)  # nu = delta = 10, eta 0.1, kappa 1
    pulses = PulseSchedule.pair(p.eta_x**2 / p.kappa)
    h, _ = build_cascaded_effective(p, pulses, make_space(TRANSFER_TABLES[table]["dims"]))
    assert h.max_frequency == 40.0


@pytest.mark.parametrize("eta", [0.1, 0.15])
def test_fig4_step_is_set_by_4nu(eta):
    # fig4's site at its default 40x5: omega_max = 3 nu + delta = 4 nu
    p = _ac_params(eta_x=eta, g0_EA_over_det=0.1 / eta)
    assert build_atom_cavity(p, make_space((40, 5))).max_frequency == 40.0


@pytest.mark.parametrize("dims", [(18, 4, 4, 18), (4, 4, 4, 4)])
def test_cascade_apply_matches_matrix_at_bench_windows(dims):
    # the benchmark's table2 and table4 operators (eta 0.1, nu 10, drive_max 8,
    # +-4/Gamma): the apply against matrix(t), and against the same sum with
    # each frame phase exp(i t level) reduced mod 2 pi in extended precision;
    # on absolute levels (up to 400) the table2 apply was 1.1e-13 off the latter
    p = AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1, g0_sq_over_det=0.2, kappa=1.0)
    pulses = PulseSchedule.pair((0.1 * 8.0) ** 2, halfwidth=4.0)
    spc = make_space(dims)
    h, _ = build_cascaded_effective(p, pulses, spc)
    level = spc.occupations().astype(np.longdouble) @ np.asarray(h.freqs, dtype=np.longdouble)
    two_pi = 2 * np.longdouble(np.pi) + np.longdouble(2.4492935982947064e-16)  # + 2(pi - fl(pi))
    rng = np.random.default_rng(5)
    block = rng.normal(size=(spc.dim, 3)) + 1j * rng.normal(size=(spc.dim, 3))
    for t in (pulses[0].t_start, -3.3, 0.0, 2.9, 5.9, pulses[0].t_end):
        m = h.matrix(t)
        ph = np.exp(1j * np.fmod(np.longdouble(t) * level, two_pi).astype(float))[:, None]
        exact = 0.0
        for term in h.terms:
            exact = exact + term.coefficient(t) * (ph * (term.matrix @ (ph.conj() * block)))
        for y, ref in ((block[:, 0], exact[:, 0]), (block, exact)):
            got = h.apply(t, y)
            for expected in (m @ y, ref):
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_cascade_space_validation():
    p = _ac_params(g0_EA_over_det=None)
    pulses = PulseSchedule.pair(0.01, halfwidth=3.0)
    with pytest.raises(ValueError):
        build_cascaded_effective(p, pulses, make_space((3, 2, 2)))

