"""Tests for the integrators and the quantum-trajectory machinery."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.stats

from motlight import dynamics
from motlight.dynamics import (
    IntegratorConfig,
    effective_hamiltonian,
    evolve_adiabatic_cascade,
    evolve_master,
    evolve_schrodinger,
    mcwf_ensemble,
)
from motlight.errors import IntegrationError
from motlight.fock import (
    DensityMatrix,
    Operator,
    StateVector,
    TruncationWarning,
    cat_state,
    coherent_state,
    destroy,
    expectation,
    fock_state,
    make_space,
    number,
    position_quadrature,
    truncated_phase_state,
)
from motlight.hamiltonians import (
    AtomCavityParams,
    TwoModeDriveParams,
    build_cascaded_effective,
    build_two_mode_drive,
    effective_mixer,
)
from motlight.parallel import usage
from motlight.pulses import PulseSchedule
from motlight.timedep import Term, TimeDependentOperator, excitation_blocks


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(steps_per_period=10)
    IntegratorConfig(steps_per_period=10, dt=0.1)  # explicit dt bypasses the rule
    # a step that is not finite and positive is refused by the sample loop
    # that every propagator shares
    spc, pair = make_space((3,)), make_space((2, 2))
    psi0 = fock_state(spc, (1,))
    n = number(spc, 0)
    for dt in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            evolve_schrodinger(n, psi0, 0.0, 1.0, config=IntegratorConfig(dt=dt))
        with pytest.raises(ValueError, match="finite and positive"):
            evolve_master(n, [], psi0.projector(), 0.0, 1.0, config=IntegratorConfig(dt=dt))
        with pytest.raises(ValueError, match="finite and positive"):
            evolve_adiabatic_cascade(pair, lambda t: 0.0, lambda t: 0.0,
                                     fock_state(pair, (1, 0)).projector(), 0.0, 1.0, dt=dt)
        with pytest.raises(ValueError, match="finite and positive"):
            mcwf_ensemble(n, [n], psi0, 0.0, 1.0, ntraj=2, seed=0,
                          config=IntegratorConfig(dt=dt))


def test_time_step_rule():
    spc = make_space((4,))
    n = number(spc, 0)
    assert IntegratorConfig(dt=0.3).time_step(n) == 0.3
    banded = TimeDependentOperator(spc, [Term(n.mat, omega=5.0)])
    assert np.isclose(IntegratorConfig(steps_per_period=20).time_step(banded),
                      2.0 * math.pi / 5.0 / 20)
    # a static generator's step resolves its one-norm, 3 for n on four levels
    assert np.isclose(IntegratorConfig(steps_per_period=20).time_step(n),
                      2.0 * math.pi / 3.0 / 20)
    # the adiabatic cascade's rule, 2 / Gamma_max / steps_per_period: at the
    # default 40 bitwise the 0.05 / Gamma_max it replaced; dt overrides it too
    p1, p2 = PulseSchedule.pair(0.01, halfwidth=1.0)
    window = (p1.rate, p2.rate, p1.t_start, p1.t_end)
    peak = p1.rate(p1.t_end)
    assert peak == p2.rate(p1.t_start) > p1.rate(p1.t_start)
    assert IntegratorConfig().cascade_step(*window) == 0.05 / peak
    assert IntegratorConfig(steps_per_period=80).cascade_step(*window) == 0.025 / peak
    assert IntegratorConfig(dt=0.3).cascade_step(*window) == 0.3


def _driven_damped_cavity(dim=10, kappa=0.4, eps=0.3):
    """Criterion 5's cavity: H = eps x, C = sqrt(kappa) a, H_eff = H - i kappa n."""
    spc = make_space((dim,))
    h = Operator(spc, eps * position_quadrature(spc, 0).mat)
    h_eff = Operator(spc, h.mat - 1j * kappa * number(spc, 0).mat)
    return spc, h_eff, Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)


def test_static_time_step_is_deterministic():
    # the step of a generator with no oscillation comes from its exact 1-norm,
    # so repeated calls, and two same-seed ensembles, agree exactly
    spc, h_eff, c = _driven_damped_cavity()
    config = IntegratorConfig()
    steps = {config.time_step(h_eff) for _ in range(50)}
    one_norm = np.abs(h_eff.mat.toarray()).sum(axis=0).max()
    assert steps == {2.0 * math.pi / one_norm / config.steps_per_period}
    psi = fock_state(spc, (1,))
    _, rhos1, j1 = mcwf_ensemble(h_eff, [c], psi, 0.0, 4.0, ntraj=20, seed=20)
    _, rhos2, j2 = mcwf_ensemble(h_eff, [c], psi, 0.0, 4.0, ntraj=20, seed=20)
    assert j1 == j2
    assert np.array_equal(rhos1[-1].entries, rhos2[-1].entries)


# ---------------------------------------------------------------------------
# the RK4 step


def _textbook_rk4(deriv, t, y, dt):
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = deriv(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("shape", [(7,), (7, 3)], ids=["vector", "block"])
def test_rk4_step_is_the_textbook_formula_bitwise(shape):
    # the step builds its stages in scratch arrays and sums them in place, in
    # the textbook's order, and leaves y alone
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    y0 = y.copy()
    deriv = lambda t, y: (1.0 + t) * (a @ y)  # noqa: E731
    for t, dt in ((0.0, 0.1), (0.3, 0.037)):
        assert np.array_equal(dynamics._rk4_step(deriv, t, y, dt), _textbook_rk4(deriv, t, y, dt))
    assert np.array_equal(y, y0)


def test_restricted_transfer_runs_each_envelope_twice_a_step(one_cpu):
    # RK4 applies H at t, twice at t + h/2 and at t + h, which is the next
    # step's t bit for bit: the compiled apply keeps the last two times'
    # coefficients, so each envelope runs at the start and twice a step
    h, _, psi0, t0, t1 = _table4_cascade()
    calls = {}

    def counted(env):
        calls[id(env)] = 0

        def wrapped(t):
            calls[id(env)] += 1
            return env(t)

        return wrapped

    wrapped = {id(t.envelope): counted(t.envelope) for t in h.terms if t.envelope is not None}
    h = TimeDependentOperator(h.space, [
        Term(t.matrix, t.omega, None if t.envelope is None else wrapped[id(t.envelope)])
        for t in h.terms], h.freqs)
    assert list(excitation_blocks([h], psi0.amplitudes != 0)) == ["odd"]  # the odd sector alone
    config = IntegratorConfig(steps_per_period=20)
    t1 = t0 + 0.05 * (t1 - t0)
    steps = math.ceil((t1 - t0) / config.time_step(h))
    evolve_schrodinger(h, psi0, t0, t1, config=config)
    assert len(calls) >= 2 and steps > 10
    assert list(calls.values()) == [2 * steps + 1] * len(calls)


def test_master_step_is_the_former_derivative_bitwise():
    # the Lindblad derivative applies -i and forms (C rho)† in place and
    # Y + Y† as conj(Y.T) + Y: one step in a frame, with a collapse operator
    # and a rho whose excitations are not bounded, is bitwise the step of
    # the derivative as first written
    spc = make_space((4, 3))
    b0, b1 = destroy(spc, 0).mat, destroy(spc, 1).mat
    h = TimeDependentOperator(spc, [Term(b0 + b0.getH(), envelope=lambda t: math.cos(2.0 * t)),
                                    Term(0.4 * (b1.getH() @ b0 + b0.getH() @ b1), omega=0.9)],
                              freqs=(1.3, 0.7))
    c = Operator(spc, 0.3 * b1)
    rng = np.random.default_rng(8)
    m = rng.normal(size=(spc.dim, spc.dim)) + 1j * rng.normal(size=(spc.dim, spc.dim))
    rho0 = DensityMatrix(spc, m @ m.conj().T / np.trace(m @ m.conj().T).real)
    h_eff = TimeDependentOperator(spc, h.terms + [Term(-1j * (c.mat.getH() @ c.mat))], h.freqs)

    def former(t, r):
        r = r.reshape(spc.dim, spc.dim)
        y = -1j * h_eff.apply(t, r)
        y += c.apply(t, c.apply(t, r).conj().T)
        return (y + y.conj().T).reshape(-1)

    dt = 0.05
    _, rhos = evolve_master(h, [c], rho0, 0.0, dt, config=IntegratorConfig(dt=dt))
    ref = _textbook_rk4(former, 0.0, np.asarray(rho0.entries, dtype=complex).reshape(-1), dt)
    assert np.abs(rhos[-1].entries - rho0.entries).max() > 1e-3
    assert np.array_equal(rhos[-1].entries.reshape(-1), ref)


# ---------------------------------------------------------------------------
# Schrodinger integration


def test_rabi_oscillation_closed_form():
    # [DERIVED] H = Omega X on a two-level space: |0> -> cos(Omega t)|0> - i sin(Omega t)|1>
    spc = make_space((2,))
    omega = 0.7
    h = Operator(spc, omega * position_quadrature(spc, 0).mat)
    _, states = evolve_schrodinger(h, fock_state(spc, (0,)), 0.0, 3.0,
                                   IntegratorConfig(dt=0.005))
    expected = np.array([math.cos(omega * 3.0), -1j * math.sin(omega * 3.0)])
    assert np.allclose(states[-1].amplitudes, expected, atol=1e-10)


def test_hermitian_evolution_preserves_norm():
    spc = make_space((8,))
    h = Operator(spc, 0.5 * position_quadrature(spc, 0).mat + 1.3 * number(spc, 0).mat)
    times, states = evolve_schrodinger(h, coherent_state(spc, (1.0,)), 0.0, 5.0,
                                       sample_times=np.linspace(0.0, 5.0, 11))
    assert np.allclose([s.norm ** 2 for s in states], 1.0, atol=1e-9)
    assert len(times) == len(states) == 11


def test_commuting_time_dependent_envelope():
    # H(t) = cos(w t) Omega X commutes with itself at all times, so
    # psi(t) = exp(-i Omega X sin(w t)/w) psi(0); check the |0> amplitude
    spc = make_space((2,))
    omega, w = 0.9, 2.0
    x = position_quadrature(spc, 0).mat
    h = TimeDependentOperator(spc, [Term(omega * x, envelope=lambda t: math.cos(w * t))])
    t1 = 2.3
    _, states = evolve_schrodinger(h, fock_state(spc, (0,)), 0.0, t1,
                                   IntegratorConfig(dt=0.002))
    area = omega * math.sin(w * t1) / w
    expected = np.array([math.cos(area), -1j * math.sin(area)])
    assert np.allclose(states[-1].amplitudes, expected, atol=1e-8)


def test_sample_grid_validation():
    spc = make_space((2,))
    h = number(spc, 0)
    psi = fock_state(spc, (1,))
    with pytest.raises(ValueError):
        evolve_schrodinger(h, psi, 0.0, 1.0, sample_times=[0.0, 2.0])
    with pytest.raises(ValueError):
        evolve_schrodinger(h, psi, 0.0, 1.0, sample_times=[0.8, 0.2])


@pytest.mark.parametrize("propagator", ["schrodinger", "master", "adiabatic_cascade",
                                        "ensemble"])
def test_reversed_interval_is_refused(propagator):
    # t1 < t0 would take no step and return the input as the evolved state
    spc = make_space((4, 4))
    h, psi, c = effective_mixer(0.3, 0.0, spc), fock_state(spc, (1, 0)), destroy(spc, 0)
    run = {
        "schrodinger": lambda: evolve_schrodinger(h, psi, 1.0, 0.0),
        "master": lambda: evolve_master(h, [c], psi.projector(), 1.0, 0.0),
        "adiabatic_cascade": lambda: evolve_adiabatic_cascade(
            spc, lambda t: 1.0, lambda t: 1.0, psi.projector(), 1.0, 0.0),
        "ensemble": lambda: mcwf_ensemble(h, [c], psi, 1.0, 0.0, ntraj=2, seed=1),
    }[propagator]
    with pytest.raises(ValueError, match="reversed"):
        run()


@pytest.mark.parametrize("propagator", ["schrodinger", "master", "adiabatic_cascade",
                                        "ensemble"])
def test_sample_grid_ends_at_t1(propagator):
    # a grid that stops short of t1 still yields the state at t1: the phase
    # of |1> under n reaches -1 rad at t1 = 1, not -0.5 at the last sample
    spc, pair = make_space((3,)), make_space((2, 2))
    h, cfg, ts = number(spc, 0), IntegratorConfig(dt=0.01), [0.25, 0.5]
    psi = StateVector(spc, [1.0, 1.0, 0.0]).normalized()
    run = {
        "schrodinger": lambda: evolve_schrodinger(h, psi, 0.0, 1.0, cfg, sample_times=ts),
        "master": lambda: evolve_master(h, [], psi.projector(), 0.0, 1.0, cfg, sample_times=ts),
        "adiabatic_cascade": lambda: evolve_adiabatic_cascade(
            pair, lambda t: 1.0, lambda t: 1.0, fock_state(pair, (1, 0)).projector(), 0.0, 1.0,
            sample_times=ts, dt=0.01),
        "ensemble": lambda: mcwf_ensemble(h, [], psi, 0.0, 1.0, ntraj=2, seed=1, config=cfg,
                                          sample_times=ts),
    }[propagator]
    times, samples = run()[:2]
    assert np.array_equal(times, [0.0, 0.25, 0.5, 1.0])
    assert len(samples) == 4
    last = samples[-1]
    if propagator != "adiabatic_cascade":
        coherence = last.amplitudes[1] if propagator == "schrodinger" else last.entries[1, 0]
        assert np.isclose(np.angle(coherence), -1.0, atol=1e-9)


def test_cap_on_a_factored_operator_is_refused():
    # the table1 drive is factored and runs on the whole space, which a cap
    # would silently leave uncapped
    p = TwoModeDriveParams(nu_x=1.0, nu_z=3.0, eta_x_p=0.1, eta_z_p=0.1,
                           drive_strength_sq_over_det=0.5, delta_21=4.0)
    spc = make_space((6, 6))
    h = build_two_mode_drive(p, spc)
    psi0 = fock_state(spc, (0, 0))
    with pytest.raises(ValueError, match="factored term cannot be capped"):
        evolve_schrodinger(h, psi0, 0.0, 1.0, excitation_cap=2)


def test_space_mismatch_rejected():
    h = number(make_space((3,)), 0)
    psi = fock_state(make_space((4,)), (0,))
    with pytest.raises(ValueError):
        evolve_schrodinger(h, psi, 0.0, 1.0)


# ---------------------------------------------------------------------------
# master equation


def test_damped_cavity_master_equation():
    # [DERIVED] with C = sqrt(kappa) a and H = delta n:
    # <n>(t) = n0 e^{-2 kappa t}, <a>(t) = alpha e^{-(i delta + kappa) t}
    spc = make_space((15,))
    kappa, delta, alpha = 0.3, 1.1, 1.2
    h = Operator(spc, delta * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    rho0 = coherent_state(spc, (alpha,)).projector()
    t1 = 2.0
    ts, rhos = evolve_master(h, [c], rho0, 0.0, t1)
    rho = rhos[-1]
    assert np.isclose(rho.trace, 1.0, atol=1e-8)
    assert rho.hermiticity_defect() < 1e-9
    n_expect = expectation(number(spc, 0), rho)
    assert np.isclose(n_expect, alpha**2 * math.exp(-2.0 * kappa * t1), atol=1e-7)
    a_expect = expectation(destroy(spc, 0), rho)
    assert np.isclose(a_expect, alpha * np.exp(-(1j * delta + kappa) * t1), atol=1e-7)


def test_master_step_resolves_its_decay():
    # kappa = 1000 >> delta: the step is that of H_eff = delta n - i kappa n,
    # 2 pi / |H_eff|_1 / 40, so the decay of |1><1| is resolved; H's own
    # step, 2 pi / 2.2 / 40, would take the window in one step and diverge
    spc = make_space((3,))
    kappa, delta, t1 = 1000.0, 1.1, 0.002
    h = Operator(spc, delta * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    config = IntegratorConfig()
    assert config.time_step(effective_hamiltonian(h, [c])) < 1e-4 < config.time_step(h)
    _, rhos = evolve_master(h, [c], fock_state(spc, (1,)).projector(), 0.0, t1, config=config)
    assert math.isclose(rhos[-1].entries[1, 1].real, math.exp(-2.0 * kappa * t1), rel_tol=1e-4)
    assert math.isclose(rhos[-1].trace, 1.0, rel_tol=1e-12)


def test_master_equation_applies_factored_drive():
    # the rotating-frame two-mode drive, factored, against its phase bands
    p = TwoModeDriveParams(nu_x=1.0, nu_z=3.0, eta_x_p=0.1, eta_z_p=0.1,
                           drive_strength_sq_over_det=0.5, delta_21=4.0)
    spc = make_space((4, 4))
    h = build_two_mode_drive(p, spc)
    bands = TimeDependentOperator(spc, [Term(t.matrix, t.omega) for t in h.terms], h.freqs)
    assert all(t.factors is not None for t in h.terms)
    assert all(t.factors is None for t in bands.terms)
    c = Operator(spc, 0.3 * destroy(spc, 0).mat)
    rho0 = fock_state(spc, (1, 0)).projector()
    cfg = IntegratorConfig(dt=0.01)
    _, rhos = evolve_master(h, [c], rho0, 0.0, 1.0, config=cfg)
    _, ref = evolve_master(bands, [c], rho0, 0.0, 1.0, config=cfg)
    assert np.abs(rhos[-1].entries - rho0.entries).max() > 1e-3
    assert np.abs(rhos[-1].entries - ref[-1].entries).max() < 1e-13


def test_master_rejects_decay_that_oscillates_in_the_frame():
    # -i C†C joins h's frame: C = b gives the diagonal n, which the frame
    # leaves alone, but C = b + b† gives (b + b†)^2, whose b^2 part turns at 2 nu
    spc = make_space((5,))
    nu = 3.0
    h = TimeDependentOperator(spc, [Term(0.1 * position_quadrature(spc, 0).mat)], [nu])
    rho0 = fock_state(spc, (1,)).projector()
    cfg = IntegratorConfig(dt=0.01)
    evolve_master(h, [destroy(spc, 0)], rho0, 0.0, 0.1, config=cfg)
    with pytest.raises(ValueError, match="oscillates"):
        evolve_master(h, [position_quadrature(spc, 0)], rho0, 0.0, 0.1, config=cfg)
    # without a frame the same collapse operator is allowed
    evolve_master(Operator(spc, 0.1 * position_quadrature(spc, 0).mat),
                  [position_quadrature(spc, 0)], rho0, 0.0, 0.1, config=cfg)


def test_ensemble_rejects_jump_that_oscillates_in_the_frame():
    # the jumps are applied without h_eff's frame phase, under evolve_master's
    # rule: C = b passes, C = b + b† (its C†C turns at 2 nu) raises
    spc = make_space((5,))
    nu = 3.0
    h_eff = TimeDependentOperator(spc, [Term(0.1 * position_quadrature(spc, 0).mat),
                                        Term(-0.5j * number(spc, 0).mat)], [nu])
    psi0 = fock_state(spc, (1,))
    cfg = IntegratorConfig(dt=0.01)
    mcwf_ensemble(h_eff, [destroy(spc, 0)], psi0, 0.0, 0.1, ntraj=2, seed=0, config=cfg)
    with pytest.raises(ValueError, match="oscillates"):
        mcwf_ensemble(h_eff, [position_quadrature(spc, 0)], psi0, 0.0, 0.1, ntraj=2, seed=0,
                      config=cfg)
    # the cascade's sqrt(kappa) (a1 + a2): both cavities turn at one delta_cA
    p = AtomCavityParams(nu_x=10.0, delta_cA=7.0, eta_x=0.1, g0_sq_over_det=0.2, kappa=1.0)
    spc4 = make_space((3, 2, 2, 3))
    h, c = build_cascaded_effective(p, PulseSchedule.pair(0.01, halfwidth=3.0), spc4)
    mcwf_ensemble(h, [c], fock_state(spc4, (1, 0, 0, 0)), 0.0, 0.01, ntraj=2, seed=0,
                  config=cfg)


def test_master_size_warning_reaches_runtime_filters():
    spc = make_space((35, 35))  # dim 1225
    with pytest.warns(RuntimeWarning, match="dim 1225"):
        evolve_master(number(spc, 0), [], fock_state(spc, (0, 0)).projector(), 0.0, 0.0)


def test_master_rejects_non_hermitian_rho0():
    # the Lindblad derivative relies on rho = rho†
    spc, spc2 = make_space((3,)), make_space((2, 2))
    with pytest.raises(ValueError):
        evolve_master(number(spc, 0), [destroy(spc, 0)],
                      DensityMatrix(spc, np.triu(np.ones((3, 3))) / 3.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        evolve_adiabatic_cascade(spc2, lambda t: 0.1, lambda t: 0.1,
                                 DensityMatrix(spc2, np.triu(np.ones((4, 4))) / 4.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# no-jump trajectories


def test_no_jump_survival_norm():
    # [DERIVED] |1> under H_eff = -i kappa n: survival probability e^{-2 kappa t}
    spc = make_space((3,))
    kappa = 0.4
    h_eff = Operator(spc, -1j * kappa * number(spc, 0).mat)
    _, states = evolve_schrodinger(h_eff, fock_state(spc, (1,)), 0.0, 3.0)
    assert np.isclose(states[-1].norm ** 2, math.exp(-2.0 * kappa * 3.0), atol=1e-9)


def test_no_jump_norm_underflow_raises():
    spc = make_space((3,))
    h_eff = Operator(spc, -1j * number(spc, 0).mat)
    with pytest.raises(IntegrationError):
        evolve_schrodinger(h_eff, fock_state(spc, (1,)), 0.0, 25.0)


def _strong_decay_cascade():
    """table4's transfer at kappa 1000: Fock |1> at 4x3x3x4, drive_max 100, a
    +-0.5/Gamma window, row (0.1, 10).  Returns (h_eff, psi0, t0)."""
    spc = make_space((4, 3, 3, 4))
    p = AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1, g0_sq_over_det=0.2, kappa=1000.0)
    pulses = PulseSchedule.pair((0.1 * 100.0) ** 2 / 1000.0, halfwidth=0.5)
    h, _ = build_cascaded_effective(p, pulses, spc)
    return h, fock_state(spc, (1, 0, 0, 0)), pulses[0].t_start


def test_step_resolves_the_decay_of_a_no_jump_h_eff():
    # the constant part's 1-norm, 7 kappa (the column of |2, 1> of the
    # cavities under kappa (n1 + n2) + 2 kappa a2† a1) plus the sites' small
    # shifts, sets the step, not the fastest oscillation (40), so RK4 stays
    # stable: the state decays and stays finite
    h, psi0, t0 = _strong_decay_cascade()
    assert h.max_frequency == 40.0
    config = IntegratorConfig(steps_per_period=20)
    assert math.isclose(config.time_step(h), 2.0 * math.pi / 7000.0 / 20, rel_tol=1e-5)
    _, states = evolve_schrodinger(h, psi0, t0, t0 + 0.3, config=config)
    assert 0.0 < states[-1].norm ** 2 <= 1.0


@pytest.mark.parametrize("propagator, dt, t1, level", [
    pytest.param(propagator, *case, id=propagator + suffix)
    for suffix, *case in [("", 5.0, 500.0, 1), ("-finite-n1", 1.0, 10.0, 1),
                          ("-finite-n2", 1.0, 10.0, 2)]
    for propagator in ("schrodinger", "ensemble", "master")])
def test_step_past_the_stability_limit_raises(propagator, dt, t1, level):
    # dt = 5 under a decay of rate kappa n = 10 n: each RK4 step multiplies
    # |1> by about (10 dt)^4 / 24 = 2.6e5, so the state overflows into a
    # non-finite sample.  At dt = 1 it grows by 291 a step and stays finite
    # (|psi|^2 = 1.9e49 at t = 10; a density matrix from |2><2| reaches a
    # trace of 2e34), far past the growth bound.  Either is a numerical
    # failure, not a result
    spc = make_space((3,))
    kappa, config = 10.0, IntegratorConfig(dt=dt)
    psi0 = fock_state(spc, (level,))
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    with pytest.raises(IntegrationError, match="diverged"), np.errstate(all="ignore"):
        if propagator == "schrodinger":
            evolve_schrodinger(Operator(spc, -1j * kappa * number(spc, 0).mat), psi0, 0.0, t1,
                               config=config)
        elif propagator == "ensemble":
            mcwf_ensemble(Operator(spc, -1j * kappa * number(spc, 0).mat), [c], psi0, 0.0, t1,
                          ntraj=2, seed=0, config=config)
        else:
            evolve_master(number(spc, 0), [c], psi0.projector(), 0.0, t1, config=config)


class _NoJumpRng:
    """Draws u = 0, so no trajectory ever jumps."""

    def random(self):
        return 0.0


def _table4_cascade(dims=(4, 4, 4, 4), nu=10.0, halfwidth=4.0):
    """The benchmark's table4 transfer: Fock |1> at 4x4x4x4, drive_max 8, a
    +-4/Gamma window, by default.  Returns (h_eff, c, psi0, t0, t1)."""
    spc = make_space(dims)
    eta, drive_max = 0.1, 8.0
    p = AtomCavityParams(nu_x=nu, delta_cA=nu, eta_x=eta, g0_sq_over_det=0.2, kappa=1.0)
    pulses = PulseSchedule.pair((eta * drive_max) ** 2, halfwidth=halfwidth)
    h, c = build_cascaded_effective(p, pulses, spc)
    return h, c, fock_state(spc, (1, 0, 0, 0)), pulses[0].t_start, pulses[0].t_end


def test_no_jump_trajectory_is_evolve_schrodinger():
    # a trajectory that never jumps steps every gap by evolve_schrodinger's
    # rule on the whole space, so it is that branch exactly; the table4
    # transfer on a sample grid that no step divides evenly.  evolve_schrodinger
    # runs each parity sector the input occupies on its own: Fock |1> the odd
    # one, the even cat the even one, the phase state both (in two processes
    # where two CPUs are free)
    h, c, fock, t0, t1 = _table4_cascade()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # the cat at 4 levels
        inputs = [(fock, ["odd"]), (truncated_phase_state(fock.space, 3), ["even", "odd"]),
                  (cat_state(fock.space, 0.5), ["even"])]
    ts = np.linspace(t0, t1, 4)
    config = IntegratorConfig(steps_per_period=20)
    for psi0, sectors in inputs:
        assert list(excitation_blocks([h], psi0.amplitudes != 0)) == sectors
        times, ref = evolve_schrodinger(h, psi0, t0, t1, config=config, sample_times=ts)
        states, jumps = _lone_trajectory(h, [c], psi0, times, config, _NoJumpRng())
        assert jumps == []
        assert np.array_equal(states, [s.amplitudes for s in ref]), sectors


def _lone_trajectory(h_eff, jump_ops, psi, ts, config, rng):
    """The trajectory drawn from rng as a block of one: its states at ts and its jump times."""
    blocks, jumps = dynamics._trajectory_samples(h_eff, jump_ops, psi, ts, config, [rng])
    return np.array([y[:, 0] for y in blocks]), jumps[0]


def _one_by_one(h_eff, jump_ops, psi, ts, ntraj, seed, config):
    """mcwf_ensemble's average, made from ntraj lone trajectories on its child generators."""
    lone = [_lone_trajectory(h_eff, jump_ops, psi, ts, config, np.random.default_rng(child))
            for child in np.random.SeedSequence(seed).spawn(ntraj)]
    rho = sum(np.outer(y, y.conj()) / np.vdot(y, y).real
              for y in (states[-1] for states, _ in lone)) / ntraj
    return rho, [jumps for _, jumps in lone]


def _assert_block_is_one_by_one(h_eff, jump_ops, psi, t0, t1, ntraj, seed, config,
                                sample_times=None):
    ts, rhos, jumps = mcwf_ensemble(h_eff, jump_ops, psi, t0, t1, ntraj=ntraj, seed=seed,
                                    config=config, sample_times=sample_times)
    rho, lone_jumps = _one_by_one(h_eff, jump_ops, psi, ts, ntraj, seed, config)
    assert jumps == lone_jumps
    assert np.abs(rhos[-1].entries - rho).max() <= 1e-14
    for r in rhos:
        assert np.array_equal(r.entries, r.entries.conj().T)
        assert abs(np.trace(r.entries) - 1.0) <= 1e-14
    return ts, jumps


@pytest.mark.parametrize("seed", [7, 101])
def test_ensemble_block_is_lone_trajectories_table4(seed):
    # the benchmark's table4 ensemble, 8 trajectories stepped as one block
    h, c, psi0, t0, t1 = _table4_cascade()
    _, jumps = _assert_block_is_one_by_one(h, [c], psi0, t0, t1, 8, seed,
                                           IntegratorConfig(steps_per_period=20))
    assert 0 < sum(map(len, jumps)) < 8 * max(map(len, jumps))  # some jump, some do not


def test_ensemble_block_is_lone_trajectories_with_samples():
    # jumps in different sample gaps, and two in one gap of one trajectory
    spc, h_eff, c = _driven_damped_cavity()
    ts, jumps = _assert_block_is_one_by_one(h_eff, [c], fock_state(spc, (3,)), 0.0, 4.0, 6, 5,
                                            IntegratorConfig(), np.linspace(0.0, 4.0, 5))
    gaps = [np.searchsorted(ts, j) for j in jumps]
    assert any(len(g) > len(set(g)) for g in gaps)
    assert len({int(k) for g in gaps for k in g}) > 1


def test_ensemble_of_one_is_one_trajectory():
    spc, h_eff, c = _driven_damped_cavity(dim=6)
    _, jumps = _assert_block_is_one_by_one(h_eff, [c], fock_state(spc, (2,)), 0.0, 3.0, 1, 3,
                                           IntegratorConfig())
    assert jumps[0]


@pytest.mark.parametrize("case, ntraj, prefixes", [("cavity", 12, (1, 5, 11)),
                                                     ("table4", 8, (3,))])
def test_ensemble_prefix_is_the_smaller_ensemble(monkeypatch, one_cpu, case, ntraj, prefixes):
    # the first k trajectories of an ntraj ensemble are the k-trajectory
    # ensemble of the same seed, states and jump lists alike, so an ensemble
    # can be split across workers; one process runs it as one block
    if case == "cavity":
        spc, h_eff, c = _driven_damped_cavity()
        psi, t0, t1, config = fock_state(spc, (3,)), 0.0, 4.0, IntegratorConfig()
    else:
        h_eff, c, psi, t0, t1 = _table4_cascade()
        config = IntegratorConfig(steps_per_period=20)
    last = {}
    samples = dynamics._trajectory_samples

    def recorded(h_eff, jump_ops, psi0, ts, config, rngs):
        blocks, jump_times = samples(h_eff, jump_ops, psi0, ts, config, rngs)
        last[len(rngs)] = blocks[-1]
        return blocks, jump_times

    monkeypatch.setattr(dynamics, "_trajectory_samples", recorded)
    jumps = {n: mcwf_ensemble(h_eff, [c], psi, t0, t1, ntraj=n, seed=7, config=config)[2]
             for n in (ntraj, *prefixes)}
    for k in prefixes:
        assert jumps[ntraj][:k] == jumps[k]
        assert np.array_equal(last[ntraj][:, :k], last[k])
    assert any(jumps[ntraj][:max(prefixes)])


@pytest.mark.parametrize("case, ntraj", [("cavity", 7), ("table4", 8)])
def test_ensemble_split_across_processes_is_one_block(monkeypatch, case, ntraj):
    # the groups of columns that two processes run, averaged in column order,
    # give the one-block ensemble bitwise, jump lists included
    if case == "cavity":
        spc, h_eff, c = _driven_damped_cavity()
        args, config = (fock_state(spc, (3,)), 0.0, 4.0), IntegratorConfig()
        sample_times = np.linspace(0.0, 4.0, 5)
    else:
        h_eff, c, psi, t0, t1 = _table4_cascade()
        args, config, sample_times = (psi, t0, t1), IntegratorConfig(steps_per_period=20), None
    runs = {}
    for cpus in ({0}, {0, 1}):
        with monkeypatch.context() as m, usage() as run:
            m.setattr(os, "sched_getaffinity", lambda pid: cpus)
            runs[len(cpus)] = mcwf_ensemble(h_eff, [c], *args, ntraj=ntraj, seed=7, config=config,
                                            sample_times=sample_times)
        assert run["processes"] == len(cpus)
    (ts1, rhos1, jumps1), (ts2, rhos2, jumps2) = runs[1], runs[2]
    assert np.array_equal(ts1, ts2) and jumps1 == jumps2
    assert all(np.array_equal(a.entries, b.entries) for a, b in zip(rhos1, rhos2))
    assert any(jumps1[:ntraj // 2]) and any(jumps1[ntraj // 2:])


def test_jumped_trajectory_stays_on_the_block_grid(monkeypatch, one_cpu):
    # a column that jumps within a block step is stepped alone only from its
    # jump to the end of that step: outside the jump location the ensemble
    # takes one RK4 step per grid step and at most one more per jump, and
    # each jump is located by exactly two
    calls, locating = [0, 0], [False]
    rk4, locate = dynamics._rk4_step, dynamics._locate_jump

    def counted_rk4(*args):
        calls[locating[0]] += 1
        return rk4(*args)

    def counted_locate(*args):
        locating[0] = True
        try:
            return locate(*args)
        finally:
            locating[0] = False

    monkeypatch.setattr(dynamics, "_rk4_step", counted_rk4)
    monkeypatch.setattr(dynamics, "_locate_jump", counted_locate)
    spc, h_eff, c = _driven_damped_cavity()
    config = IntegratorConfig()
    _, _, jumps = mcwf_ensemble(h_eff, [c], fock_state(spc, (1,)), 0.0, 4.0, ntraj=50, seed=20,
                                config=config)
    n_jumps = sum(map(len, jumps))
    assert n_jumps > 50  # some trajectories jump more than once
    assert calls[0] <= math.ceil(4.0 / config.time_step(h_eff)) + n_jumps
    assert calls[1] == 2 * n_jumps


def _bisected_jump(tol):
    """`_locate_jump` by bisection to tol, a fresh RK4 step from y at every
    halving: the reference for the jump times."""
    def locate(deriv, t, y, y_end, step, u):
        lo, hi = 0.0, step
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if dynamics._norm_sq(dynamics._rk4_step(deriv, t, y, mid)) <= u:
                hi = mid
            else:
                lo = mid
        return t + hi, dynamics._rk4_step(deriv, t, y, hi)

    return locate


@pytest.mark.parametrize("case", ["cavity", "table4"])
def test_jump_times_match_a_fine_bisection(monkeypatch, case):
    # against a bisection to 1e-9 dt, every trajectory jumps as often and
    # each first jump lies within dt/100 (later jumps inherit the first ones'
    # differences); the median error is 100 times below the dt/100 bisection's
    if case == "cavity":
        spc, h_eff, c = _driven_damped_cavity()
        args, ntraj, seed, config = (fock_state(spc, (1,)), 0.0, 4.0), 50, 20, IntegratorConfig()
    else:
        h_eff, c, *args = _table4_cascade((3, 2, 2, 3), nu=2.0, halfwidth=2.0)
        ntraj, seed, config = 60, 1, IntegratorConfig(steps_per_period=20)
    dt = config.time_step(h_eff)
    _, _, jumps = mcwf_ensemble(h_eff, [c], *args, ntraj=ntraj, seed=seed, config=config)
    monkeypatch.setattr(dynamics, "_locate_jump", _bisected_jump(1e-9 * dt))
    _, _, ref = mcwf_ensemble(h_eff, [c], *args, ntraj=ntraj, seed=seed, config=config)
    assert list(map(len, jumps)) == list(map(len, ref))
    errors = [abs(j[0] - r[0]) for j, r in zip(jumps, ref) if j]
    assert len(errors) > 10
    assert max(errors) < dt / 100 and np.median(errors) < 1e-4 * dt


# ---------------------------------------------------------------------------
# jump statistics


def test_waiting_time_distribution():
    # seeded photon: the jump-time density is 2 kappa e^{-2 kappa t}; KS test
    spc = make_space((3,))
    kappa = 0.5
    h_eff = Operator(spc, -1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    psi = fock_state(spc, (1,))
    _, _, jumps = mcwf_ensemble(h_eff, [c], psi, 0.0, 18.0, ntraj=400, seed=2024)
    assert all(len(j) == 1 for j in jumps)  # one quantum in, one photon out
    times = [j[0] for j in jumps]
    stat = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / (2.0 * kappa)))
    assert stat.pvalue > 0.01


def test_seeded_photon_jumps_where_its_norm_meets_its_draw():
    # criterion 5's seeded photon: under -i kappa n, |1> keeps |psi|^2 =
    # e^{-2 kappa t} until its one jump, so trajectory j jumps at
    # ln(1/u_j) / (2 kappa), u_j the first draw of its child generator
    spc = make_space((10,))
    kappa, ntraj, seed = 0.4, 500, 2024
    h_eff = Operator(spc, -1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    _, _, jumps = mcwf_ensemble(h_eff, [c], fock_state(spc, (1,)), 0.0, 20.0, ntraj=ntraj,
                                seed=seed)
    assert all(len(j) == 1 for j in jumps)
    u = np.array([np.random.default_rng(child).random()
                  for child in np.random.SeedSequence(seed).spawn(ntraj)])
    assert np.max(np.abs([j[0] for j in jumps] - np.log(1.0 / u) / (2.0 * kappa))) < 1e-7


def test_unnormalized_start_is_the_normalized_ensemble():
    # a trajectory's no-jump probability is |psi|^2 / |psi0|^2, so psi0 = |1>/2
    # (|psi0|^2 below most draws) gives the ensemble of |1>, jump times within
    # the window included
    spc = make_space((4,))
    h_eff = Operator(spc, -0.5j * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(0.5) * destroy(spc, 0).mat)
    one = fock_state(spc, (1,))
    runs = [mcwf_ensemble(h_eff, [c], psi, 0.0, 2.0, ntraj=6, seed=3)
            for psi in (one, StateVector(spc, 0.5 * one.amplitudes))]
    (_, rhos1, jumps1), (_, rhos2, jumps2) = runs
    assert jumps1 == jumps2 and all(0.0 < t <= 2.0 for j in jumps1 for t in j)
    assert np.array_equal(rhos1[-1].entries, rhos2[-1].entries)


def test_mean_jump_count_matches_initial_quanta():
    # total emitted photons equal the initial mean occupation
    spc = make_space((10,))
    kappa = 0.5
    h_eff = Operator(spc, -1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    psi = coherent_state(spc, (1.5,))
    _, _, all_jumps = mcwf_ensemble(h_eff, [c], psi, 0.0, 16.0, ntraj=200, seed=7)
    mean_jumps = np.mean([len(j) for j in all_jumps])
    # <n> = 2.25, per-trajectory std = 1.5 (Poisson), 200 runs -> sem ~ 0.11
    assert abs(mean_jumps - 2.25) < 0.35


def test_ensemble_reproducible_and_mixed():
    spc = make_space((4,))
    kappa = 0.5
    h_eff = Operator(spc, -1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    psi = fock_state(spc, (2,))
    ts1, rhos1, j1 = mcwf_ensemble(h_eff, [c], psi, 0.0, 2.0, ntraj=20, seed=42)
    ts2, rhos2, j2 = mcwf_ensemble(h_eff, [c], psi, 0.0, 2.0, ntraj=20, seed=42)
    assert np.array_equal(rhos1[-1].entries, rhos2[-1].entries)
    assert j1 == j2
    assert np.isclose(rhos1[-1].trace, 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        mcwf_ensemble(h_eff, [c], psi, 0.0, 2.0, ntraj=0)


def test_ensemble_converges_to_master_equation():
    # small driven damped cavity: trajectory average vs direct master equation
    spc = make_space((6,))
    kappa, eps = 0.4, 0.3
    h = Operator(spc, eps * position_quadrature(spc, 0).mat)
    h_eff = Operator(spc, h.mat - 1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    psi = fock_state(spc, (0,))
    t1 = 4.0
    _, rhos_me = evolve_master(h, [c], psi.projector(), 0.0, t1)
    _, rhos_mc, _ = mcwf_ensemble(h_eff, [c], psi, 0.0, t1, ntraj=300, seed=11)
    diff = rhos_me[-1].entries - rhos_mc[-1].entries
    trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert trace_distance < 0.08


# ---------------------------------------------------------------------------
# adiabatic cascade


def test_cascade_emitter_decay_without_receiver():
    # [DERIVED] rate2 = 0: mode 0 decays as exp(-2 int Gamma1), with
    # int_{t0}^{t} Gamma sigma(2 Gamma s) ds = (1/2) log((1+e^{2G t})/(1+e^{2G t0}))
    spc = make_space((4, 2))
    g = 0.05
    rho0 = fock_state(spc, (2, 0)).projector()
    t0, t1 = -60.0, 40.0
    ts, rhos = evolve_adiabatic_cascade(
        spc, PulseSchedule(g, t0, t1, site=1).rate, lambda t: 0.0, rho0, t0, t1
    )
    integral = 0.5 * (np.logaddexp(0.0, 2 * g * t1) - np.logaddexp(0.0, 2 * g * t0))
    expected = 2.0 * math.exp(-2.0 * integral)
    assert np.isclose(expectation(number(spc, 0), rhos[-1]), expected, atol=1e-6)


def test_cascade_transfers_fock_state():
    spc = make_space((4, 4))
    g = 0.05
    rho0 = fock_state(spc, (2, 0)).projector()
    p1, p2 = PulseSchedule.pair(g, halfwidth=8.0)
    ts, rhos = evolve_adiabatic_cascade(spc, p1.rate, p2.rate, rho0, p1.t_start, p1.t_end)
    target = fock_state(spc, (0, 2))
    fid = float(np.real(target.amplitudes.conj() @ rhos[-1].entries @ target.amplitudes))
    assert fid > 0.999
    assert np.isclose(rhos[-1].trace, 1.0, atol=1e-6)


def test_cascade_phase_mismatch_flips_superposition():
    # a Fock state transfers regardless of the drive-phase difference, but a
    # superposition picks up the relative phase: delta_phi = pi maps
    # (|0> + |1>)/sqrt(2) onto (|0> - |1>)/sqrt(2), orthogonal-ish to the target
    spc = make_space((3, 3))
    g = 0.05
    amp = np.zeros(9, dtype=complex)
    amp[spc.flat_index((0, 0))] = 1.0 / math.sqrt(2.0)
    amp[spc.flat_index((1, 0))] = 1.0 / math.sqrt(2.0)
    rho0 = StateVector(spc, amp).projector()
    p1, p2 = PulseSchedule.pair(g, halfwidth=8.0)

    def fid_for(dphi):
        _, rhos = evolve_adiabatic_cascade(spc, p1.rate, p2.rate, rho0, p1.t_start, p1.t_end,
                                           delta_phi=dphi)
        tgt = np.zeros(9, dtype=complex)
        tgt[spc.flat_index((0, 0))] = 1.0 / math.sqrt(2.0)
        tgt[spc.flat_index((0, 1))] = 1.0 / math.sqrt(2.0)
        return float(np.real(tgt.conj() @ rhos[-1].entries @ tgt))

    assert fid_for(0.0) > 0.999
    assert fid_for(math.pi) < 0.01


@pytest.mark.parametrize("delta_phi", [0.0, math.pi])
def test_cascade_partial_transfer_matches_single_excitation_ode(delta_phi):
    # [DERIVED] one excitation obeys c1' = -G1 c1, c2' = -G2 c2 + 2 sqrt(G1 G2) e^{-i dphi} c1;
    # over a +-1/Gamma window this leaves c1 = a_res, c2 = e^{-i dphi} beta.  The cascade is
    # passive, so |1,0> -> fidelity beta^2 with |0,1>, and |alpha,0> -> |alpha a_res,
    # alpha e^{-i dphi} beta>, fidelity exp(-|alpha|^2 (a_res^2 + |1 - e^{-i dphi} beta|^2))
    g, alpha = 0.05, 1.0
    p1, p2 = PulseSchedule.pair(g, halfwidth=1.0)

    def rhs(t, c):
        g1, g2 = float(p1.rate(t)), float(p2.rate(t))
        return [-g1 * c[0], -g2 * c[1] + 2.0 * math.sqrt(g1 * g2) * c[0]]

    sol = scipy.integrate.solve_ivp(rhs, (p1.t_start, p1.t_end), [1.0, 0.0],
                                    method="DOP853", rtol=1e-12, atol=1e-14)
    a_res, beta = sol.y[:, -1]
    assert 0.1 < beta < 0.9  # the window is short enough to leave a partial transfer
    spc = make_space((10, 10))

    def fidelity(psi0, target):
        _, rhos = evolve_adiabatic_cascade(spc, p1.rate, p2.rate, psi0.projector(),
                                           p1.t_start, p1.t_end, delta_phi=delta_phi)
        tgt = target.amplitudes
        return float(np.real(tgt.conj() @ rhos[-1].entries @ tgt))

    f_fock = fidelity(fock_state(spc, (1, 0)), fock_state(spc, (0, 1)))
    f_coh = fidelity(coherent_state(spc, (alpha, 0.0)), coherent_state(spc, (0.0, alpha)))
    assert abs(f_fock - beta**2) < 1e-5
    overlap_loss = a_res**2 + abs(1.0 - np.exp(-1j * delta_phi) * beta) ** 2
    assert abs(f_coh - math.exp(-alpha**2 * overlap_loss)) < 1e-5


def test_cascade_space_validation():
    spc = make_space((3, 3, 3))
    with pytest.raises(ValueError):
        evolve_adiabatic_cascade(spc, lambda t: 0.0, lambda t: 0.0,
                                 fock_state(spc, (0, 0, 0)).projector(), 0.0, 1.0)


def _restricted_sizes(monkeypatch) -> list[int]:
    """The sizes of the restrictions that operators make from now on."""
    sizes, restricted = [], TimeDependentOperator.restricted
    monkeypatch.setattr(TimeDependentOperator, "restricted",
                        lambda self, keep: sizes.append(len(keep)) or restricted(self, keep))
    return sizes


@pytest.mark.parametrize("state, top", [(lambda spc: fock_state(spc, (3, 0)), 3),
                                        (lambda spc: coherent_state(spc, (0.6, 0.0)), 7)],
                         ids=["fock:3", "coherent"])
def test_cascade_evolves_its_excitation_block_as_the_whole_space(monkeypatch, state, top):
    # H_eff keeps n1 + n2 and C lowers it, so rho runs on the states with n1 + n2
    # up to rho0's largest, `top` (the coherent state fills all 8 levels), and
    # every sample is the whole space's
    spc = make_space((8, 8))
    p1, p2 = PulseSchedule.pair(0.05, halfwidth=2.0)
    rho0 = state(spc).projector()
    sizes = _restricted_sizes(monkeypatch)

    def run():
        return evolve_adiabatic_cascade(spc, p1.rate, p2.rate, rho0, p1.t_start, p1.t_end,
                                        sample_times=np.linspace(p1.t_start, p1.t_end, 4))[1]

    block = run()
    kept = (top + 1) * (top + 2) // 2
    assert sizes == [kept, kept]  # H_eff and C
    monkeypatch.setattr(dynamics, "excitation_blocks", lambda *args: {})
    whole = run()
    assert sizes == [kept, kept]
    outside = ~np.outer(*2 * [spc.excitations() <= top])
    for a, b in zip(block, whole):
        assert np.max(np.abs(a.entries - b.entries)) <= 1e-13
        assert not np.any(b.entries[outside])


def test_mixer_runs_the_states_its_input_reaches_as_the_whole_space(monkeypatch, one_cpu):
    # the mixer keeps n0 + n1, so |1, 0> evolves on |1, 0> and |0, 1> alone
    spc = make_space((6, 5))
    h, psi0 = effective_mixer(0.2, -math.pi / 2.0, spc), fock_state(spc, (1, 0))
    sizes = _restricted_sizes(monkeypatch)

    def run():
        return [s.amplitudes for s in evolve_schrodinger(
            h, psi0, 0.0, 4.0, config=IntegratorConfig(steps_per_period=20),
            sample_times=np.linspace(0.0, 4.0, 3))[1]]

    block = run()
    assert sizes == [2]
    monkeypatch.setattr(dynamics, "excitation_blocks", lambda *args: {})
    assert np.array_equal(block, run())
    assert sizes == [2]
    assert abs(block[-1][spc.flat_index((0, 1))]) > 0.1


def test_lindblad_run_keeping_parity_runs_the_parity_of_its_input(monkeypatch):
    # H raises n0 + n1 by two, C lowers it by two: rho0 = |1, 0><1, 0| stays odd
    spc = make_space((4, 4))
    b0, b1 = destroy(spc, 0).mat, destroy(spc, 1).mat
    pair = (b0.getH() @ b1 + 0.5 * b0.getH() @ b1.getH()).tocsr()
    rho0 = fock_state(spc, (1, 0)).projector()
    sizes = _restricted_sizes(monkeypatch)

    def run():
        return evolve_master(Operator(spc, pair + pair.getH()), [Operator(spc, 0.4 * b0 @ b1)],
                             rho0, 0.0, 2.0, config=IntegratorConfig(dt=0.01),
                             sample_times=[1.0, 2.0])[1]

    block = run()
    assert sizes == [8, 8]  # the odd states, for H_eff and C
    monkeypatch.setattr(dynamics, "excitation_blocks", lambda *args: {})
    whole = run()
    assert sizes == [8, 8]
    even = np.flatnonzero(spc.excitations() % 2 == 0)
    for a, b in zip(block, whole):
        assert np.max(np.abs(a.entries - b.entries)) <= 1e-13
        assert not np.any(b.entries[even]) and not np.any(b.entries[:, even])
    assert np.max(np.abs(whole[-1].entries[np.ix_(*2 * [spc.excitations() == 3])])) > 1e-4


@pytest.mark.parametrize("raising", ["hamiltonian", "collapse"])
def test_one_raising_entry_turns_the_excitation_block_off(monkeypatch, raising):
    spc = make_space((4, 4))
    b0, b1 = destroy(spc, 0).mat, destroy(spc, 1).mat
    hop = (b1.getH() @ b0).tocsr()
    rho0 = fock_state(spc, (1, 0)).projector()
    sizes = _restricted_sizes(monkeypatch)

    def final(h, c):
        return evolve_master(Operator(spc, h), [Operator(spc, c)], rho0, 0.0, 2.0,
                             config=IntegratorConfig(dt=0.01))[1][-1].entries

    final(hop + hop.getH(), 0.3 * b0)
    assert sizes == [3, 3]  # n0 + n1 <= 1
    # one stored entry from |1, 0> to |1, 1> raises n0 + n1
    up = sp.csr_matrix(([0.05], ([spc.flat_index((1, 1))], [spc.flat_index((1, 0))])),
                       shape=(spc.dim, spc.dim))
    h, c = hop + hop.getH(), 0.3 * b0
    rho = final(h + up + up.getH(), c) if raising == "hamiltonian" else final(h, c + up)
    assert sizes == [3, 3]
    outside = ~np.outer(*2 * [spc.excitations() <= 1])
    assert np.max(np.abs(rho[outside])) > 1e-6
