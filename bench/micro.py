"""Per-call costs of single layers, timed on fixed inputs inside a traced child.

Each function returns seconds per call (or the figures named in its
docstring).  Inputs are built with motlight's public API at the sizes of
the benchmark's workloads, so they run on every workload's traced run and
time the same work from commit to commit.
"""

from __future__ import annotations

import math
import time

import numpy as np

from workloads import CASCADE, FIG4


def _per_call(fn, min_calls: int, min_seconds: float) -> float:
    n, t0 = 0, time.perf_counter()
    while n < min_calls or time.perf_counter() - t0 < min_seconds:
        fn(n)
        n += 1
    return (time.perf_counter() - t0) / n


def apply_cost(op, state, min_seconds: float = 0.3) -> dict:
    """`TimeDependentOperator.apply` on a workload's operator and state.

    Returns seconds per apply, process CPU seconds per wall second over the
    repeated applies, and the bytes one apply moves, computed (not measured)
    for the stacked layout: every stored nonzero with its column index, the
    row pointers, the input vector, the stacked product written and read
    back, and the output vector.
    """
    dim = op.space.dim
    if state is not None:
        vec = np.asarray(state.amplitudes, dtype=complex)
    else:
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
    op.apply(0.0, vec)  # compile outside the timing
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    per_call = _per_call(lambda i: op.apply(0.01 * i, vec), 5, min_seconds)
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    terms = op.merged().terms
    nnz = sum(t.matrix.nnz for t in terms)
    idx = max(t.matrix.indices.itemsize for t in terms)
    k = len(terms)
    moved = nnz * (16 + idx) + (k * dim + 1) * idx + 16 * dim * (2 + 2 * k)
    return {"apply_s": per_call, "cpu_per_wall": cpu_per_wall, "bytes": moved}


def amplitude_cost(pulse) -> float:
    """One `PulseSchedule.amplitude` evaluation at a scalar time."""
    ts = np.linspace(pulse.t_start, pulse.t_end, 997)
    return _per_call(lambda i: pulse.amplitude(float(ts[i % ts.size]), 1.0, 0.1), 2000, 0.1)


def _fig4_inputs(eta: float = 0.1):
    from motlight.fock import Operator, coherent_state, destroy, make_space
    from motlight.hamiltonians import AtomCavityParams, build_atom_cavity

    space = make_space(FIG4["dims"])
    p = AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=eta, g0_sq_over_det=0.2,
                         kappa=FIG4["kappa"], g0_EA_over_det=FIG4["eta_drive"] / eta)
    h = build_atom_cavity(p, space)
    c = Operator(space, math.sqrt(FIG4["kappa"]) * destroy(space, 1).mat)
    return space, h, c, coherent_state(space, (FIG4["alpha"], 0.0))


def deriv_cost(tracer, propagate, steps: int = 10) -> float:
    """Seconds per generator application while `propagate()` takes `steps` RK4 steps."""
    calls0, secs0 = tracer.deriv_calls, tracer.deriv_s
    propagate(steps)
    calls = tracer.deriv_calls - calls0
    if calls == 0:
        raise RuntimeError("no generator applications were counted")
    return (tracer.deriv_s - secs0) / calls


def master_deriv(tracer) -> float:
    """One `evolve_master` derivative on the master workload's fig4 operator (eta 0.1)."""
    from motlight.dynamics import IntegratorConfig, evolve_master

    _, h, c, psi0 = _fig4_inputs()
    rho0, dt = psi0.projector(), 1e-3
    return deriv_cost(tracer, lambda n: evolve_master(
        h, [c], rho0, 0.0, n * dt, config=IntegratorConfig(dt=dt)))


def cascade_deriv(tracer) -> float:
    """One `evolve_adiabatic_cascade` derivative at the master workload's cascade size."""
    from motlight.dynamics import evolve_adiabatic_cascade
    from motlight.fock import fock_state, make_space
    from motlight.pulses import PulseSchedule

    space = make_space(CASCADE["dims"])
    p1, p2 = PulseSchedule.pair(CASCADE["gamma"], halfwidth=CASCADE["window"])
    rho0, dt = fock_state(space, (1, 0)).projector(), 1.0
    return deriv_cost(tracer, lambda n: evolve_adiabatic_cascade(
        space, p1.rate, p2.rate, rho0, p1.t_start, p1.t_start + n * dt, dt=dt))


def calibrated_fidelity() -> float:
    """`fidelity_phase_calibrated` on the transfer workload's space and state."""
    from motlight.analysis import fidelity_phase_calibrated
    from motlight.fock import StateVector, make_space, truncated_phase_state

    space = make_space((18, 4, 4, 18))
    target = truncated_phase_state(space, 10, mode=3)
    n = np.arange(space.dims[3])
    amps = target.amplitudes.reshape(space.dims) * np.exp(-0.07j * n)
    psi = StateVector(space, amps)
    return _per_call(lambda i: fidelity_phase_calibrated(psi, target, mode=3), 5, 0.1)


def fig4_sample_costs() -> dict:
    """The per-sample work of fig4 on its density matrix: partial trace, reference, fidelity."""
    from motlight.analysis import fidelity_mixed, reference_decayed_coherent
    from motlight.fock import partial_trace

    _, _, _, psi0 = _fig4_inputs()
    rho = psi0.projector()
    rho_x = partial_trace(rho, (1,))
    gamma = FIG4["eta_drive"] ** 2 / FIG4["kappa"]
    ref = reference_decayed_coherent(FIG4["alpha"], 0.0, gamma, 0.5, rho_x.space)
    return {
        "partial_trace_s": _per_call(lambda i: partial_trace(rho, (1,)), 20, 0.1),
        "reference_s": _per_call(lambda i: reference_decayed_coherent(
            FIG4["alpha"], 0.0, gamma, 0.01 * i, rho_x.space), 20, 0.1),
        "fidelity_mixed_s": _per_call(lambda i: fidelity_mixed(rho_x, ref), 20, 0.1),
    }


def run_all(tracer) -> dict:
    from motlight.pulses import PulseSchedule

    out = {}
    if tracer.operators:
        op, state = max(tracer.operators,
                        key=lambda os_: sum(t.matrix.nnz for t in os_[0].terms))
        out.update(apply_cost(op, state))
    pulse = tracer.pulses[0][0] if tracer.pulses else PulseSchedule.pair(0.64)[0]
    out["amplitude_s"] = amplitude_cost(pulse)
    out["master_deriv_s"] = master_deriv(tracer)
    out["cascade_deriv_s"] = cascade_deriv(tracer)
    out["calibrated_fidelity_s"] = calibrated_fidelity()
    out.update(fig4_sample_costs())
    return out
