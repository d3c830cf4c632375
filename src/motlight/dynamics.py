"""Time evolution: fixed-step RK4, master equations, and quantum trajectories.

The unravelling convention matches a master equation with dissipator
D[C]rho = 2 C rho C† - C†C rho - rho C†C (so a cavity amplitude decays as
e^{-kappa t} and the photon number as e^{-2 kappa t} for C = sqrt(kappa) a).
The effective Hamiltonian then carries the anti-Hermitian part -i C†C, the
squared norm of an unnormalized trajectory decays as d|psi|^2/dt =
-2 <C†C>, and jumps occur with probability density 2 <C†C>.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .fock import DensityMatrix, FockSpace, StateVector, destroy
from .parallel import processes, run_jobs
from .timedep import Term, TimeDependentOperator, excitation_blocks

__all__ = [
    "IntegratorConfig",
    "evolve_schrodinger",
    "evolve_master",
    "effective_hamiltonian",
    "evolve_adiabatic_cascade",
    "mcwf_ensemble",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    dt = 2 pi / max(omega_max, |A_c|_1) / steps_per_period, A_c the constant
    part (the sparse term with no envelope and omega = 0, whose 1-norm the
    diagonal frame keeps at every t), so a no-jump H_eff's decay is resolved.
    """

    steps_per_period: int = 40
    dt: float | None = None  # explicit override; bypasses both rules

    def __post_init__(self):
        if self.dt is None and self.steps_per_period < 20:
            raise ValueError("steps_per_period below 20 under-resolves the fastest phase")

    def time_step(self, h) -> float:
        """The RK4 step for the generator h, a TimeDependentOperator."""
        if self.dt is not None:
            return self.dt
        # a copy: abs() would sum the term's duplicates in place, reordering the apply's sums
        constant = [float(abs(t.matrix.copy()).sum(axis=0).max()) for t in h.terms
                    if t.factors is None and t.envelope is None and t.omega == 0.0]
        scale = max([h.max_frequency, *constant])
        if scale == 0.0:
            raise ValueError("cannot infer a time step for a zero generator; pass dt")
        return 2.0 * math.pi / scale / self.steps_per_period

    def cascade_step(self, rate1, rate2, t0: float, t1: float) -> float:
        """The adiabatic cascade's RK4 step, 2 / max(G1, G2) / steps_per_period
        over [t0, t1]: 0.05 / max(G1, G2) at the default 40."""
        if self.dt is not None:
            return self.dt
        # rates are monotone over the window: each peaks at t0 or t1
        peak = max(1e-12, *(abs(float(rate(t))) for rate in (rate1, rate2) for t in (t0, t1)))
        return 2.0 / self.steps_per_period / peak


def _rk4_step(deriv, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """y + dt/6 (k1 + 2 k2 + 2 k3 + k4), bitwise as written, y left unchanged.

    Every stage's input is built in one scratch array and the stages are
    summed into k2, so `deriv(t, y)` must return a fresh array that holds
    no reference to its input: the step overwrites it.
    """
    half = 0.5 * dt
    k1 = deriv(t, y)
    stage = np.multiply(half, k1)
    stage += y
    k2 = deriv(t + half, stage)
    np.multiply(half, k2, out=stage)
    stage += y
    k3 = deriv(t + half, stage)
    np.multiply(dt, k3, out=stage)
    stage += y
    k4 = deriv(t + dt, stage)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def _schrodinger_deriv(apply):
    """The derivative -i H(t) y, given H's apply, which returns a fresh array."""
    def deriv(t, y):
        dy = apply(t, y)
        dy *= -1j
        return dy

    return deriv


def _sample_grid(t0: float, t1: float, sample_times) -> np.ndarray:
    if t1 < t0:
        raise ValueError(f"the time interval is reversed: t1 = {t1} < t0 = {t0}")
    if sample_times is None:
        return np.array([t0, t1], dtype=float)
    ts = np.asarray(sample_times, dtype=float)
    if ts.size == 0 or ts[0] < t0 - 1e-12 or ts[-1] > t1 + 1e-12:
        raise ValueError("sample_times must lie within [t0, t1]")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("sample_times must be strictly increasing")
    if abs(ts[0] - t0) > 1e-12:
        ts = np.concatenate(([t0], ts))
    if t1 - ts[-1] > 1e-12:
        ts = np.concatenate((ts, [t1]))
    return ts


def _samples(step, y: np.ndarray, ts: np.ndarray, dt: float):
    """Yield y at every time of the grid ts.

    Each gap is ceil(gap / dt) equal steps y = step(t, y, h), none for a gap
    of zero length: the one propagation loop of states, density matrices
    and trajectory blocks.  A dt that is not finite and positive raises
    ValueError.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"the step dt must be finite and positive, got {dt}")
    yield y
    for ta, tb in zip(ts[:-1], ts[1:]):
        n = math.ceil((tb - ta) / dt)
        h = (tb - ta) / max(n, 1)
        t = ta
        for _ in range(n):
            y = step(t, y, h)
            t += h
        yield y


def evolve_schrodinger(
    h,
    psi0: StateVector,
    t0: float,
    t1: float,
    config: IntegratorConfig = IntegratorConfig(),
    sample_times=None,
    excitation_cap: int | None = None,
):
    """Integrate i d psi/dt = H(t) psi.

    Returns (times, list of StateVector).  H may be non-Hermitian: under a
    no-jump H_eff the states are unnormalized and the squared norm is the
    no-jump survival probability.  A squared norm below 1e-14, not finite
    or above twice psi0's at any sample raises IntegrationError.

    Each block that `excitation_blocks([h], ...)` gives for psi0 evolves
    alone under H restricted to it, at H's step, as a job of `run_jobs`,
    and every sample is their sum on the whole space: bitwise the state
    that the whole space would give.  Given excitation_cap, each block keeps
    only its states of total excitation up to the cap, which psi0 must not
    exceed; the cap drops H's entries between kept and dropped states, so
    it is exact only where the state leaves no population above the cap.
    """
    if h.space != psi0.space:
        raise ValueError("state and Hamiltonian live on different spaces")
    ts = _sample_grid(t0, t1, sample_times)
    dt = config.time_step(h)
    psi = np.array(psi0.amplitudes, dtype=complex)
    sectors = list(excitation_blocks([h], psi != 0, excitation_cap).values())
    if not sectors:
        samples = _schrodinger_samples(h, psi, ts, dt)
    else:
        parts = run_jobs(functools.partial(_sector_samples, h, keep, psi[keep], ts, dt)
                         for keep in sectors)
        samples = (_scattered(psi.size, sectors, ys) for ys in zip(*parts))
    states, limit = [], 2.0 * _norm_sq(psi)
    for y in samples:
        _check_norm(_norm_sq(y), limit)
        states.append(StateVector(psi0.space, y))
    return ts, states


def _schrodinger_samples(h, y: np.ndarray, ts: np.ndarray, dt: float):
    deriv = _schrodinger_deriv(h.apply)
    return _samples(lambda t, y, dt: _rk4_step(deriv, t, y, dt), y, ts, dt)


def _sector_samples(h, keep, y, ts, dt) -> list[np.ndarray]:
    """The samples of y under h restricted to the basis states keep."""
    return list(_schrodinger_samples(h.restricted(keep), y, ts, dt))


def _scattered(dim: int, sectors, parts) -> np.ndarray:
    """The vector on the whole space that holds parts[k] on the states sectors[k]."""
    y = np.zeros(dim, dtype=complex)
    for keep, part in zip(sectors, parts):
        y[keep] = part
    return y


# ---------------------------------------------------------------------------
# master equations (dense; intended for modest dimensions)


def _evolve_lindblad(h_eff: TimeDependentOperator, collapse, rho0: DensityMatrix, ts, dt):
    """Sample the master equation with dissipator D[C]rho = 2 C rho C† - C†C rho - rho C†C.

    h_eff(t) = H(t) - i sum_k C_k†(t) C_k(t).  With X = -i h_eff rho the
    generator is X + X† + 2 sum_k C_k (C_k rho)†, which uses left products
    only and holds for Hermitian rho.  It is evaluated as Y + Y† with
    Y = X + sum_k C_k (C_k rho)†, so every RK4 stage stays exactly Hermitian.

    rho evolves on the union of the blocks that `excitation_blocks` gives
    for h_eff and the C_k from the states rho0 occupies (its coherences join
    the blocks), restricted to it, and every sample is scattered back: the
    operators map that span into itself, so the entries outside it stay
    exactly zero on the whole space.  A sample whose Frobenius norm is not
    finite or above 2 |tr rho0| raises IntegrationError.
    """
    if rho0.hermiticity_defect() > 1e-12:
        raise ValueError("rho0 must be Hermitian")
    space, dim = rho0.space, rho0.space.dim
    entries = np.asarray(rho0.entries, dtype=complex)
    ops, n, block = [h_eff, *collapse], dim, np.s_[:, :]
    blocks = excitation_blocks(ops, np.any(entries != 0, axis=0) | np.any(entries != 0, axis=1))
    if blocks:
        keep = np.sort(np.concatenate(list(blocks.values())))
        ops, n, block = [op.restricted(keep) for op in ops], keep.size, np.ix_(keep, keep)
    h_apply, *c_applies = [op.apply for op in ops]
    limit = 4.0 * abs(entries.trace()) ** 2  # of the squared Frobenius norm
    c_rho_h = np.empty((n, n), dtype=complex)  # (C rho)†, reused by every C and call

    def deriv(t, r):
        r = r.reshape(n, n)
        y = h_apply(t, r)
        y *= -1j
        for c in c_applies:
            np.conjugate(c(t, r).T, out=c_rho_h)
            y += c(t, c_rho_h)
        y_h = np.conjugate(y.T, out=np.empty_like(y))  # Y†, in C order
        y_h += y
        return y_h.reshape(-1)

    def scattered(y) -> DensityMatrix:
        if not _norm_sq(y) <= limit:
            raise IntegrationError("the density matrix diverged: dt is past RK4's limit")
        y = y.reshape(n, n)
        out = np.zeros((dim, dim), dtype=complex)
        out[block] = y
        return DensityMatrix(space, out)

    step = lambda t, y, dt: _rk4_step(deriv, t, y, dt)  # noqa: E731
    return ts, [scattered(y) for y in _samples(step, entries[block].reshape(-1), ts, dt)]


def _decay(h, ops) -> list[Term]:
    """The decay -i C†C of each C in ops.  C is applied without h's frame
    phase, so a C†C that oscillates in the frame, as (b + b†)^2 does, raises
    ValueError."""
    decay = [Term(-1j * (c.mat.getH() @ c.mat)) for c in ops]
    if any(d.max_frequency(h.space, h.freqs) > 0 for d in decay):
        raise ValueError("an operator's C†C oscillates in the Hamiltonian's frame")
    return decay


def effective_hamiltonian(h, collapse_ops) -> TimeDependentOperator:
    """H_eff = H - i sum_k C_k†C_k in H's frame: the generator that
    `evolve_master` integrates, and whose `IntegratorConfig.time_step` it takes."""
    return TimeDependentOperator(h.space, h.terms + _decay(h, collapse_ops), h.freqs)


def evolve_master(
    h,
    collapse_ops,
    rho0: DensityMatrix,
    t0: float,
    t1: float,
    config: IntegratorConfig = IntegratorConfig(),
    sample_times=None,
):
    """Integrate the Lindblad-form master equation with dissipator
    D[C]rho = 2 C rho C† - C†C rho - rho C†C for static collapse operators.

    Returns (times, list of DensityMatrix).  rho0 must be Hermitian.  The
    step is that of the H_eff = H - i sum C†C it integrates, so the decay
    is resolved.

    The decay -i C†C joins h's frame, and C is applied without its phase,
    so `_decay` refuses a C†C that oscillates there.  The density matrix is
    dense but the Hamiltonian terms and collapse operators stay sparse, so
    the cost per step scales with nnz(H) * dim.
    """
    dim = h.space.dim
    if dim > 1200:
        warnings.warn(f"master equation at dim {dim}; memory is dim^2 complex", RuntimeWarning)
    h_eff = effective_hamiltonian(h, collapse_ops)
    return _evolve_lindblad(h_eff, collapse_ops, rho0, _sample_grid(t0, t1, sample_times),
                            config.time_step(h_eff))


def evolve_adiabatic_cascade(
    space: FockSpace,
    rate1,
    rate2,
    rho0: DensityMatrix,
    t0: float,
    t1: float,
    delta_phi: float = 0.0,
    sample_times=None,
    dt: float | None = None,
):
    """Two-motional-mode master equation after adiabatic cavity elimination.

    Mode 0 is the emitting motional mode (time-dependent decay rate
    rate1(t) = G1), mode 1 the receiving one (rate2(t) = G2); negative
    rates are clamped to 0.  This is the cascaded master equation with the
    single collapse operator C = sqrt(G1) b1 - e^{i dphi} sqrt(G2) b2 and

        H_eff = -i G1 n1 - i G2 n2 + 2i sqrt(G1 G2) e^{-i dphi} b2† b1,

    dphi the difference of the two drive phases; with matched sigmoid
    pulses it transfers an arbitrary mode-0 state onto mode 1 exactly.
    The step is dt if given, else `IntegratorConfig().cascade_step`.
    """
    if space.nmodes != 2:
        raise ValueError("adiabatic cascade needs a two-mode space")
    b1 = destroy(space, 0).mat
    b2 = destroy(space, 1).mat
    ph = np.exp(1j * delta_phi)

    g1 = lambda t: max(float(rate1(t)), 0.0)  # noqa: E731
    g2 = lambda t: max(float(rate2(t)), 0.0)  # noqa: E731
    h_eff = TimeDependentOperator(space, [
        Term(-1j * (b1.getH() @ b1), envelope=g1),
        Term(-1j * (b2.getH() @ b2), envelope=g2),
        Term(2j * np.conj(ph) * (b2.getH() @ b1), envelope=lambda t: math.sqrt(g1(t) * g2(t))),
    ])
    collapse = TimeDependentOperator(space, [
        Term(b1, envelope=lambda t: math.sqrt(g1(t))),
        Term(-ph * b2, envelope=lambda t: math.sqrt(g2(t))),
    ])
    dt = IntegratorConfig(dt=dt).cascade_step(rate1, rate2, t0, t1)
    return _evolve_lindblad(h_eff, [collapse], rho0, _sample_grid(t0, t1, sample_times), dt)


# ---------------------------------------------------------------------------
# Monte Carlo wave function trajectories


def _trajectory_samples(h_eff, jump_ops, psi0: StateVector, ts, config, rngs):
    """The (dim, len(rngs)) block of trajectories at every time of ts, and
    each one's jump times.

    Column j is the trajectory drawn from rngs[j], the same whatever the
    other columns are.
    """
    deriv = _schrodinger_deriv(h_eff.apply)
    dt = config.time_step(h_eff)
    jump_mats = [op.mat for op in jump_ops]
    u = [psi0.norm ** 2 * rng.random() for rng in rngs]  # later draws follow a norm-1 jump
    jump_times = [[] for _ in rngs]

    def step(t, y, h):
        """One RK4 step of the block from t to t + h; every column ends it at t + h."""
        y_new = _rk4_step(deriv, t, y, h)
        after = _columns(y_new)
        hit = [j for j, col in enumerate(after) if _norm_sq(col) <= u[j]]
        if hit:
            before = _columns(y)
            for j in hit:
                y_new[:, j] = jump_within(j, t, before[j], after[j], t + h)
        return y_new

    def jump_within(j, t, y, y_end, t_end):
        """Trajectory j at t_end from y at t, when y_end, its no-jump state at
        t_end, is at or below its draw: make the jump, draw anew, then step
        alone from the jump to t_end, as often as the column jumps again."""
        while True:
            t, y = _locate_jump(deriv, t, y, y_end, t_end - t, u[j])
            y = _apply_jump(jump_mats, y, rngs[j])
            jump_times[j].append(t)
            u[j] = rngs[j].random()
            if t >= t_end:
                return y
            y_end = _rk4_step(deriv, t, y, t_end - t)
            if _norm_sq(y_end) > u[j]:
                return y_end

    y0 = np.repeat(np.asarray(psi0.amplitudes, dtype=complex)[:, None], len(rngs), axis=1)
    return list(_samples(step, y0, ts, dt)), jump_times


def _columns(y: np.ndarray) -> np.ndarray:
    """The columns of a block as contiguous rows: a reduction over one then
    runs as it does on a lone vector, whatever the block's width."""
    return np.ascontiguousarray(y.T)


def _norm_sq(y: np.ndarray) -> float:
    return float(np.vdot(y, y).real)


def _check_norm(n: float, limit: float) -> float:
    """The squared norm n, refused if it is not finite, above limit or below 1e-14."""
    if not n <= limit:
        raise IntegrationError(
            f"the state diverged (|psi|^2 = {n}, bound {limit}): dt is past RK4's limit")
    if n < 1e-14:
        raise IntegrationError(
            "trajectory norm underflow (survival probability < 1e-14); "
            "the no-jump branch is numerically exhausted"
        )
    return n


def _locate_jump(deriv, t: float, y: np.ndarray, y_end: np.ndarray, step: float, u: float):
    """The time in (t, t + step] where |psi|^2 falls to u, and psi there, from
    the step's ends y and y_end, |y|^2 > u >= |y_end|^2.  Under H_eff the norm
    falls almost exponentially across a step: the exponential through both
    ends places the crossing, one RK4 step reads the norm m there, and the
    exponential through m and the end across u from it places it again.  Each
    log ratio lies in (0, 1], so the time stays in the step."""
    n0, n1 = _norm_sq(y), _norm_sq(y_end)
    s = step * math.log(n0 / u) / math.log(n0 / n1)
    m = _norm_sq(_rk4_step(deriv, t, y, s))
    if m > u:
        s += (step - s) * math.log(m / u) / math.log(m / n1)
    else:
        s *= math.log(n0 / u) / math.log(n0 / m)
    return t + s, _rk4_step(deriv, t, y, s)


def _apply_jump(jump_mats, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    candidates = [m @ y for m in jump_mats]
    weights = np.array([_norm_sq(c) for c in candidates])
    total = weights.sum()
    if total <= 0:
        raise IntegrationError("jump triggered but all jump channels annihilate the state")
    k = int(rng.choice(len(candidates), p=weights / total))
    c = candidates[k]
    return c / math.sqrt(_norm_sq(c))


def mcwf_ensemble(
    h_eff,
    jump_ops,
    psi0: StateVector,
    t0: float,
    t1: float,
    ntraj: int,
    seed=None,
    config: IntegratorConfig = IntegratorConfig(),
    sample_times=None,
):
    """Average ntraj quantum trajectories under the non-Hermitian h_eff into
    density matrices at the sample times; returns (times, rhos, jump times
    of each trajectory).

    Each trajectory follows the waiting-time algorithm: draw u uniform, jump
    when the no-jump probability |psi|^2 / |psi0|^2 falls to u, renormalize
    and draw anew (from then on against 1).  The jump time is where an
    exponential through the norms at the ends of the step that crossed the
    draw meets it, refined once (`_locate_jump`): two RK4 steps a jump, and
    within 5e-3 dt of a bisection to 1e-9 dt (README, numerical notes).
    Seeding uses numpy SeedSequence spawning, so results are reproducible
    for a given (seed, ntraj) and independent across trajectories.  The
    trajectories are stepped together as the columns of one block, each with
    its own child generator, and take the steps of evolve_schrodinger.  A
    column that jumps within a block step is finished from its jump time by
    one step of its own (and again from each further jump), so it is back on
    the block's grid at the end of that step; one that never jumps is
    evolve_schrodinger under h_eff.

    A column does not depend on the others in its block, so the trajectories
    are split into contiguous groups, one job of `run_jobs` each, as many as
    the processes it would run.  Each sample joins their blocks in column
    order into W and divides out each column's squared norm, taken once and
    refused above 2 max(1, |psi0|^2): rho, the Hermitian part of W W† / ntraj,
    is bitwise that of one block.  The jump operators are applied without
    h_eff's frame phase, so `_decay` refuses one whose C†C oscillates there.
    """
    if ntraj < 1:
        raise ValueError("ntraj must be at least 1")
    _decay(h_eff, jump_ops)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(ntraj)]
    ts = _sample_grid(t0, t1, sample_times)
    groups = processes(ntraj)
    bounds = [ntraj * k // groups for k in range(groups + 1)]
    parts = run_jobs(functools.partial(_trajectory_samples, h_eff, jump_ops, psi0, ts, config,
                                       rngs[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
    limit = 2.0 * max(1.0, _norm_sq(psi0.amplitudes))  # a jump renormalizes a column to 1
    rhos = []
    for blocks in zip(*(blocks for blocks, _ in parts)):
        w = np.concatenate(blocks, axis=1)
        w /= np.sqrt([_check_norm(_norm_sq(col), limit) for col in _columns(w)])
        rho = w @ w.conj().T  # BLAS's blocked product is Hermitian only to rounding
        rhos.append(DensityMatrix(psi0.space, (rho + rho.conj().T) / (2 * ntraj)))
    return ts, rhos, [j for _, jumps in parts for j in jumps]
