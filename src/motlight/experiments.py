"""Config-driven experiment runners and artifact writing.

Each runner reproduces one of the package's headline computations:

  table1          two-mode squeezed state preparation fidelities
  fig4            damped coherent-state dynamics of one atom-cavity site (figs 4-5)
  table2..table5  no-jump state transfer through the cascaded channel
  cascade_ideal   adiabatic two-mode cascade transfer vs. pulse window
  collective_demo delocalized target states from the effective beamsplitter

Results go to <experiment>.csv with a <experiment>.meta.json sidecar carrying
parameters and each row's convergence record (see _measured).  A runner's
rows (fig4: its etas; cascade_ideal: its (window, input) pairs) are
independent jobs of `parallel.run_jobs`; table1 and the transfer tables
give each row's estimated cost, so their costliest rows are taken first.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    epr_variance,
    fidelity_mixed,
    fidelity_phase_calibrated,
    fidelity_pure,
    lamb_dicke_validity,
    reference_decayed_coherent,
)
from .dynamics import (
    IntegratorConfig,
    effective_hamiltonian,
    evolve_adiabatic_cascade,
    evolve_master,
    evolve_schrodinger,
    mcwf_ensemble,
)
from .fock import (
    Operator,
    StateVector,
    TruncationWarning,
    cat_state,
    coherent_state,
    destroy,
    expectation,
    fock_state,
    make_space,
    partial_trace,
    truncated_phase_state,
    two_mode_squeezed_state,
)
from .hamiltonians import (
    AtomCavityParams,
    TwoModeDriveParams,
    build_atom_cavity,
    build_cascaded_effective,
    build_two_mode_drive,
    chi_coupling,
    effective_mixer,
)
from .parallel import run_jobs
from .pulses import DEFAULT_WINDOW_HALFWIDTH, PulseSchedule
from .timedep import excitation_blocks

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ResultRow",
    "run_table1",
    "run_fig4_fig5",
    "run_transfer_tables",
    "run_cascade_ideal",
    "run_delocalized_targets",
    "run_experiment",
    "write_outputs",
]


@dataclass
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically."""

    experiment: str
    schema_version: int = SCHEMA_VERSION
    seed: int | None = None
    dims: list[int] | None = None
    steps_per_period: int = 40
    exact_trig: bool = False
    jumps: bool = False
    ntraj: int = 1
    out_dir: str = "."
    strict: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version {self.schema_version} != supported {SCHEMA_VERSION}"
            )
        # held as the JSON that meta.json records, so a config reads back equal
        self.dims, self.params = _json_form("dims", self.dims), _json_form("params", self.params)
        integer = lambda v: isinstance(v, int) and not isinstance(v, bool)  # noqa: E731
        for name, kind, ok in (
            ("seed", "an integer or null", self.seed is None or integer(self.seed)),
            ("ntraj", "an integer", integer(self.ntraj)),
            ("steps_per_period", "an integer", integer(self.steps_per_period)),
            *((flag, "true or false", isinstance(getattr(self, flag), bool))
              for flag in ("exact_trig", "jumps", "strict")),
            ("dims", "a non-empty list of integers or null", self.dims is None
             or isinstance(self.dims, list) and self.dims and all(map(integer, self.dims))),
            ("params", "an object", isinstance(self.params, dict)),
            ("out_dir", "a string", isinstance(self.out_dir, str)),
        ):
            if not ok:
                raise ValueError(f"config field {name} must be {kind}, got {getattr(self, name)!r}")
        if self.ntraj < 1:
            raise ValueError("ntraj must be >= 1")
        self.integrator()  # refuses too few steps per period before any row runs
        # a setting the experiment's runner never reads would be recorded as if used
        transfer = self.experiment in TRANSFER_TABLES
        unread = [name for name, is_set, read in (
            ("exact_trig", self.exact_trig, transfer or self.experiment == "fig4"),
            ("jumps", self.jumps, transfer),
            ("ntraj", self.ntraj != 1, transfer and self.jumps),
            ("seed", self.seed is not None, transfer and self.jumps),
        ) if is_set and not read]
        if unread:
            raise ValueError(f"{self.experiment} does not read " + ", ".join(
                f"{name} (--{name.replace('_', '-')})" for name in unread)
                + (" without --jumps on" if transfer else ""))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(steps_per_period=self.steps_per_period)


@dataclass
class ResultRow:
    """One output record: inputs echoed, scalars computed, convergence noted."""

    params: dict
    results: dict
    convergence: dict

    def flat(self) -> dict:
        out = dict(self.params)
        out.update(self.results)
        out.update({f"conv_{k}": v for k, v in self.convergence.items()})
        return out


@contextlib.contextmanager
def _measured(config: ExperimentConfig, dims, dt: float):
    """The convergence record of one row, made around building and integrating it.

    Yields a dict holding the row's dims, the step dt that config's
    integrator gave the row and config's steps_per_period, which set it.  On
    exit it adds runtime_s and the number of TruncationWarnings raised
    inside, states included, then hands each caught warning on to the
    caller's filters, so that an outer catcher such as the CLI's --strict
    still sees it.  A runner adds only its own keys.
    """
    conv = {"dims": "x".join(str(d) for d in dims), "dt": dt,
            "steps_per_period": config.steps_per_period}
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        yield conv
    conv["runtime_s"] = round(time.perf_counter() - t0, 2)
    conv["truncation_warnings"] = sum(issubclass(w.category, TruncationWarning) for w in caught)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)


def _json_form(name: str, value):
    """value as json.dump writes and json.load reads it back: tuples become lists."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {name} cannot be held in JSON: {exc}") from None


def _params(config: ExperimentConfig, **defaults) -> dict:
    """config.params over a runner's defaults; a key the runner does not read, a value
    not shaped like its default (`_shaped_like`), or an empty list of what to run (a
    list default: rows, etas, windows) raises."""
    unknown = sorted(set(config.params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {config.experiment} params {unknown}; "
                         f"known: {sorted(defaults)}")
    for name, value in config.params.items():
        if not _shaped_like(value, defaults[name]):
            raise ValueError(f"{config.experiment} param {name} must be shaped like its "
                             f"default {json.dumps(defaults[name])}, got {value!r}")
        if value == []:
            raise ValueError(f"{config.experiment} param {name} is empty: nothing would run")
    return {**defaults, **config.params}


def _shaped_like(value, default) -> bool:
    """Whether a JSON value has the shape of a default: a number (no bool) for a number, a
    string for a string, a list of elements shaped like default[0] for a list, and a list
    shaped position by position for a tuple (a row, a state)."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_shaped_like, value, default)))
    if isinstance(default, list):
        return isinstance(value, list) and all(_shaped_like(v, default[0]) for v in value)
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(config: ExperimentConfig, what: str, value, least: int) -> int:
    """value if it is an integer (`_shaped_like` refuses a bool) of at least `least`."""
    if not (isinstance(value, int) and value >= least):
        raise ValueError(f"{config.experiment} param {what} must be an integer >= {least}, "
                         f"got {value!r}")
    return value


# ---------------------------------------------------------------------------
# table 1: two-mode squeezed state preparation

TABLE1_ROWS = [
    # (eta', nu_x, nu_z, chi, r, paper F)
    (0.1, 1.0, 3.0, 0.004, 1.0, 0.991),
    (0.1, 1.0, 3.0, 0.004, 1.5, 0.932),
    (0.1, 1.0, 4.0, 0.004, 1.5, 0.955),
    (0.0707, 1.0, 3.0, 0.002, 1.0, 0.996),
    (0.0707, 1.0, 3.0, 0.002, 1.5, 0.975),
    (0.0707, 1.0, 4.0, 0.002, 1.5, 0.986),
    (0.0577, 1.0, 3.0, 0.00133, 1.0, 0.998),
    (0.0577, 1.0, 3.0, 0.00133, 1.5, 0.987),
    (0.0577, 1.0, 4.0, 0.00133, 1.5, 0.994),
]


def run_table1(config: ExperimentConfig) -> list[ResultRow]:
    """Drive the full two-mode Hamiltonian and compare against the ideal
    two-mode squeezed state of r = chi T."""
    dims = tuple(config.dims) if config.dims else (48, 48)
    prm = _params(config, rows=TABLE1_ROWS)
    for eta_p, nu_x, nu_z, chi, _, _ in prm["rows"]:  # before the divisions by eta' and chi
        if not chi > 0:
            raise ValueError(f"table1 row chi must be positive, got {chi!r}")
        TwoModeDriveParams(nu_x, nu_z, eta_p, eta_p, 0.0, nu_x + nu_z)  # its range checks
    space = make_space(dims)

    def row(eta_p, nu_x, nu_z, chi, r, expected) -> ResultRow:
        eps_sq = chi / (4.0 * eta_p * eta_p)
        p = TwoModeDriveParams(
            nu_x=nu_x,
            nu_z=nu_z,
            eta_x_p=eta_p,
            eta_z_p=eta_p,
            drive_strength_sq_over_det=eps_sq,
            delta_21=nu_x + nu_z,
            phi=-math.pi / 2.0,
        )
        h = build_two_mode_drive(p, space)
        t_final = r / chi_coupling(p)
        with _measured(config, dims, config.integrator().time_step(h)) as conv:
            psi0 = fock_state(space, (0,) * space.nmodes)
            _, states = evolve_schrodinger(h, psi0, 0.0, t_final, config=config.integrator())
            target = two_mode_squeezed_state(space, r)
            final = states[-1].normalized()
            conv["top_level_pop"] = final.top_level_population()
        return ResultRow(
            params={"eta_p": eta_p, "nu_x": nu_x, "nu_z": nu_z, "chi": chi, "r": r},
            results={
                "fidelity": fidelity_pure(final, target),
                "expected": expected,
                "norm_drift": abs(states[-1].norm ** 2 - 1.0),
                "epr_variance": epr_variance(final),
                "epr_variance_target": epr_variance(target),
            },
            convergence={**conv, **_regime(target, eta_p)},
        )

    # steps go as t_final * omega_max, t_final = r / chi and omega_max as nu_x + nu_z
    return run_jobs((functools.partial(row, *spec) for spec in prm["rows"]),
                    costs=[r * (nu_x + nu_z) / chi for _, nu_x, nu_z, chi, r, _ in prm["rows"]])


def _regime(state, eta, nu=None, kappa=None, omega_max=None) -> dict:
    """Regime-of-validity figures of one row.

    lamb_dicke_lhs is lamb_dicke_validity(eta, nbar, sigma) with nbar and
    sigma the mean and spread of mode 0's population in `state`.  Given the
    trap frequency nu, the cavity decay kappa and the peak coupling
    omega_max = eta * (g0 E_A / Delta)_max, it adds the rotating-wave ratios
    nu/kappa and nu/omega_max and the adiabaticity omega_max/kappa.
    """
    pop = state.mode_population(0)
    n = np.arange(pop.size)
    nbar = float(pop @ n)
    sigma = math.sqrt(max(float(pop @ n**2) - nbar**2, 0.0))
    out = {"lamb_dicke_lhs": lamb_dicke_validity(eta, nbar, sigma)}
    if nu is not None:
        out.update(rwa_nu_over_kappa=nu / kappa, rwa_nu_over_omega=nu / omega_max,
                   adiabaticity=omega_max / kappa)
    return out


# ---------------------------------------------------------------------------
# figs 4-5: damped coherent state of one atom-cavity site (the fig4 experiment)


def run_fig4_fig5(config: ExperimentConfig) -> list[ResultRow]:
    """Master-equation decay of a coherent motional state through the cavity.

    Emits |<b_x>|, 10*|<a>|, the rotating-frame fidelity f(t) against the
    ideal decayed coherent state, and the analytic amplitude reference.
    """
    dims = tuple(config.dims) if config.dims else (40, 5)
    prm = _params(config, etas=[0.1, 0.15], alpha=math.sqrt(10.0), t_final=200.0,
                  nsamples=101, kappa=1.0, eta_drive=0.1)  # eta_drive = eta * g0 E_A / Delta
    alpha, t_final, kappa, eta_drive = prm["alpha"], prm["t_final"], prm["kappa"], prm["eta_drive"]
    space = make_space(dims)
    a_op = destroy(space, 1)
    b_op = destroy(space, 0)
    ts = np.linspace(0.0, t_final, _count(config, "nsamples", prm["nsamples"], 2))
    truncation = "exact" if config.exact_trig else "third_order"
    for eta in prm["etas"]:  # the site's range checks, before eta_drive / eta
        AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=eta, g0_sq_over_det=0.2, kappa=kappa)

    def rows(eta) -> list[ResultRow]:
        p = AtomCavityParams(
            nu_x=10.0,
            delta_cA=10.0,
            eta_x=eta,
            g0_sq_over_det=0.2,
            kappa=kappa,
            g0_EA_over_det=eta_drive / eta,
        )
        gamma = (eta_drive**2) / kappa
        h = build_atom_cavity(p, space, truncation=truncation)
        c_op = Operator(space, math.sqrt(kappa) * a_op.mat)
        dt = config.integrator().time_step(effective_hamiltonian(h, [c_op]))
        with _measured(config, dims, dt) as conv:
            psi0 = coherent_state(space, (alpha, 0.0))
            times, rhos = evolve_master(
                h, [c_op], psi0.projector(), 0.0, t_final,
                config=config.integrator(), sample_times=ts,
            )
        regime = _regime(psi0, eta, p.nu_x, kappa, eta_drive)
        out = []
        for t, rho in zip(times, rhos):
            rho_x = partial_trace(rho, (1,))
            ref = reference_decayed_coherent(alpha, 0.0, gamma, t, rho_x.space)
            out.append(
                ResultRow(
                    params={"eta": eta, "t": float(t)},
                    results={
                        "bx_abs": abs(expectation(b_op, rho)),
                        "a_abs_x10": 10.0 * abs(expectation(a_op, rho)),
                        "f": fidelity_mixed(rho_x, ref),
                        "ref_amplitude": alpha * math.exp(-gamma * t),
                    },
                    convergence={**conv, "trace_drift": abs(rho.trace - 1.0), **regime},
                )
            )
        return out

    return [r for rs in run_jobs(functools.partial(rows, eta) for eta in prm["etas"]) for r in rs]


# ---------------------------------------------------------------------------
# tables 2-5: state transfer through the cascaded channel

TRANSFER_TABLES = {
    "table2": {
        "state": ("phase", 10),
        "dims": (18, 4, 4, 18),
        "rows": [
            (0.1, 5.0, 0.65),
            (0.1, 10.0, 0.90),
            (0.1, 20.0, 0.96),
            (0.0707, 5.0, 0.66),
            (0.0707, 10.0, 0.91),
            (0.0707, 20.0, 0.97),
        ],
    },
    "table3": {
        "state": ("phase", 20),
        "dims": (28, 4, 4, 28),
        "rows": [(0.1, 10.0, 0.79), (0.1, 20.0, 0.88), (0.0707, 10.0, 0.84), (0.0707, 20.0, 0.94)],
    },
    "table4": {
        "state": ("fock", 10),
        "dims": (18, 4, 4, 18),
        "rows": [(0.1, 10.0, 0.82), (0.1, 20.0, 0.92), (0.0707, 10.0, 0.85), (0.0707, 20.0, 0.95)],
    },
    "table5": {
        "state": ("cat", math.sqrt(10.0)),
        "dims": (30, 4, 4, 30),
        "rows": [(0.1, 10.0, 0.81), (0.1, 20.0, 0.91), (0.0707, 10.0, 0.85), (0.0707, 20.0, 0.95)],
    },
}


def _transfer_state(kind, arg, space, mode):
    """The state named by (kind, arg) in one mode of space, the vacuum in the others."""
    if kind == "phase":
        return truncated_phase_state(space, arg, mode=mode)
    if kind == "fock":
        occ = [0] * space.nmodes
        occ[mode] = arg
        return fock_state(space, tuple(occ))
    if kind == "cat":
        return cat_state(space, arg, mode=mode)
    if kind == "coherent":
        amps = [0.0] * space.nmodes
        amps[mode] = arg
        return coherent_state(space, tuple(amps))
    raise ValueError(f"unknown transfer state kind {kind!r}")


def run_transfer_tables(config: ExperimentConfig) -> list[ResultRow]:
    """No-jump transfer runs for one of tables 2-5.

    Each row integrates the full cascaded effective Hamiltonian over the
    pulse window and reports the final squared norm (no-jump survival, the
    tabulated quantity) and the renormalized fidelity with the transferred
    target state.  A no-jump row runs the parity sectors that its input
    occupies, each up to the total excitation `_excitation_cap`, and records
    what `excitation_blocks` gave evolve_schrodinger ("even", "odd" or
    "even+odd"; "product" for the whole space, which every jump ensemble
    takes), the number of basis states they hold, the cap, and the final
    state's population in the top shell that a sector keeps (total
    excitation cap - 1 or cap).
    """
    spec = TRANSFER_TABLES[config.experiment]
    # drive_max is g0 E_A^max / Delta_0A; window_halfwidth is the finite
    # integration window in units of 1/Gamma on each side of t = 0,
    # calibrated once against the tabulated no-jump norms and kept fixed
    prm = _params(config, state=spec["state"], rows=spec["rows"], kappa=1.0, drive_max=1.0,
                  window_halfwidth=DEFAULT_WINDOW_HALFWIDTH)
    kind, arg = prm["state"]
    if kind in ("fock", "phase"):
        _count(config, f"state's {kind} level", arg, 0)
    kappa, drive_max, window = prm["kappa"], prm["drive_max"], prm["window_halfwidth"]
    dims = tuple(config.dims) if config.dims else spec["dims"]
    space = make_space(dims)
    truncation = "exact" if config.exact_trig else "third_order"
    # range-checked here, before the costs divide by eta
    sites = [AtomCavityParams(nu_x=nu, delta_cA=nu, eta_x=eta, g0_sq_over_det=0.2, kappa=kappa)
             for eta, nu, _ in prm["rows"]]

    def row(p, expected) -> ResultRow:
        eta, nu = p.eta_x, p.nu_x
        gamma = (eta * drive_max) ** 2 / kappa
        pulses = PulseSchedule.pair(gamma, halfwidth=window)
        h, c_op = build_cascaded_effective(p, pulses, space, truncation=truncation)
        with _measured(config, dims, config.integrator().time_step(h)) as conv:
            psi0 = _transfer_state(kind, arg, space, 0)
            target = _transfer_state(kind, arg, space, space.nmodes - 1)
            cap = _excitation_cap(psi0)
            if config.jumps:
                ts, rhos, jumps = mcwf_ensemble(
                    h, [c_op], psi0, pulses[0].t_start, pulses[0].t_end,
                    ntraj=config.ntraj, seed=config.seed, config=config.integrator(),
                )
                results = {
                    "mean_fidelity": fidelity_mixed(rhos[-1], target),
                    "mean_jumps": float(np.mean([len(j) for j in jumps])),
                    "expected_no_jump_norm": expected,
                }
                final = rhos[-1]
            else:
                _, states = evolve_schrodinger(
                    h, psi0, pulses[0].t_start, pulses[0].t_end, config=config.integrator(),
                    excitation_cap=cap,
                )
                final = states[-1].normalized()
                fid = fidelity_pure(final, target)
                # readout-frame calibration: the off-resonant drive terms leave
                # a deterministic occupation-linear phase on the received state
                fid_cal, slope = fidelity_phase_calibrated(
                    final, target, mode=space.nmodes - 1
                )
                results = {
                    "no_jump_norm": states[-1].norm ** 2,
                    "fidelity": fid,
                    # s = 0 is among the slopes, so the raw overlap is a lower
                    # bound; max() keeps rounding from putting it above
                    "fidelity_calibrated": max(fid_cal, fid),
                    "phase_slope": slope,
                    "expected_no_jump_norm": expected,
                }
            # what evolve_schrodinger ran; the jump ensemble takes the whole space
            sectors = {} if config.jumps else excitation_blocks([h], psi0.amplitudes != 0, cap)
            conv["sectors"] = "+".join(sectors) or "product"
            conv["kept_states"] = sum(map(len, sectors.values())) or space.dim
            if sectors:
                # the top shell of either parity, cap - 1 or cap
                conv["excitation_cap"] = cap
                conv["top_shell_pop"] = float(np.sum(
                    np.abs(final.amplitudes[space.excitations() >= cap - 1]) ** 2))
            conv["top_level_pop"] = final.top_level_population()
        return ResultRow(
            params={"state": f"{kind}:{arg}", "eta_x": eta, "nu_x": nu,
                    "gamma": gamma, "window": 2 * window / gamma},
            results=results,
            convergence={**conv, **_regime(psi0, eta, nu, kappa, eta * drive_max)},
        )

    # steps go as the window 2 halfwidth / Gamma, Gamma ∝ eta^2, times omega_max ∝ nu
    return run_jobs((functools.partial(row, p, spec[2]) for p, spec in zip(sites, prm["rows"])),
                    costs=[p.nu_x / p.eta_x**2 for p in sites])


# a transfer row's margin of total excitation above its input's, measured on
# table2 (0.1, 10) against the uncapped sectors: 5 moved the calibrated F by
# 2.8e-8, 7 by 1.6e-10
EXCITATION_MARGIN = 7


def _excitation_cap(psi0: StateVector) -> int:
    """The total excitation up to which a no-jump transfer row evolves psi0.

    EXCITATION_MARGIN above the largest sum_j n_j that psi0 occupies, and
    at least the largest mode's top level, so that a rerun at raised
    truncation raises the cap with it.
    """
    space = psi0.space
    occupied = space.excitations()[np.flatnonzero(psi0.amplitudes)]
    return max(int(occupied.max()) + EXCITATION_MARGIN, max(space.dims) - 1)


# ---------------------------------------------------------------------------
# ideal adiabatic cascade


def run_cascade_ideal(config: ExperimentConfig) -> list[ResultRow]:
    """Adiabatic two-mode cascade: transfer fidelity vs. pulse window length."""
    dims = tuple(config.dims) if config.dims else (18, 18)
    prm = _params(config, gamma=0.01, window_halfwidths=[2.0, 4.0, 6.0, 8.0])
    gamma = prm["gamma"]
    space = make_space(dims)

    def row(w, kind, arg) -> ResultRow:
        p1, p2 = PulseSchedule.pair(gamma, halfwidth=w)
        dt = config.integrator().cascade_step(p1.rate, p2.rate, p1.t_start, p1.t_end)
        with _measured(config, dims, dt) as conv:
            psi0 = _transfer_state(kind, arg, space, 0)
            target = _transfer_state(kind, arg, space, 1)
            ts, rhos = evolve_adiabatic_cascade(
                space, p1.rate, p2.rate, psi0.projector(), p1.t_start, p1.t_end, dt=dt,
            )
        return ResultRow(
            params={"state": f"{kind}:{arg}", "window_halfwidth": w, "gamma": gamma},
            results={"fidelity": fidelity_mixed(rhos[-1], target)},
            # RK4 on the Lindblad equation can lose positivity: F > 1 then shows here
            convergence={**conv, "trace_drift": abs(rhos[-1].trace - 1.0),
                         "min_eigenvalue": float(np.linalg.eigvalsh(rhos[-1].entries)[0])},
        )

    return run_jobs(functools.partial(row, w, kind, arg) for w in prm["window_halfwidths"]
                    for kind, arg in (("fock", 1), ("fock", 5), ("coherent", 2)))


# ---------------------------------------------------------------------------
# delocalized target states


def run_delocalized_targets(config: ExperimentConfig) -> list[ResultRow]:
    """Effective-beamsplitter construction of the delocalized target states.

    A pi/4 mixer (phi = pi/2) splits an even cat between the two modes with
    amplitudes (alpha/sqrt2, -alpha/sqrt2); a single phonon splits into
    (|1,0> + |0,1>)/sqrt2.
    """
    dims = tuple(config.dims) if config.dims else (36, 24)
    prm = _params(config, alpha=math.sqrt(10.0), chi=0.004)
    alpha, chi = prm["alpha"], prm["chi"]
    if not chi > 0:
        raise ValueError(f"collective_demo param chi must be positive, got {chi!r}")
    space = make_space(dims)
    t_quarter = (math.pi / 4.0) / chi
    a2 = alpha / math.sqrt(2.0)
    # (construction, its alpha, mixer phase phi, input, the two halves of the target)
    cases = [
        ("cat_split", alpha, math.pi / 2.0,
         lambda: cat_state(space, alpha, mode=0),
         lambda: (coherent_state(space, (a2, -a2)), coherent_state(space, (-a2, a2)))),
        # phi = -pi/2 makes the split symmetric: |1,0> -> (|1,0> + |0,1>)/sqrt2
        ("single_phonon_split", 1, -math.pi / 2.0,
         lambda: fock_state(space, (1, 0)),
         lambda: (fock_state(space, (1, 0)), fock_state(space, (0, 1)))),
    ]

    def row(construction, amplitude, phi, make_input, make_halves) -> ResultRow:
        h = effective_mixer(chi, phi, space)
        with _measured(config, dims, config.integrator().time_step(h)) as conv:
            psi0 = make_input()
            s1, s2 = make_halves()
            target = StateVector(space, s1.amplitudes + s2.amplitudes).normalized()
            _, states = evolve_schrodinger(h, psi0, 0.0, t_quarter, config=config.integrator())
            final = states[-1]
            conv["top_level_pop"] = final.normalized().top_level_population()
        return ResultRow(
            params={"construction": construction, "alpha": amplitude},
            results={"fidelity": fidelity_pure(final, target)},
            convergence=conv,
        )

    return run_jobs(functools.partial(row, *case) for case in cases)


# ---------------------------------------------------------------------------
# dispatch and artifact writing

_RUNNERS = {
    "table1": run_table1,
    "fig4": run_fig4_fig5,
    "table2": run_transfer_tables,
    "table3": run_transfer_tables,
    "table4": run_transfer_tables,
    "table5": run_transfer_tables,
    "cascade_ideal": run_cascade_ideal,
    "collective_demo": run_delocalized_targets,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    return _RUNNERS[config.experiment](config)


def write_outputs(config: ExperimentConfig, rows: list[ResultRow],
                  run: dict | None = None) -> tuple[Path, Path]:
    """Write <experiment>.csv plus <experiment>.meta.json; returns both paths.

    `run`, the record of `parallel.usage` around the run, adds its
    `processes` and `cpu_s` (workers included) to meta.json.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.experiment}.csv"
    meta_path = out_dir / f"{config.experiment}.meta.json"
    flat = [r.flat() for r in rows]
    columns: list[str] = []
    for row in flat:
        for k in row:
            if k not in columns:
                columns.append(k)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in flat:
            writer.writerow(row)
    meta = {
        "config": config.to_dict(),
        "package_version": __version__,
        "n_rows": len(rows),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "convergence": [r.convergence for r in rows],
        **(run or {}),
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return csv_path, meta_path
