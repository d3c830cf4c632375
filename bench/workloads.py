"""The benchmark's workloads: reduced configs for the CLI and the checks of their outputs.

A workload is a round of CLI invocations (`simulate <experiment> --config
<file>`); every invocation is one operation.  Each check returns a list of
failure messages for one invocation's CSV rows, empty when the output is
right.  The references come from `references.py` and are computed once per
run, outside the measured time.
"""

from __future__ import annotations

import math

import references

# -- large / table1: row 1 at the paper's 48x48 truncation, r shortened
SQUEEZE_ROW = [0.1, 1.0, 3.0, 0.004, 0.001, 0.991]  # eta', nu_x, nu_z, chi, r, paper F
SQUEEZE_TOL = 1e-9  # |F_cli - F_ref|; the two agree to ~1e-13
SQUEEZE_NORM_DRIFT = 1e-9

# -- large / table2: row (eta 0.1, nu 10), phase state n = 10
TRANSFER_DRIVE = 8.0  # g0 E_A^max / Delta; Gamma = (0.1 * 8)^2 = 0.64
WINDOW = 4.0  # pulse window half-width in units of 1/Gamma
TRANSFER_FLOOR = 0.6  # calibrated fidelity floor, see README

# -- small / table4: Fock |1> transfer at 4x4x4x4, jumps on, plus the no-jump branch
ENSEMBLE_DRIVE = 8.0
ENSEMBLE_NTRAJ = 8
ENSEMBLE_TAIL = 1e-7  # tail probability below each binomial floor

# -- small / fig4 (both eta) and cascade_ideal (one window, three inputs)
FIG4 = {"dims": [30, 5], "t_final": 1.0, "nsamples": 129, "alpha": math.sqrt(10.0),
        "eta_drive": 0.1, "kappa": 1.0}
FIG4_TRACE_DRIFT = 1e-12
LD_RWA_ALLOWANCE = 1e-4  # counter-rotating wiggle of |<b_x>|, ~ (g / 2 nu)^2
CASCADE = {"dims": [12, 12], "gamma": 0.01, "window": 1.0}
CASCADE_TOL = 1e-5  # RK4 at dt = 0.05 / Gamma_max: error ~ 0.05^4


def _cfg(experiment, **kw):
    cfg = {"experiment": experiment, "steps_per_period": 20}
    cfg.update(kw)
    return cfg


def _squeeze() -> dict:
    return {"label": "table1", "check": check_squeeze,
            "config": _cfg("table1", dims=[48, 48], params={"rows": [SQUEEZE_ROW]})}


def _transfer() -> dict:
    return {"label": "table2", "check": check_transfer,
            "config": _cfg("table2", dims=[18, 4, 4, 18], params={
                "rows": [[0.1, 10.0, 0.90]], "drive_max": TRANSFER_DRIVE,
                "window_halfwidth": WINDOW})}


def _ensemble(seed: int) -> list[dict]:
    params = {"state": ["fock", 1], "rows": [[0.1, 10.0, 0.82]], "drive_max": ENSEMBLE_DRIVE,
              "window_halfwidth": WINDOW}
    return [
        {"label": "table4-nojump", "check": check_ensemble_nojump,
         "config": _cfg("table4", dims=[4, 4, 4, 4], params=params)},
        {"label": "table4-jumps", "check": check_ensemble_jumps,
         "config": _cfg("table4", dims=[4, 4, 4, 4], jumps=True, ntraj=ENSEMBLE_NTRAJ,
                        seed=seed, params=params)},
    ]


def _master() -> list[dict]:
    fig4 = {k: FIG4[k] for k in ("t_final", "nsamples", "alpha", "eta_drive", "kappa")}
    return [
        {"label": "fig4", "check": check_fig4,
         "config": _cfg("fig4", dims=FIG4["dims"], params=fig4)},
        {"label": "cascade_ideal", "check": check_cascade,
         "config": {"experiment": "cascade_ideal", "dims": CASCADE["dims"], "params": {
             "gamma": CASCADE["gamma"], "window_halfwidths": [CASCADE["window"]]}}},
    ]


def invocations(name: str, seed: int) -> list[dict]:
    """The round of one workload: [{"label", "config", "check"}].

    `large` runs the two large operators (table1, table2); `small` runs the
    small ones (the table4 jump ensemble after its no-jump branch, fig4 and
    cascade_ideal).  The first invocation of a round is the one whose
    per-call costs a traced run times.
    """
    if name == "large":
        return [_squeeze(), _transfer()]
    if name == "small":
        return [*_ensemble(seed), *_master()]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("large", "small")


def compute_references(name: str) -> dict:
    """Everything a workload's checks compare against, made apart from motlight."""
    if name == "large":
        eta_p, nu_x, nu_z, chi, r, _ = SQUEEZE_ROW
        ref = references.squeeze_fidelities(eta_p, nu_x, nu_z, chi, r)
        gap = min(abs(ref["drive"] - ref["vacuum"]), abs(ref["drive"] - ref["flipped"]))
        if SQUEEZE_TOL > 0.01 * gap:
            raise RuntimeError(f"squeeze tolerance {SQUEEZE_TOL} cannot tell the drive from "
                               f"its failures (gap {gap:.2e})")
        return ref
    if name == "small":
        a_res, beta = references.cascade_amplitudes(CASCADE["gamma"], CASCADE["window"])
        d = CASCADE["dims"][0]
        return {
            "cascade": {
                "fock:1": beta ** 2,
                "fock:5": beta ** 10,
                "coherent:2": references.passive_transfer_fidelity(
                    references.coherent_amplitudes(2.0, d), a_res, beta),
            },
        }
    raise ValueError(f"unknown workload {name!r}")


def _f(row, key):
    return float(row[key])


def check_squeeze(rows, stderr, ref, state) -> list[str]:
    errs = []
    (row,) = rows
    if _f(row, "norm_drift") > SQUEEZE_NORM_DRIFT:
        errs.append(f"norm_drift {row['norm_drift']} > {SQUEEZE_NORM_DRIFT}")
    if abs(_f(row, "fidelity") - ref["drive"]) > SQUEEZE_TOL:
        errs.append(f"fidelity {row['fidelity']} differs from the lab-frame reference "
                    f"{ref['drive']:.15f} by more than {SQUEEZE_TOL}")
    return errs


def _no_jump_properties(row, stderr) -> list[str]:
    errs = []
    norm, fid, cal = _f(row, "no_jump_norm"), _f(row, "fidelity"), _f(row, "fidelity_calibrated")
    if not 0.0 < norm <= 1.0:
        errs.append(f"no_jump_norm {norm} outside (0, 1]")
    if cal < fid:
        errs.append(f"fidelity_calibrated {cal} below the raw fidelity {fid}")
    if int(row["conv_truncation_warnings"]) or "warning" in stderr:
        errs.append("truncation warnings reported")
    return errs


def check_transfer(rows, stderr, ref, state) -> list[str]:
    (row,) = rows
    errs = _no_jump_properties(row, stderr)
    if _f(row, "fidelity_calibrated") < TRANSFER_FLOOR:
        errs.append(f"fidelity_calibrated {row['fidelity_calibrated']} below the floor {TRANSFER_FLOOR}")
    return errs


def check_ensemble_nojump(rows, stderr, ref, state) -> list[str]:
    (row,) = rows
    state["nojump"] = (_f(row, "no_jump_norm"), _f(row, "fidelity"))
    return _no_jump_properties(row, stderr)


def binomial_floor(n: int, p: float, tail: float) -> int:
    """The `tail` quantile of Binomial(n, p): fewer successes have probability <= tail."""
    from scipy.stats import binom

    return int(binom.ppf(tail, n, p))


def check_ensemble_jumps(rows, stderr, ref, state) -> list[str]:
    """Jump ensemble against the no-jump branch of the same row.

    The round's first invocation, the no-jump branch, leaves its (P0, F0)
    in `state`.
    """
    if "nojump" not in state:
        return ["no-jump branch of the round missing"]
    (row,) = rows
    n = ENSEMBLE_NTRAJ
    mean_f, mean_j = _f(row, "mean_fidelity"), _f(row, "mean_jumps")
    p0, f0 = state.pop("nojump")
    errs = []
    jumps = mean_j * n
    if abs(jumps - round(jumps)) > 1e-9:
        errs.append(f"mean_jumps {mean_j} is not a count over {n} trajectories")
    jumps = round(jumps)
    # a trajectory without jumps is the no-jump branch renormalized: fidelity f0
    if mean_f < (n - min(jumps, n)) / n * f0 - 1e-9 or mean_f > 1.0 + 1e-12:
        errs.append(f"mean_fidelity {mean_f} outside [{(n - min(jumps, n)) / n * f0}, 1] "
                    f"for {jumps} jumps and no-jump fidelity {f0}")
    # trajectories with a jump ~ Binomial(n, 1 - P0); each has at least one jump
    lo = binomial_floor(n, 1.0 - p0, ENSEMBLE_TAIL)
    if jumps < lo:
        errs.append(f"{jumps} jumps in {n} trajectories; Binomial({n}, {1 - p0:.4f}) "
                    f"gives at least {lo}")
    # trajectories without a jump ~ Binomial(n, P0); they alone give mean_f up to n0 f0 / n,
    # the others add at most (n - n0) / n
    lo0 = binomial_floor(n, p0, ENSEMBLE_TAIL)
    if mean_f < lo0 / n * f0 - 1e-9:
        errs.append(f"mean_fidelity {mean_f} below {lo0}/{n} of the no-jump fidelity {f0}")
    seen = state.setdefault("jumps_seen", (mean_j, mean_f))
    if seen != (mean_j, mean_f):
        errs.append(f"same seed gave (mean_jumps, mean_fidelity) {seen} and {(mean_j, mean_f)}")
    return errs


def lamb_dicke_tolerance(eta: float, alpha: float, gamma: float, t: float) -> float:
    """Allowed relative deviation of |<b_x>| from the first-order (linear) model.

    The first neglected order, the eta^3 X^3 / 6 part of sin(eta X), changes
    the coupling by eta^2 <X^2> / 6 ~ eta^2 (2 |alpha|^2 + 1) / 6 and the
    decay rate gamma by twice that, so |<b_x>| drifts from the linear model
    by ~ eta^2 (2 |alpha|^2 + 1) gamma t / 3.  The tolerance is that, plus
    the counter-rotating allowance.
    """
    return eta * eta * (2.0 * alpha * alpha + 1.0) * gamma * t / 3.0 + LD_RWA_ALLOWANCE


def check_fig4(rows, stderr, ref, state) -> list[str]:
    errs = []
    alpha, g, kappa = FIG4["alpha"], FIG4["eta_drive"], FIG4["kappa"]
    gamma = g * g / kappa
    by_eta: dict[float, list] = {}
    for row in rows:
        by_eta.setdefault(_f(row, "eta"), []).append(row)
        if _f(row, "conv_trace_drift") > FIG4_TRACE_DRIFT:
            errs.append(f"trace drift {row['conv_trace_drift']} at eta {row['eta']} t {row['t']}")
    if sorted(by_eta) != [0.1, 0.15] or any(len(v) != FIG4["nsamples"] for v in by_eta.values()):
        return errs + [f"expected {FIG4['nsamples']} rows for each of eta 0.1 and 0.15"]
    final_dev = {}
    for eta, rs in by_eta.items():
        ts = [_f(r, "t") for r in rs]
        linear = references.lamb_dicke_bx(alpha, g, kappa, ts)
        for r, t, lin in zip(rs, ts, linear):
            dev = abs(_f(r, "bx_abs") - lin) / lin
            if dev > lamb_dicke_tolerance(eta, alpha, gamma, t):
                errs.append(f"|<b_x>| at eta {eta} t {t} deviates {dev:.2e} from the linear model")
                break
        final_dev[eta] = abs(_f(rs[-1], "bx_abs") - linear[-1]) / linear[-1]
    if not final_dev[0.15] > final_dev[0.1]:
        errs.append(f"deviation from the linear model at eta 0.15 ({final_dev[0.15]:.2e}) "
                    f"not above that at eta 0.1 ({final_dev[0.1]:.2e})")
    return errs


def check_cascade(rows, stderr, ref, state) -> list[str]:
    errs = []
    expected = ref["cascade"]
    seen = set()
    for row in rows:
        name = row["state"]
        seen.add(name)
        if name not in expected:
            errs.append(f"unexpected input {name}")
            continue
        if abs(_f(row, "fidelity") - expected[name]) > CASCADE_TOL:
            errs.append(f"{name}: fidelity {row['fidelity']} vs single-excitation ODE "
                        f"{expected[name]:.10f}")
        if _f(row, "conv_trace_drift") > FIG4_TRACE_DRIFT:
            errs.append(f"{name}: trace drift {row['conv_trace_drift']}")
    if seen != set(expected):
        errs.append(f"inputs {sorted(seen)} != {sorted(expected)}")
    return errs
