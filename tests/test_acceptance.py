"""Acceptance gate: one test per headline criterion, one PASS/FAIL line each.

Criteria 1-3 and 8 check the shipped artifacts under results/ (produced by
`simulate <experiment> --out results --steps-per-period 20` plus the hygiene
configs under cfg/); they skip with an explicit message if an artifact is
missing.  Criteria 4-7 are cheap enough to compute live.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from motlight.analysis import (
    fidelity_mixed,
    lamb_dicke_validity,
    strong_coupling_figure,
)
from motlight.dynamics import (
    evolve_adiabatic_cascade,
    evolve_master,
    mcwf_ensemble,
)
from motlight.fock import (
    Operator,
    StateVector,
    coherent_state,
    destroy,
    expectation,
    fock_state,
    make_space,
    number,
    position_quadrature,
    two_mode_squeezed_state,
)
from motlight.hamiltonians import effective_mixer, effective_squeezer
from motlight.pulses import PulseSchedule

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _rows(relpath):
    path = RESULTS / relpath
    if not path.exists():
        pytest.skip(
            f"artifact {path} missing; run `simulate <exp> --out results "
            f"--steps-per-period 20` (see cfg/ for the hygiene configs)"
        )
    with open(path) as fh:
        return [
            {k: _maybe_float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def _maybe_float(s):
    try:
        return float(s)
    except (TypeError, ValueError):
        return s


def _verdict(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {name} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_squeezed_state_table():
    rows = _rows("table1.csv")
    assert len(rows) == 9
    worst = max(abs(r["fidelity"] - r["expected"]) for r in rows)
    _verdict(
        "1 (two-mode squeezing fidelities, 9 rows, ±0.005)",
        worst <= 0.005,
        f"max |F - tabulated| = {worst:.4f}",
    )


def test_criterion_2_damped_amplitude_decay():
    rows = _rows("fig4.csv")
    dev = {}
    for eta in (0.1, 0.15):
        sel = [r for r in rows if math.isclose(r["eta"], eta)]
        assert sel, f"no rows for eta={eta}"
        dev[eta] = max(
            abs(r["bx_abs"] - r["ref_amplitude"]) / r["ref_amplitude"] for r in sel
        )
    ok = dev[0.1] < 0.03 and dev[0.15] > dev[0.1]
    _verdict(
        "2 (amplitude decay vs sqrt(10) e^{-0.01 t})",
        ok,
        f"max relative deviation eta=0.1: {dev[0.1]:.4f} (<0.03), "
        f"eta=0.15: {dev[0.15]:.4f} (strictly larger)",
    )


def test_criterion_3_transfer_norms_and_fidelity():
    rows = []
    for table in ("table2", "table3", "table4", "table5"):
        rows += _rows(f"{table}.csv")
    assert len(rows) == 18
    worst_norm = max(
        abs(r["no_jump_norm"] - r["expected_no_jump_norm"]) for r in rows
    )
    worst_fid = min(r["fidelity_calibrated"] for r in rows)
    worst_raw = min(r["fidelity"] for r in rows)
    ok = worst_norm <= 0.02 and worst_fid >= 0.99
    _verdict(
        "3 (18 no-jump norms ±0.02, renormalized F >= 0.99)",
        ok,
        f"max norm error {worst_norm:.4f}; min calibrated F {worst_fid:.4f} "
        f"(min raw F before readout-phase calibration {worst_raw:.4f})",
    )


def test_criterion_4_ideal_cascade_transfer():
    # adiabatic two-mode cascade, matched sigmoid pulses, window +-8/Gamma
    spc = make_space((18, 18))
    gamma, w = 0.05, 8.0
    p1, p2 = PulseSchedule.pair(gamma, halfwidth=w)
    inputs = {
        "fock:1": (fock_state(spc, (1, 0)), fock_state(spc, (0, 1))),
        "fock:5": (fock_state(spc, (5, 0)), fock_state(spc, (0, 5))),
        "coherent:2": (coherent_state(spc, (2.0, 0.0)), coherent_state(spc, (0.0, 2.0))),
    }
    fids = {}
    for name, (psi0, target) in inputs.items():
        _, rhos = evolve_adiabatic_cascade(
            spc, p1.rate, p2.rate, psi0.projector(), p1.t_start, p1.t_end
        )
        fids[name] = fidelity_mixed(rhos[-1], target)
    worst = min(fids.values())
    _verdict(
        "4 (ideal cascade window +-8/Gamma, F >= 0.999)",
        worst >= 0.999,
        "; ".join(f"{k}: {v:.6f}" for k, v in fids.items()),
    )


def test_criterion_5_trajectories_match_master_equation():
    # driven damped cavity: 500-trajectory average vs direct master equation
    spc = make_space((10,))
    kappa, eps, t1 = 0.4, 0.3, 4.0
    h = Operator(spc, eps * position_quadrature(spc, 0).mat)
    h_eff = Operator(spc, h.mat - 1j * kappa * number(spc, 0).mat)
    c = Operator(spc, math.sqrt(kappa) * destroy(spc, 0).mat)
    # seed one photon so the trajectories genuinely differ from the mean
    psi = fock_state(spc, (1,))
    _, rhos_me = evolve_master(h, [c], psi.projector(), 0.0, t1)
    _, rhos_mc, _ = mcwf_ensemble(h_eff, [c], psi, 0.0, t1, ntraj=500, seed=20)
    diff = rhos_me[-1].entries - rhos_mc[-1].entries
    tdist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()

    # seeded photon: jump-time density 2 kappa e^{-2 kappa t}
    h_jump = Operator(spc, -1j * kappa * number(spc, 0).mat)
    one = fock_state(spc, (1,))
    _, _, jumps = mcwf_ensemble(h_jump, [c], one, 0.0, 20.0, ntraj=500, seed=2024)
    assert all(len(j) == 1 for j in jumps)
    times = [j[0] for j in jumps]
    ks = scipy.stats.kstest(times, "expon", args=(0.0, 1.0 / (2.0 * kappa)))
    ok = tdist < 0.05 and ks.pvalue > 0.01
    _verdict(
        "5 (500-trajectory ensemble vs master equation)",
        ok,
        f"trace distance {tdist:.4f} (<0.05); waiting-time KS p = {ks.pvalue:.3f} (>0.01)",
    )


def test_criterion_6_algebraic_suite():
    # full swap under the effective beamsplitter at chi T = pi/2
    spc = make_space((8, 8))
    chi = 0.05
    u = scipy.linalg.expm(-1j * (math.pi / 2.0) / chi
                          * effective_mixer(chi, -math.pi / 2.0, spc).mat.toarray())
    out = u @ fock_state(spc, (3, 0)).amplitudes
    swap_err = abs(1.0 - abs(np.vdot(fock_state(spc, (0, 3)).amplitudes, out)) ** 2)

    # squeezer vs the closed-form two-mode squeezed state at r = 1
    spc2 = make_space((30, 30))
    r = 1.0
    u2 = scipy.linalg.expm(-1j * (r / chi)
                           * effective_squeezer(chi, -math.pi / 2.0, spc2).mat.toarray())
    out2 = StateVector(spc2, u2 @ fock_state(spc2, (0, 0)).amplitudes)
    tms = two_mode_squeezed_state(spc2, r)
    sq_err = abs(1.0 - abs(np.vdot(tms.amplitudes, out2.amplitudes)) ** 2)
    n_err = abs(expectation(number(spc2, 0), out2) - math.sinh(r) ** 2)

    ok = swap_err < 1e-8 and sq_err < 1e-6 and n_err < 1e-3
    _verdict(
        "6 (algebraic suite)",
        ok,
        f"swap error {swap_err:.2e} (<1e-8); squeezer closed-form error "
        f"{sq_err:.2e} (<1e-6); <n> - sinh^2 r = {n_err:.2e} (<1e-3)",
    )


def test_criterion_7_diagnostic_figures():
    # coherent alpha = sqrt(10) at eta = 0.15; commonly quoted as 0.225
    ld = lamb_dicke_validity(0.15, 10.0)
    # quoted hardware: g0/2pi = 5.3 (3.1) MHz, kappa/2pi = 1.0 (0.5) MHz,
    # gamma/2pi = 19.4 MHz -> figure of merit 14 (10)
    fom_a = strong_coupling_figure(5.3, 1.0, 19.4)
    fom_b = strong_coupling_figure(3.1, 0.5, 19.4)
    ok = abs(ld - 0.225) < 0.01 and round(fom_a) == 14 and round(fom_b) == 10
    _verdict(
        "7 (diagnostic figures)",
        ok,
        f"Lamb-Dicke lhs {ld:.4f} (~0.225); strong-coupling {fom_a:.1f} -> 14, "
        f"{fom_b:.1f} -> 10",
    )


def test_criterion_8_numerical_hygiene():
    # dt halving and truncation doubling on the stiffest row of each table
    t1 = _rows("table1.csv")
    base1 = next(
        r for r in t1
        if math.isclose(r["eta_p"], 0.1) and math.isclose(r["r"], 1.0)
        and math.isclose(r["nu_z"], 3.0)
    )
    t2 = _rows("table2.csv")
    base2 = next(
        r for r in t2
        if math.isclose(r["eta_x"], 0.1) and math.isclose(r["nu_x"], 10.0)
    )
    deltas = {}
    deltas["table1 dt/2"] = (
        abs(_rows("hyg_table1_dt/table1.csv")[0]["fidelity"] - base1["fidelity"]),
        1e-3,
    )
    deltas["table1 dims x2"] = (
        abs(_rows("hyg_table1_dims/table1.csv")[0]["fidelity"] - base1["fidelity"]),
        5e-3,
    )
    for tag, sub, tol in (
        ("table2 dt/2", "hyg_table2_dt", 1e-3),
        ("table2 cavity dims x2", "hyg_table2_cav", 5e-3),
        ("table2 motional dims x2", "hyg_table2_mot", 5e-3),
    ):
        row = _rows(f"{sub}/table2.csv")[0]
        deltas[f"{tag} (norm)"] = (abs(row["no_jump_norm"] - base2["no_jump_norm"]), tol)
        deltas[f"{tag} (F)"] = (abs(row["fidelity"] - base2["fidelity"]), tol)
    ok = all(d <= tol for d, tol in deltas.values())
    detail = "; ".join(f"{k}: {d:.2e} (<{tol:g})" for k, (d, tol) in deltas.items())
    _verdict("8 (numerical hygiene)", ok, detail)
