"""Tests for experiment configs, runners, artifact writing, and the CLI."""

import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from motlight import cli, dynamics, experiments
from motlight.analysis import lamb_dicke_validity
from motlight.cli import main
from motlight.dynamics import (
    IntegratorConfig,
    effective_hamiltonian,
    evolve_master,
    mcwf_ensemble,
)
from motlight.experiments import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ExperimentConfig,
    ResultRow,
    run_cascade_ideal,
    run_delocalized_targets,
    run_experiment,
    run_fig4_fig5,
    run_table1,
    run_transfer_tables,
    write_outputs,
)
from motlight.fock import TruncationWarning, fock_state, make_space, number

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip(tmp_path):
    # the config a run records in its meta.json reads back as the same config,
    # also one built in code with tuples, which meta.json records as lists
    common = dict(experiment="table2", seed=3, dims=[6, 2, 2, 6], exact_trig=True, jumps=True,
                  ntraj=4, strict=True, params={"window_halfwidth": 2.0})
    for fields in (
        common,
        dict(common, steps_per_period=25),
        dict(experiment="table4", dims=(4, 2, 2, 4),
             params={"state": ("fock", 1), "rows": [(0.1, 2.0, 0.5)]}),
    ):
        cfg = ExperimentConfig(out_dir=str(tmp_path), **fields)
        _, meta_path = write_outputs(cfg, [ResultRow({"r": 1.0}, {"fidelity": 0.99}, {})])
        back = ExperimentConfig.from_dict(json.loads(meta_path.read_text())["config"])
        assert back == cfg, fields["experiment"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="table9")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="table1", schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="table1", ntraj=0)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "table1", "colour": "red"})
    with pytest.raises(ValueError, match="JSON"):
        ExperimentConfig(experiment="table1", params={"rows": {0.1, 0.2}})


def test_config_integrator():
    # steps_per_period is the one step knob: the integrator never takes an explicit dt
    for experiment in ("table1", "cascade_ideal"):
        integ = ExperimentConfig(experiment=experiment, steps_per_period=30).integrator()
        assert isinstance(integ, IntegratorConfig)
        assert integ == IntegratorConfig(steps_per_period=30) and integ.dt is None
        assert ExperimentConfig(experiment=experiment).integrator() == IntegratorConfig()
        with pytest.raises(ValueError, match="under-resolves"):
            ExperimentConfig(experiment=experiment, steps_per_period=10)


@pytest.mark.parametrize("name, value", [
    ("ntraj", 2.5),
    ("ntraj", True),
    ("seed", "abc"),
    ("dims", 5),
    ("dims", [4, "4"]),
    ("params", []),
    ("steps_per_period", "20"),
    ("exact_trig", 1),
    ("jumps", "yes"),
    ("strict", None),
    ("out_dir", 3),
])
def test_cli_refuses_a_config_field_of_the_wrong_type(tmp_path, capsys, name, value):
    # a config error, not a traceback from deep inside the run
    cfg_path = tmp_path / "t4.json"
    cfg_path.write_text(json.dumps({"experiment": "table4", name: value}))
    assert main(["table4", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"config field {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "table4.csv").exists()


def test_result_row_flat():
    row = ResultRow(params={"a": 1}, results={"f": 0.5}, convergence={"dt": 0.1})
    assert row.flat() == {"a": 1, "f": 0.5, "conv_dt": 0.1}


# ---------------------------------------------------------------------------
# cheap runner smoke tests


def test_run_delocalized_targets_small():
    cfg = ExperimentConfig(
        experiment="collective_demo", dims=[18, 12],
        params={"alpha": 1.5, "chi": 0.02},
    )
    rows = run_delocalized_targets(cfg)
    by_name = {r.params["construction"]: r.results["fidelity"] for r in rows}
    assert by_name["cat_split"] > 0.999
    assert by_name["single_phonon_split"] > 0.999999


def test_run_cascade_ideal_improves_with_window():
    cfg = ExperimentConfig(
        experiment="cascade_ideal", dims=[16, 16],
        params={"gamma": 0.05, "window_halfwidths": [2.0, 6.0]},
    )
    rows = run_cascade_ideal(cfg)
    fock1 = {r.params["window_halfwidth"]: r.results["fidelity"]
             for r in rows if r.params["state"] == "fock:1"}
    assert fock1[6.0] > fock1[2.0]
    assert fock1[6.0] > 0.999


def test_cascade_ideal_records_the_smallest_eigenvalue_of_its_final_rho():
    # RK4 on the Lindblad equation loses positivity on fock:5 at a +-8/Gamma
    # window and the default 40 steps (its fidelity then reads above 1); at
    # 80 steps the loss is gone.  The row shows it, and the fidelity is not clipped
    def fock5(steps_per_period):
        cfg = ExperimentConfig(experiment="cascade_ideal", dims=[12, 12],
                               steps_per_period=steps_per_period,
                               params={"window_halfwidths": [8.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # coherent:2 at 12 levels
            rows = run_cascade_ideal(cfg)
        assert all("min_eigenvalue" in r.convergence for r in rows)
        return next(r for r in rows if r.params["state"] == "fock:5")

    coarse, fine = fock5(40), fock5(80)
    assert coarse.convergence["min_eigenvalue"] < -1e-6
    assert coarse.results["fidelity"] > 1.0
    assert fine.convergence["min_eigenvalue"] > -1e-10


def test_run_transfer_tables_smoke():
    # tiny, physically lossy configuration; exercises the full pipeline fast
    cfg = ExperimentConfig(
        experiment="table4", dims=[4, 2, 2, 4], steps_per_period=20,
        params={"rows": [(0.1, 2.0, 0.5)], "state": ("fock", 1),
                "window_halfwidth": 2.0},
    )
    rows = run_transfer_tables(cfg)
    assert len(rows) == 1
    res = rows[0].results
    assert 0.0 < res["no_jump_norm"] < 1.0
    assert 0.0 <= res["fidelity"] <= 1.0
    assert rows[0].convergence["dims"] == "4x2x2x4"
    # regime of validity: Fock |1> has nbar 1 and no spread; drive_max 1
    conv = rows[0].convergence
    assert conv["lamb_dicke_lhs"] == pytest.approx(lamb_dicke_validity(0.1, 1.0, 0.0))
    assert conv["rwa_nu_over_kappa"] == pytest.approx(2.0)
    assert conv["rwa_nu_over_omega"] == pytest.approx(2.0 / 0.1)
    assert conv["adiabaticity"] == pytest.approx(0.1)
    assert rows[0].flat()["conv_adiabaticity"] == conv["adiabaticity"]


def _capped_reference_row():
    """The reference row of tests/test_transfer_reference.py: table2 (0.1, 10) at 8x3x3x8."""
    cfg = ExperimentConfig(
        experiment="table2", dims=[8, 3, 3, 8], steps_per_period=20,
        params={"rows": [(0.1, 10.0, 0.9)], "state": ("phase", 4), "drive_max": 8.0,
                "window_halfwidth": 4.0})
    (row,) = run_transfer_tables(cfg)
    return row


def test_capped_transfer_row_matches_the_parity_sectors(monkeypatch):
    # the cap, 7 above the phase state's top level 4, against the whole sectors
    capped = _capped_reference_row()
    monkeypatch.setattr(experiments, "EXCITATION_MARGIN", 10**6)
    whole = _capped_reference_row()
    conv = capped.convergence
    assert conv["sectors"] == whole.convergence["sectors"] == "even+odd"
    assert conv["excitation_cap"] == 11
    assert conv["kept_states"] == 435 < whole.convergence["kept_states"] == 576
    assert 0.0 < conv["top_shell_pop"] < 1e-10  # 4.6e-12
    for key in ("no_jump_norm", "fidelity", "fidelity_calibrated"):
        assert abs(capped.results[key] - whole.results[key]) <= 1e-9, key


def test_jump_row_records_the_whole_space():
    # the jump ensemble runs on the whole space, which no cap or sector cuts
    (row,) = run_transfer_tables(ExperimentConfig(
        experiment="table4", dims=[3, 2, 2, 3], steps_per_period=20, jumps=True, ntraj=2,
        seed=1, params={"rows": [(0.1, 2.0, 0.5)], "state": ("fock", 1), "drive_max": 8.0,
                        "window_halfwidth": 2.0}))
    conv = row.convergence
    assert conv["sectors"] == "product" and conv["kept_states"] == 36
    assert "excitation_cap" not in conv and "top_shell_pop" not in conv


def test_motional_dims_rerun_raises_the_excitation_cap():
    # criterion 8 doubles table2's motional dims; with the cap held at table2's,
    # the rerun would evolve no state that table2 does not
    rerun = ExperimentConfig.from_json(ROOT / "cfg" / "hyg_table2_mot.json")
    kind, arg = experiments.TRANSFER_TABLES["table2"]["state"]
    caps = [experiments._excitation_cap(experiments._transfer_state(kind, arg, make_space(d), 0))
            for d in (experiments.TRANSFER_TABLES["table2"]["dims"], rerun.dims)]
    assert caps == [17, 35]


def test_run_table1_reports_epr_variance():
    # a short squeeze, r = 0.3: the target's EPR variance is 2 e^{-2r}, and
    # the simulated state's is below 2, so it is inseparable
    r = 0.3
    cfg = ExperimentConfig(experiment="table1", dims=[12, 12], steps_per_period=20,
                           params={"rows": [(0.1, 1.0, 3.0, 0.04, r, 0.99)]})
    (row,) = run_table1(cfg)
    assert row.results["epr_variance_target"] == pytest.approx(2.0 * math.exp(-2.0 * r),
                                                                abs=1e-9)
    assert row.results["epr_variance"] < 2.0
    nbar = math.sinh(r) ** 2
    assert row.convergence["lamb_dicke_lhs"] == pytest.approx(
        lamb_dicke_validity(0.1, nbar, math.sqrt(nbar * (nbar + 1.0))))


def test_run_fig4_reports_regime():
    # criterion 7's Lamb-Dicke figure, 0.225 at eta 0.15, from the input
    # coherent state's own population (0.2305); 30 levels hold alpha = sqrt 10
    cfg = ExperimentConfig(experiment="fig4", dims=[30, 3], steps_per_period=20,
                           params={"etas": [0.15], "t_final": 0.05, "nsamples": 2})
    rows = run_fig4_fig5(cfg)
    assert len(rows) == 2
    for row in rows:
        conv = row.convergence
        assert abs(conv["lamb_dicke_lhs"] - 0.225) < 0.01
        assert conv["rwa_nu_over_kappa"] == pytest.approx(10.0)
        assert conv["rwa_nu_over_omega"] == pytest.approx(100.0)
        assert conv["adiabaticity"] == pytest.approx(0.1)


def _recording(monkeypatch, name):
    """Wrap experiments.<name> so that the arguments of every call are kept."""
    calls, original = [], getattr(experiments, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, recording)
    return calls


@pytest.mark.parametrize("jumps", [False, True])
def test_transfer_conv_dt_is_the_step_taken(monkeypatch, jumps):
    # under both truncations, the step the row reports is the one its
    # propagator takes from the run's start, -4/Gamma
    evolve = "mcwf_ensemble" if jumps else "evolve_schrodinger"
    calls = _recording(monkeypatch, evolve)
    for exact_trig in (False, True):
        calls.clear()
        ensemble = {"ntraj": 2, "seed": 3} if jumps else {}
        cfg = ExperimentConfig(
            experiment="table4", dims=[4, 2, 2, 4], exact_trig=exact_trig, jumps=jumps,
            params={"rows": [(0.1, 5.0, 0.5)], "state": ("fock", 1),
                    "drive_max": 8.0, "window_halfwidth": 4.0}, **ensemble,
        )
        (row,) = run_transfer_tables(cfg)
        ((args, kwargs),) = calls
        h, t_start, integrator = args[0], args[3 if jumps else 2], kwargs["config"]
        assert t_start == pytest.approx(-4.0 / 0.64)
        assert row.convergence["dt"] == integrator.time_step(h)


def test_fig4_exact_trig_agrees_with_third_order():
    # both truncations evolve in the rotating frame of the reference, so the
    # fidelity column f differs only by the sine truncation: at eta 0.1 the
    # two agree to about 3e-7 up to t = 1
    params = {"etas": [0.1], "alpha": 2.0, "t_final": 1.0, "nsamples": 5}
    f = {}
    for exact_trig in (False, True):
        cfg = ExperimentConfig(experiment="fig4", dims=[20, 4], steps_per_period=20,
                               exact_trig=exact_trig, params=params)
        f[exact_trig] = np.array([row.results["f"] for row in run_fig4_fig5(cfg)])
    assert f[False].min() > 0.99
    assert np.abs(f[True] - f[False]).max() <= 1e-5


def test_fig4_rows_report_conv_dt(monkeypatch):
    calls = _recording(monkeypatch, "evolve_master")
    cfg = ExperimentConfig(experiment="fig4", dims=[12, 3], steps_per_period=20,
                           params={"etas": [0.1], "alpha": 1.0, "t_final": 0.05,
                                   "nsamples": 2})
    rows = run_fig4_fig5(cfg)
    ((args, kwargs),) = calls
    dt = kwargs["config"].time_step(effective_hamiltonian(*args[:2]))
    assert [row.flat()["conv_dt"] for row in rows] == [dt, dt]


def test_cascade_ideal_takes_the_config_step(tmp_path, monkeypatch, one_cpu, tiny_runs):
    # the cascade steps by 2 / Gamma_max / steps_per_period, so --steps-per-period 80
    # halves the default step exactly: a dt-halving check of its fidelities.  Each row
    # records the step its propagator was given; on one CPU every call is made, and
    # recorded, in this process
    calls = _recording(monkeypatch, "evolve_adiabatic_cascade")
    cfg_path = tmp_path / "cascade.json"
    cfg_path.write_text(json.dumps(next(c for c in tiny_runs
                                        if c["experiment"] == "cascade_ideal")))
    rows = {}
    for steps, flags in ((40, []), (80, ["--steps-per-period", "80"])):
        calls.clear()
        out = tmp_path / str(steps)
        assert main(["cascade_ideal", "--config", str(cfg_path), "--out", str(out),
                     *flags]) == 0
        with open(out / "cascade_ideal.csv") as fh:
            rows[steps] = list(csv.DictReader(fh))
        assert [kwargs["dt"] for _, kwargs in calls] == [float(r["conv_dt"])
                                                         for r in rows[steps]]
        assert {int(r["conv_steps_per_period"]) for r in rows[steps]} == {steps}
    for coarse, fine in zip(rows[40], rows[80]):
        assert float(fine["conv_dt"]) == float(coarse["conv_dt"]) / 2
        assert abs(float(fine["fidelity"]) - float(coarse["fidelity"])) <= 1e-5


@pytest.mark.parametrize("cfg, expected", [
    ({"experiment": "table5", "dims": [10, 2, 2, 10], "steps_per_period": 20,
      "params": {"state": ["cat", 1.5], "rows": [[0.1, 2.0, 0.5]], "drive_max": 8.0,
                 "window_halfwidth": 2.0}},
     {"cat:1.5": 2}),
    ({"experiment": "cascade_ideal", "dims": [12, 12],
      "params": {"gamma": 0.01, "window_halfwidths": [1.0]}},
     {"fock:1": 0, "fock:5": 0, "coherent:2": 2}),
])
def test_row_warning_count_includes_its_states(cfg, expected):
    # the input and the target each leak past the truncation once; the
    # warnings are counted on the row and still reach the caller
    with pytest.warns(TruncationWarning):
        rows = run_experiment(ExperimentConfig.from_dict(cfg))
    assert {row.params["state"]: row.convergence["truncation_warnings"]
            for row in rows} == expected


def test_every_experiment_keeps_one_record(monkeypatch, tiny_runs):
    # every row is timed and warning-counted and reports the step its
    # propagator was given and the steps per period that set it
    assert {cfg["experiment"] for cfg in tiny_runs} == set(EXPERIMENTS)
    steps, samples = [], dynamics._samples

    def recording(step, y, ts, dt):
        steps.append(dt)
        return samples(step, y, ts, dt)

    monkeypatch.setattr(dynamics, "_samples", recording)
    for cfg in map(ExperimentConfig.from_dict, tiny_runs):
        steps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rows = run_experiment(cfg)
        assert rows and steps, cfg.experiment
        for row in rows:
            conv = row.convergence
            assert conv["dims"] == "x".join(map(str, cfg.dims)), cfg.experiment
            assert conv["runtime_s"] >= 0.0 and conv["truncation_warnings"] >= 0, cfg.experiment
            assert conv["steps_per_period"] == cfg.steps_per_period, cfg.experiment
        assert {row.convergence["dt"] for row in rows} == set(steps), cfg.experiment


class _ReadRecorder(ExperimentConfig):
    """An ExperimentConfig that notes every attribute read once `reads` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("experiment", ["table1", "fig4", "table2", "cascade_ideal",
                                        "collective_demo"])
def test_every_setting_a_run_accepts_is_read(tiny_runs, experiment):
    # a setting that the run ignores would be recorded in meta.json as if
    # used: each one is refused or read; table2 stands for the four transfer
    # tables, which share one runner
    base = next(cfg for cfg in tiny_runs if cfg["experiment"] == experiment)
    cases = [{"seed": 3}, {"ntraj": 2}, {"jumps": True}, {"exact_trig": True},
             {"steps_per_period": 25}, {"jumps": True, "ntraj": 2, "seed": 3}]
    for changes in cases:
        try:
            cfg = _ReadRecorder(**{**base, **changes})
        except ValueError:
            continue
        cfg.reads = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            run_experiment(cfg)
        assert set(changes) <= cfg.reads, (experiment, changes)


def test_fock_target_phase_calibration():
    # a target in one level of the mode has no occupation-linear phase to
    # fit: the slope is 0, and the calibrated fidelity is never below the raw
    from motlight.analysis import fidelity_phase_calibrated

    spc = make_space((3, 4))
    fock = fock_state(spc, (0, 1))
    assert fidelity_phase_calibrated(fock, fock, mode=1) == (1.0, 0.0)
    cfg = ExperimentConfig(
        experiment="table4", dims=[3, 2, 2, 3], steps_per_period=20,
        params={"rows": [(0.1, 2.0, 0.5)], "state": ("fock", 1), "drive_max": 8.0,
                "window_halfwidth": 2.0},
    )
    (row,) = run_transfer_tables(cfg)
    assert row.results["phase_slope"] == 0.0
    assert row.results["fidelity_calibrated"] >= row.results["fidelity"]


def test_transfer_jumps_report_final_population(monkeypatch):
    # with jumps on, conv_top_level_pop describes the ensemble's final rho
    calls = _recording(monkeypatch, "mcwf_ensemble")
    cfg = ExperimentConfig(
        experiment="table4", dims=[3, 2, 2, 3], steps_per_period=20, jumps=True,
        ntraj=4, seed=5,
        params={"rows": [(0.1, 2.0, 0.5)], "state": ("fock", 2), "drive_max": 8.0,
                "window_halfwidth": 2.0},
    )
    (row,) = run_transfer_tables(cfg)
    ((args, kwargs),) = calls
    _, rhos, _ = mcwf_ensemble(*args, **kwargs)  # same seed, same ensemble
    final_pop = rhos[-1].top_level_population()
    assert row.convergence["top_level_pop"] == final_pop
    assert final_pop < 0.99  # the initial Fock |2> sits wholly in the top level


# ---------------------------------------------------------------------------
# artifact writing and CLI


def test_write_outputs(tmp_path):
    cfg = ExperimentConfig(experiment="table1", out_dir=str(tmp_path))
    rows = [ResultRow({"r": 1.0}, {"fidelity": 0.99}, {"dt": 0.1})]
    csv_path, meta_path = write_outputs(cfg, rows)
    text = csv_path.read_text().splitlines()
    assert text[0] == "r,fidelity,conv_dt"
    assert text[1] == "1.0,0.99,0.1"
    meta = json.loads(meta_path.read_text())
    assert meta["n_rows"] == 1
    assert meta["config"]["experiment"] == "table1"
    assert meta["config"]["schema_version"] == SCHEMA_VERSION


def test_cli_end_to_end(tmp_path):
    cfg = {
        "experiment": "collective_demo",
        "dims": [18, 12],
        "params": {"alpha": 1.5, "chi": 0.02},
    }
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["collective_demo", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "collective_demo.csv").exists()
    assert (tmp_path / "collective_demo.meta.json").exists()


def test_cli_config_errors(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "table1"}))
    # experiment on the command line must match the config file
    assert main(["table2", "--config", str(cfg_path)]) == 2
    # unknown config key
    cfg_path.write_text(json.dumps({"experiment": "table1", "bogus": 1}))
    assert main(["table1", "--config", str(cfg_path)]) == 2
    # missing file
    assert main(["table1", "--config", str(tmp_path / "absent.json")]) == 2
    # unknown experiment name is an argparse error
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_cli_rejects_an_unknown_params_key(tmp_path, capsys):
    # a misspelt key would otherwise run the default +-6/Gamma window unnoticed
    cfg_path = tmp_path / "t4.json"
    cfg_path.write_text(json.dumps({
        "experiment": "table4", "dims": [3, 2, 2, 3], "steps_per_period": 20,
        "params": {"rows": [[0.1, 2.0, 0.5]], "state": ["fock", 1], "window_halfwidht": 2.0},
    }))
    assert main(["table4", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "window_halfwidht" in capsys.readouterr().err
    assert not (tmp_path / "table4.csv").exists()


@pytest.mark.parametrize("experiment, name, value", [
    ("table1", "rows", [[0.1]]),
    ("table1", "rows", 5),
    ("fig4", "etas", "x"),
    ("table2", "window_halfwidth", "a"),
    ("table4", "state", ["fock", 1, 2]),
    ("collective_demo", "chi", True),
])
def test_cli_refuses_a_params_value_shaped_unlike_its_default(tmp_path, capsys, experiment,
                                                               name, value):
    # a config error before the run, not a TypeError from inside it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": {name: value}}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"param {name} must be shaped like" in err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize("experiment, params, message", [
    # a zero eta' or chi: each was a float division by zero, exit 3
    ("table1", {"rows": [[0.1, 1.0, 3.0, 0.0, 1.0, 0.991]]}, "chi must be positive"),
    ("table1", {"rows": [[0.0, 1.0, 3.0, 0.004, 1.0, 0.991]]}, "must lie in (0, 0.5)"),
    ("table2", {"rows": [[0.0, 10.0, 0.9]]}, "eta_x must lie in (0, 0.5)"),
    ("fig4", {"etas": [0.0]}, "eta_x must lie in (0, 0.5)"),
    # a fractional count: a TypeError traceback, Fock |1> recorded as fock:1.7,
    # a run that never reaches t_final, two samples for 2.7
    ("table4", {"state": ["phase", 2.5]}, "state's phase level must be an integer >= 0"),
    ("table4", {"state": ["fock", 1.7]}, "state's fock level must be an integer >= 0"),
    ("table4", {"state": ["fock", -1]}, "state's fock level must be an integer >= 0"),
    ("fig4", {"nsamples": 1}, "nsamples must be an integer >= 2"),
    ("fig4", {"nsamples": 2.7}, "nsamples must be an integer >= 2"),
])
def test_cli_refuses_a_params_value_out_of_range_before_any_row(tmp_path, capsys, monkeypatch,
                                                                experiment, params, message):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(experiments, "run_jobs", no_rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": params}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_cli_refuses_a_reversed_time_interval(tmp_path, capsys):
    # chi < 0 would put the quarter period before t = 0, so that the run took
    # no step and reported the input's overlap with the target as the fidelity
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps({"experiment": "collective_demo", "dims": [8, 8],
                                    "params": {"alpha": 1.0, "chi": -0.2}}))
    assert main(["collective_demo", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "collective_demo.csv").exists()


@pytest.mark.parametrize("chi", [0, 0.0])
def test_cli_collective_demo_refuses_a_zero_chi(tmp_path, capsys, chi):
    # the quarter period pi / (4 chi) would be a division by zero, exit 3
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps({"experiment": "collective_demo", "dims": [8, 8],
                                    "params": {"alpha": 1.0, "chi": chi}}))
    assert main(["collective_demo", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "chi must be positive" in capsys.readouterr().err
    assert not (tmp_path / "collective_demo.csv").exists()


@pytest.mark.parametrize("experiment, name", [("table1", "rows"), ("fig4", "etas"),
                                              ("cascade_ideal", "window_halfwidths"),
                                              ("table4", "rows")])
def test_cli_refuses_an_empty_list_of_what_to_run(tmp_path, capsys, experiment, name):
    # the run would write a CSV of no rows and exit 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": {name: []}}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"param {name} is empty" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize("experiment", ["collective_demo", "table2"])
def test_cli_refuses_empty_dims(tmp_path, capsys, experiment):
    # every runner would take its default truncation, and meta.json record dims []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "dims": []}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "dims must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_cli_checks_the_output_directory_before_running(tmp_path, capsys, monkeypatch):
    # the run would otherwise finish every row and then fail to write them
    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert main(["collective_demo", "--out", str(blocker / "sub")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_step_flag_replaces_the_config_files_step_rule(tmp_path, tiny_runs):
    # --steps-per-period over a config file's steps_per_period steps by the flag's
    cfg = next(c for c in tiny_runs if c["experiment"] == "collective_demo")
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(dict(cfg, steps_per_period=30)))
    assert main(["collective_demo", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--steps-per-period", "20"]) == 0
    meta = json.loads((tmp_path / "collective_demo.meta.json").read_text())
    assert meta["config"]["steps_per_period"] == 20
    assert [conv["steps_per_period"] for conv in meta["convergence"]] == [20, 20]


def test_cli_refuses_a_dt(tmp_path, capsys):
    # steps_per_period is a run's one step knob; an explicit dt is the library's alone
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps({"experiment": "collective_demo", "dt": 0.01}))
    assert main(["collective_demo", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "unknown config keys: ['dt']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["collective_demo", "--out", str(tmp_path), "--dt", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err
    assert not (tmp_path / "collective_demo.csv").exists()


@pytest.mark.parametrize("experiment", ["table1", "cascade_ideal"])
def test_cli_refuses_too_few_steps_per_period_before_running(tmp_path, capsys, monkeypatch,
                                                              experiment):
    # IntegratorConfig's guard runs as the config is loaded, before any Hamiltonian
    def no_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert main([experiment, "--out", str(tmp_path), "--steps-per-period", "10"]) == 2
    assert "steps_per_period below 20" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "steps_per_period": 10}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "steps_per_period below 20" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params", [
    ("cascade_ideal", {"gamma": 0.0}),
    ("table2", {"drive_max": 0.0}),
])
def test_cli_zero_pulse_rate_is_a_config_error(tmp_path, capsys, experiment, params):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": params}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "pulse rate gamma must be positive" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_cli_runner_value_error_is_config_error(tmp_path):
    # coherent:2 leaks 5e-2 past level 8, which the runner rejects before integrating it
    assert main(["cascade_ideal", "--dims", "8,8", "--out", str(tmp_path)]) == 2


def test_cli_strict_sees_runner_warnings(tmp_path, monkeypatch):
    # a truncation warning raised inside a runner reaches --strict and the row's count
    def warning_evolve(h, psi0, t0, t1, config):
        warnings.warn("stub truncation", experiments.TruncationWarning)
        return np.array([t0, t1]), [psi0, psi0]

    monkeypatch.setattr(experiments, "evolve_schrodinger", warning_evolve)
    cfg_path = tmp_path / "t1.json"
    cfg_path.write_text(json.dumps({
        "experiment": "table1", "dims": [4, 4],
        "params": {"rows": [[0.1, 1.0, 3.0, 0.004, 0.001, 0.991]]},
    }))
    code = main(["table1", "--config", str(cfg_path), "--out", str(tmp_path), "--strict"])
    assert code == 4
    with open(tmp_path / "table1.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert int(row["conv_truncation_warnings"]) == 1


def test_cli_strict_sees_master_size_warning(tmp_path, monkeypatch, capsys):
    # evolve_master's size warning is a RuntimeWarning, so the CLI reports it
    # and --strict escalates it
    def big_master(config):
        spc = make_space((35, 35))  # dim 1225
        evolve_master(number(spc, 0), [], fock_state(spc, (0, 0)).projector(), 0.0, 0.0)
        return [ResultRow(params={}, results={"f": 1.0}, convergence={})]

    monkeypatch.setitem(experiments._RUNNERS, "fig4", big_master)
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    assert "master equation at dim 1225" in capsys.readouterr().err
    assert main(["fig4", "--out", str(tmp_path), "--strict"]) == 4


def test_cli_flags_are_checked_like_config_files(tmp_path, capsys):
    assert main(["table4", "--out", str(tmp_path), "--ntraj", "0"]) == 2
    assert "ntraj must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "table4.csv").exists()


@pytest.mark.parametrize("experiment, flags, name", [
    ("table1", ["--exact-trig"], "exact_trig"),
    ("table1", ["--jumps", "on"], "jumps"),
    ("table1", ["--ntraj", "50"], "ntraj"),
    ("table1", ["--seed", "3"], "seed"),
    ("fig4", ["--jumps", "on"], "jumps"),
    ("fig4", ["--seed", "3"], "seed"),
    ("cascade_ideal", ["--exact-trig"], "exact_trig"),
    ("cascade_ideal", ["--ntraj", "2"], "ntraj"),
    ("collective_demo", ["--exact-trig"], "exact_trig"),
    ("collective_demo", ["--jumps", "on"], "jumps"),
    ("table2", ["--ntraj", "2"], "ntraj"),  # read only with --jumps on
    ("table2", ["--seed", "3"], "seed"),
])
def test_cli_refuses_a_setting_the_experiment_does_not_read(tmp_path, capsys, experiment,
                                                             flags, name):
    # the run would ignore it but record it in meta.json as if it were used,
    # whether it comes as a flag or in the config file
    assert main([experiment, "--out", str(tmp_path), *flags]) == 2
    assert f"--{name.replace('_', '-')}" in capsys.readouterr().err
    value = {"exact_trig": True, "jumps": True, "ntraj": 2, "seed": 3}[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, name: value}))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_cli_numerical_failure(tmp_path):
    # truncation dims exceeding the resource cap surface as exit code 3
    code = main(["collective_demo", "--out", str(tmp_path), "--dims", "2000,2000"])
    assert code == 3


@pytest.mark.parametrize("flags", [[], ["--exact-trig"]])
def test_cli_transfer_at_large_kappa_exits_0(tmp_path, flags):
    # at kappa 1000 the rounding of H_eff - H_eff† exceeds 1e-12, which is
    # no numerical failure: the run exits 0 and writes its row.  The step
    # resolves the decay's 1-norm, about 7 kappa for a 3-level cavity pair,
    # which keeps RK4 stable at 20 steps per period; the window is short
    # because that step is fine
    cfg = {"experiment": "table4", "dims": [4, 3, 3, 4], "steps_per_period": 20,
           "params": {"state": ["fock", 1], "rows": [[0.1, 10.0, 0.82]], "kappa": 1000.0,
                      "drive_max": 316.0, "window_halfwidth": 0.25}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["table4", "--config", str(cfg_path), "--out", str(tmp_path), *flags]) == 0
    with open(tmp_path / "table4.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert 0.0 < float(row["no_jump_norm"]) < 1.0
    assert 0.0 < float(row["fidelity"]) <= 1.0


def test_cli_run_past_the_stability_limit_exits_3(tmp_path, monkeypatch, tiny_runs):
    # the tiny table4 ensemble at kappa 1000, stepped by the fastest
    # oscillation alone, 2 pi / omega_max / steps_per_period, which ignores
    # the decay: the state overflows, and the run is a numerical failure
    # that writes no CSV
    monkeypatch.setattr(IntegratorConfig, "time_step",
                        lambda self, h: 2.0 * math.pi / h.max_frequency / self.steps_per_period)
    cfg = next(c for c in tiny_runs if c["experiment"] == "table4")
    cfg["params"].update(kappa=1000.0, drive_max=100.0, window_halfwidth=0.5)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["table4", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "table4.csv").exists()


def test_experiments_registry_complete():
    from motlight.experiments import _RUNNERS

    assert set(_RUNNERS) == set(EXPERIMENTS)


def test_readme_cli_synopsis_names_every_flag_of_the_parser():
    # the synopsis block under "## CLI" and the parser's usage give the same flags
    synopsis = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    flags = lambda text: set(re.findall(r"--[a-z][a-z-]*", text))  # noqa: E731
    assert flags(synopsis) == flags(cli.build_parser().format_usage())
