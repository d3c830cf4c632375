"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def one_cpu(monkeypatch):
    """parallel.run_jobs sees one CPU and runs every job in this process, as `taskset -c 0` would.

    A test that records calls made inside the jobs needs it: a call made in
    a forked worker is recorded in the worker.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def tiny_runs():
    """One tiny config of every experiment, as the JSON a config file holds."""
    transfer = {"rows": [[0.1, 2.0, 0.5]], "drive_max": 8.0, "window_halfwidth": 2.0}
    return [
        {"experiment": "table1", "dims": [6, 6], "steps_per_period": 20,
         "params": {"rows": [[0.1, 1.0, 3.0, 0.004, 0.001, 0.991]]}},
        {"experiment": "table2", "dims": [4, 2, 2, 4], "steps_per_period": 20,
         "params": {**transfer, "state": ["phase", 2]}},
        {"experiment": "table3", "dims": [5, 2, 2, 5], "steps_per_period": 20,
         "params": {**transfer, "state": ["phase", 3]}},
        {"experiment": "table4", "dims": [3, 2, 2, 3], "steps_per_period": 20, "jumps": True,
         "ntraj": 2, "seed": 1, "params": {**transfer, "state": ["fock", 1]}},
        {"experiment": "table5", "dims": [8, 2, 2, 8], "steps_per_period": 20,
         "params": {**transfer, "state": ["cat", 1.0]}},
        {"experiment": "fig4", "dims": [12, 3], "steps_per_period": 20,
         "params": {"etas": [0.1], "alpha": 1.0, "t_final": 0.05, "nsamples": 2}},
        {"experiment": "cascade_ideal", "dims": [12, 12],
         "params": {"gamma": 0.01, "window_halfwidths": [1.0]}},
        {"experiment": "collective_demo", "dims": [8, 8], "steps_per_period": 20,
         "params": {"alpha": 1.0, "chi": 0.2}},
    ]
