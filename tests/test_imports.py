"""The import budget of a run: `simulate` loads numpy and scipy.sparse, nothing heavier."""

import json
import os
import subprocess
import sys
from pathlib import Path

import motlight

# scipy modules no run needs; importing them would add 0.3 s or more to every run's start-up
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.stats")

TINY_RUNS = [
    {"experiment": "table1", "dims": [6, 6], "steps_per_period": 20,
     "params": {"rows": [[0.1, 1.0, 3.0, 0.004, 0.001, 0.991]]}},
    {"experiment": "table2", "dims": [4, 2, 2, 4], "steps_per_period": 20,
     "params": {"rows": [[0.1, 2.0, 0.5]], "state": ["phase", 2], "drive_max": 8.0,
                "window_halfwidth": 2.0}},
    {"experiment": "table4", "dims": [3, 2, 2, 3], "steps_per_period": 20, "jumps": True,
     "ntraj": 2, "seed": 1,
     "params": {"rows": [[0.1, 2.0, 0.5]], "state": ["fock", 1], "drive_max": 8.0,
                "window_halfwidth": 2.0}},
    {"experiment": "fig4", "dims": [12, 3], "steps_per_period": 20,
     "params": {"etas": [0.1], "alpha": 1.0, "t_final": 0.05, "nsamples": 2}},
    {"experiment": "cascade_ideal", "dims": [12, 12],
     "params": {"gamma": 0.01, "window_halfwidths": [1.0]}},
]

SCRIPT = """
import json, sys
from pathlib import Path
from motlight import cli

out = Path(sys.argv[1])
codes = []
for cfg in json.loads(sys.argv[2]):
    path = out / (cfg["experiment"] + ".config.json")
    path.write_text(json.dumps(cfg))
    codes.append(cli.main([cfg["experiment"], "--config", str(path), "--out", str(out)]))
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def test_runs_load_no_heavy_scipy_module(tmp_path):
    # a fresh interpreter imports the CLI and runs one tiny config of every
    # path: the squeeze, the calibrated transfer, the jump ensemble, the
    # master equation and the adiabatic cascade
    src = str(Path(motlight.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(TINY_RUNS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(TINY_RUNS)
    assert [m for m in HEAVY if m in report["loaded"]] == []
    assert "scipy.sparse" in report["loaded"]
