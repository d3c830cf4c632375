"""The import budget of a run: `simulate` loads numpy and scipy.sparse, nothing heavier."""

import json
import os
import subprocess
import sys
from pathlib import Path

import motlight

# scipy modules no run needs; importing them would add 0.3 s or more to every run's start-up
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.stats")

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


def test_runs_load_no_heavy_scipy_module(tmp_path, tiny_runs):
    # a fresh interpreter imports the CLI and runs one tiny config of every
    # experiment: the squeeze, the calibrated transfers, the jump ensemble,
    # the master equation, the adiabatic cascade and the beamsplitter
    src = str(Path(motlight.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(tiny_runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(tiny_runs)
    assert [m for m in HEAVY if m in report["loaded"]] == []
    assert "scipy.sparse" in report["loaded"]
