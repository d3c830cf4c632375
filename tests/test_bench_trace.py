"""The benchmark's traced child runs on tiny configs of every part it times.

`bench/tracing.py` and `bench/micro.py` reach into motlight by name (for
example `TimeDependentOperator.pruned`, `dynamics._rk4_step` and
`PulseSchedule.pair`).  Each case runs `bench/child.py RECORD --trace`, the
first also with `--micro`, in a fresh process, as `bench/run.py --trace 1`
does, and asserts that it exits 0 and writes a trace record; a name the
tracer reads that has gone from the package fails here.  The table4 child
runs on one CPU, as under `taskset -c 0`, so that its jump ensemble runs in
the traced process and not in a forked worker.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASES = [("table1", True), ("table2", False), ("table4", False), ("fig4", False),
         ("cascade_ideal", False)]


@pytest.mark.parametrize("experiment, micro", CASES)
def test_traced_child_run(tmp_path, tiny_runs, experiment, micro):
    (config,) = [c for c in tiny_runs if c["experiment"] == experiment]
    config_path, record_path = tmp_path / "config.json", tmp_path / "record.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    flags = ["--trace", "--micro"] if micro else ["--trace"]
    one_cpu = lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # noqa: E731
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(record_path), *flags, "--",
         experiment, "--config", str(config_path), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=one_cpu if experiment == "table4" else None,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(record_path.read_text())
    assert record["rc"] == 0
    assert record["trace"]["rk4_steps"] > 0
    if experiment == "table4":  # its ensemble jumps: the tracer sees two RK4 steps a jump
        with open(tmp_path / "out" / "table4.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        jumps = round(float(row["mean_jumps"]) * config["ntraj"])
        assert jumps > 0 and record["trace"]["bisect_steps"] == 2 * jumps
    if micro:
        assert record["micro"]["apply_s"] > 0
