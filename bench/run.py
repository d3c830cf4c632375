"""Benchmark of motlight's four simulation paths, run through its CLI.

usage: python3 bench/run.py --workload {large,small,all}
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A run repeats whole rounds of the
workload's `simulate` invocations (see workloads.py), each a fresh Python
process started as a user would start one, for as many rounds as fit in
--seconds (at least one).
Every invocation is one operation; it fails when it exits with a nonzero
code or its output fails the workload's check.  The last line printed is
one JSON object:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over
the run's rounds of the round's total: wall_s, setup_s, cpu_s, and
peak_rss_mb (the round's largest).  With --trace 1 every invocation also
records the layer spans and counts of tracing.py, the first of each round
times the per-call costs of micro.py, and the metrics are the per-layer
ones (see README.md).  --workload all runs the untraced benchmark of every
workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "experiments.write_ms": "ms",
    "experiments.csv_kb": "KB",
    "hamiltonians.build_s": "s",
    "hamiltonians.nnz": "count",
    "hamiltonians.terms": "count",
    "timedep.compile_s": "s",
    "timedep.apply_ms": "ms",
    "timedep.apply_gbs": "GB/s",
    "timedep.apply_cpu_per_wall": "ratio",
    "pulses.amplitude_us": "us",
    "dynamics.rk4_steps": "count",
    "dynamics.apply_calls": "count",
    "dynamics.step_ms": "ms",
    "dynamics.self_s": "s",
    "dynamics.jumps": "count",
    "dynamics.trajectory_s": "s",
    "dynamics.master_deriv_ms": "ms",
    "dynamics.cascade_deriv_ms": "ms",
    "analysis.calibrated_fidelity_ms": "ms",
    "analysis.fidelity_mixed_ms": "ms",
    "analysis.reference_ms": "ms",
    "fock.partial_trace_ms": "ms",
    "fock.state_ms": "ms",
    "trace.wall_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One benchmark run of one workload: its rounds, checks and counts."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.invocations = workloads.invocations(name, seed)
        self.references = workloads.compute_references(name)
        self.work = BENCH / "_work" / f"{name}-{os.getpid()}"
        self.env = _child_env()
        self.state: dict = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.rounds: list[list[dict]] = []  # the records of each fully successful round

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for inv in self.invocations:
            with open(self.work / f"{inv['label']}.config.json", "w") as fh:
                json.dump(inv["config"], fh)
        # warm the file cache and, where bytecode is written, compile it, as a
        # user's second run would find them; this process is not measured
        subprocess.run([sys.executable, "-c", "import motlight.cli"], env=self.env,
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)

    def invoke(self, index: int, inv: dict):
        label = inv["label"]
        record_path = self.work / f"{label}.record.json"
        out_dir = self.work / f"out-{label}"
        record_path.unlink(missing_ok=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        flags = ["--trace"] + (["--micro"] if index == 0 else []) if self.trace else []
        cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), *flags, "--",
               inv["config"]["experiment"], "--config",
               str(self.work / f"{label}.config.json"), "--out", str(out_dir)]
        self.attempted += 1
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(label, f"no exit within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not record_path.exists():
            return self._fail(label, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            with open(record_path) as fh:
                record = json.load(fh)
            with open(out_dir / f"{inv['config']['experiment']}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            errors = inv["check"](rows, proc.stderr, self.references, self.state)
            if "t_setup" not in record:
                errors.append("no call into motlight.dynamics was seen")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"output not as expected: {exc!r}"]
        if errors:
            self.correct = False
            return self._fail(label, "; ".join(errors))
        record["wall_s"] = record["t_end"] - t_spawn
        record["setup_s"] = record["t_setup"] - t_spawn
        return record

    def _fail(self, label: str, why: str):
        self.failed += 1
        print(f"{self.name}/{label}: FAILED: {why}", file=sys.stderr)
        return None

    def run(self, seconds: float):
        self.prepare()
        t0 = time.monotonic()
        durations = []
        try:
            # start another round only while it is expected to end within the run
            while not durations or time.monotonic() - t0 + statistics.mean(durations) <= seconds:
                t_round = time.monotonic()
                records = [self.invoke(i, inv) for i, inv in enumerate(self.invocations)]
                durations.append(time.monotonic() - t_round)
                if all(r is not None for r in records):
                    self.rounds.append(records)
                    print(f"{self.name} round {len(self.rounds)}: " + ", ".join(
                        f"{k} {sum(r[k] for r in records):.3f}" for k in ("wall_s", "setup_s", "cpu_s")),
                        file=sys.stderr, flush=True)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    # -- metrics -------------------------------------------------------
    def _median(self, per_round) -> float:
        return statistics.median(per_round(records) for records in self.rounds)

    def end_to_end(self) -> dict:
        def total(key):
            return lambda records: sum(r[key] for r in records)

        return {
            "wall_s": self._median(total("wall_s")),
            "setup_s": self._median(total("setup_s")),
            "cpu_s": self._median(total("cpu_s")),
            "peak_rss_mb": self._median(lambda records: max(r["rss_mb"] for r in records)),
        }

    def per_layer(self) -> dict:
        def tr(key):
            return lambda records: sum(r["trace"][key] for r in records)

        def micro(key, scale=1.0):
            return lambda records: records[0]["micro"][key] * scale

        def ratio(num, den, scale=1.0):
            return lambda records: scale * tr(num)(records) / max(tr(den)(records), 1)

        m = self._median
        apply_ms = m(lambda rs: rs[0]["micro"].get("apply_s", 0.0) * 1e3)
        moved = m(lambda rs: rs[0]["micro"].get("bytes", 0))
        return {
            "cli.import_s": statistics.median(r["import_s"] for rs in self.rounds for r in rs),
            "experiments.write_ms": m(tr("write_s")) * 1e3,
            "experiments.csv_kb": m(tr("csv_bytes")) / 1024.0,
            "hamiltonians.build_s": m(tr("build_s")),
            "hamiltonians.nnz": m(lambda rs: max(r["trace"]["nnz"] for r in rs)),
            "hamiltonians.terms": m(lambda rs: max(r["trace"]["terms"] for r in rs)),
            "timedep.compile_s": m(tr("compile_s")),
            "timedep.apply_ms": apply_ms,
            "timedep.apply_gbs": moved / (apply_ms * 1e-3) / 1e9 if apply_ms else 0.0,
            "timedep.apply_cpu_per_wall": m(lambda rs: rs[0]["micro"].get("cpu_per_wall", 0.0)),
            "pulses.amplitude_us": m(micro("amplitude_s", 1e6)),
            "dynamics.rk4_steps": m(tr("rk4_steps")),
            "dynamics.apply_calls": m(tr("apply_calls")),
            "dynamics.step_ms": m(ratio("propagator_s", "rk4_steps", 1e3)),
            "dynamics.self_s": m(lambda rs: tr("propagator_s")(rs) - tr("apply_s")(rs)),
            "dynamics.jumps": m(tr("jumps")),
            "dynamics.trajectory_s": m(ratio("trajectory_s", "trajectories")),
            "dynamics.master_deriv_ms": m(micro("master_deriv_s", 1e3)),
            "dynamics.cascade_deriv_ms": m(micro("cascade_deriv_s", 1e3)),
            "analysis.calibrated_fidelity_ms": m(micro("calibrated_fidelity_s", 1e3)),
            "analysis.fidelity_mixed_ms": m(micro("fidelity_mixed_s", 1e3)),
            "analysis.reference_ms": m(micro("reference_s", 1e3)),
            "fock.partial_trace_ms": m(micro("partial_trace_s", 1e3)),
            "fock.state_ms": m(tr("state_s")) * 1e3,
            "trace.wall_s": m(lambda rs: sum(r["wall_s"] for r in rs)),
        }

    def result(self) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        values = (self.per_layer() if self.trace else self.end_to_end()) if self.rounds else {}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "motlight" / "cli.py").is_file():
        print(f"no motlight package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        run = Run(args.workload, args.seed, bool(args.trace))
        run.run(args.seconds)
        print(json.dumps(run.result()))
        return 0
    results = {}
    print(f"{'workload':<10}{'attempted':>10}{'failed':>8}"
          + "".join(f"{k + ' (' + u + ')':>18}" for k, u in END_TO_END.items()))
    for name in workloads.WORKLOADS:
        run = Run(name, args.seed, False)
        run.run(args.seconds)
        results[name] = res = run.result()
        print(f"{name:<10}{res['attempted']:>10}{res['failed']:>8}"
              + "".join(f"{res['metrics'][k]['value']:>18.4f}" for k in END_TO_END), flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
