"""The fork pool: job order, nesting, warnings and exceptions, and no worker left behind."""

import csv
import json
import multiprocessing
import os
import time
import warnings

import pytest

from motlight import experiments
from motlight.cli import main
from motlight.errors import IntegrationError
from motlight.fock import TruncationWarning
from motlight.parallel import run_jobs, usage


@pytest.fixture
def two_cpus(monkeypatch):
    """run_jobs sees two CPUs, so it forks one worker even on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _pid_after(seconds):
    def job():
        time.sleep(seconds)
        return os.getpid()
    return job


def test_jobs_return_in_order_and_the_parent_runs_the_first(two_cpus):
    # the parent sleeps in job 0, so the worker takes job 1
    pids = run_jobs([_pid_after(0.3), _pid_after(0.0)])
    assert pids[0] == os.getpid() != pids[1]
    assert multiprocessing.active_children() == []
    assert run_jobs([lambda k=k: k * k for k in range(7)]) == [k * k for k in range(7)]
    assert run_jobs([]) == []


def test_one_cpu_runs_every_job_here(one_cpu):
    assert run_jobs([_pid_after(0.0)] * 3) == [os.getpid()] * 3


def test_pools_do_not_nest(two_cpus):
    # a job's own jobs run in turn in the job's process
    def outer():
        return os.getpid(), run_jobs([_pid_after(0.0)] * 2)

    (p0, inner0), (p1, inner1) = run_jobs([lambda: (time.sleep(0.3), outer())[1], outer])
    assert inner0 == [p0, p0] and inner1 == [p1, p1] and p0 != p1


def _warns_then(text, seconds=0.0, error=None):
    def job():
        time.sleep(seconds)
        warnings.warn(text, TruncationWarning)
        if error is not None:
            raise error(text)
        return text
    return job


def test_warnings_replay_in_job_order_and_the_first_failure_is_raised(two_cpus):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_jobs([_warns_then("a", 0.3), _warns_then("b")]) == ["a", "b"]
        assert [str(w.message) for w in caught] == ["a", "b"]
        caught.clear()
        # job 1 fails first in time, in the worker; job 0 fails later in the
        # parent and is first in order, as a run in turn would have it
        with pytest.raises(IntegrationError, match="first"):
            run_jobs([_warns_then("first", 0.3, IntegrationError),
                      _warns_then("second", 0.0, ValueError), _warns_then("third")])
        assert [str(w.message) for w in caught] == ["first"]
        caught.clear()
        with pytest.raises(ValueError, match="second"):
            run_jobs([_warns_then("first", 0.3), _warns_then("second", 0.0, ValueError)])
        assert [str(w.message) for w in caught] == ["first", "second"]
    assert multiprocessing.active_children() == []


def _busy(cpu_seconds):
    def job():
        start = time.process_time()
        while time.process_time() - start < cpu_seconds:
            pass
    return job


def test_usage_counts_the_workers(two_cpus):
    with usage() as run:
        run_jobs([_busy(0.2), _busy(0.2)])
    assert run["processes"] == 2
    assert run["cpu_s"] >= 0.35  # the worker's 0.2 s included


def _outputs(out, experiment):
    with open(out / f"{experiment}.csv") as fh:
        rows = [{k: v for k, v in row.items() if k != "conv_runtime_s"}
                for row in csv.DictReader(fh)]
    return rows, json.loads((out / f"{experiment}.meta.json").read_text())


def test_pool_and_one_cpu_write_the_same_csv(tmp_path, monkeypatch, tiny_runs):
    # every tiny config, with as many processes as the machine gives and on
    # one CPU: the same CSV apart from the runtimes
    cpus = len(os.sched_getaffinity(0))
    for cfg in tiny_runs:
        name = cfg["experiment"]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert main([name, "--config", str(path), "--out", str(tmp_path / "pool")]) == 0
            with monkeypatch.context() as m:
                m.setattr(os, "sched_getaffinity", lambda pid: {0})
                assert main([name, "--config", str(path), "--out", str(tmp_path / "one")]) == 0
        (pool, pool_meta), (one, one_meta) = (_outputs(tmp_path / d, name) for d in ("pool", "one"))
        assert pool == one, name
        assert one_meta["processes"] == 1 and one_meta["cpu_s"] >= 0.0
        # two sectors of a phase state, two trajectories, three inputs, two constructions
        forks = name in ("table2", "table3", "table4", "cascade_ideal", "collective_demo")
        assert pool_meta["processes"] == (min(cpus, 2) if forks else 1), name
    assert multiprocessing.active_children() == []


def _two_row_transfer(tmp_path):
    """A table4 config of two rows, Fock |1> at 3x2x2x3, listed costliest first; its path."""
    path = tmp_path / "table4.json"
    path.write_text(json.dumps({
        "experiment": "table4", "dims": [3, 2, 2, 3], "steps_per_period": 20,
        "params": {"rows": [[0.1, 3.0, 0.5], [0.1, 2.0, 0.5]], "state": ["fock", 1],
                   "drive_max": 8.0, "window_halfwidth": 2.0}}))
    return path


def _in_the_worker(monkeypatch, act):
    """Wrap the transfer runner's state builder: the parent dawdles, so row 1
    runs in the worker, and there each call first does act()."""
    parent, original = os.getpid(), experiments._transfer_state

    def wrapped(*args):
        if os.getpid() == parent:
            time.sleep(0.3)
        else:
            act()
        return original(*args)

    monkeypatch.setattr(experiments, "_transfer_state", wrapped)


@pytest.mark.parametrize("error, code", [(IntegrationError, 3), (ArithmeticError, 3),
                                         (ValueError, 2)])
def test_an_error_in_a_worker_keeps_its_exit_code(tmp_path, monkeypatch, two_cpus, capsys,
                                                  error, code):
    def fail():
        raise error("raised in the worker")

    _in_the_worker(monkeypatch, fail)
    assert main(["table4", "--config", str(_two_row_transfer(tmp_path)),
                 "--out", str(tmp_path)]) == code
    assert "raised in the worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("strict, code", [(False, 0), (True, 4)])
def test_a_warning_in_a_worker_is_counted_and_reaches_strict(tmp_path, monkeypatch, two_cpus,
                                                             capsys, strict, code):
    _in_the_worker(monkeypatch, lambda: warnings.warn("leaks in the worker", TruncationWarning))
    args = ["table4", "--config", str(_two_row_transfer(tmp_path)), "--out", str(tmp_path)]
    assert main(args + ["--strict"] * strict) == code
    rows, meta = _outputs(tmp_path, "table4")
    assert [int(r["conv_truncation_warnings"]) for r in rows] == [0, 2]  # input and target
    assert meta["processes"] == 2
    assert capsys.readouterr().err.count("warning: leaks in the worker") == 2
    assert multiprocessing.active_children() == []


def _taken(log):
    """The jobs each process ran, in the order it ran them, from the lines 'pid job' of log."""
    taken = {}
    for line in log.read_text().splitlines():
        pid, job = line.split()
        taken.setdefault(int(pid), []).append(float(job))
    return taken


def test_jobs_are_taken_costliest_first_and_return_in_order(two_cpus, tmp_path):
    log = tmp_path / "log"

    def job(k):
        def run():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {k}\n")
            time.sleep(0.05)
            return k
        return run

    costs = [1.0, 5.0, 3.0, 4.0, 2.0]
    assert run_jobs([job(k) for k in range(5)], costs=costs) == list(range(5))
    taken = _taken(log)
    assert taken[os.getpid()][0] == 1  # the parent takes the costliest
    for jobs in taken.values():  # every process takes ever cheaper jobs
        assert [costs[int(k)] for k in jobs] == sorted((costs[int(k)] for k in jobs), reverse=True)
    assert sorted(k for jobs in taken.values() for k in jobs) == list(range(5))


def test_transfer_rows_run_costliest_first_into_the_listed_csv(tmp_path, monkeypatch, two_cpus):
    # three table4 rows listed by rising cost nu / eta^2; each process runs its
    # rows costliest first, and the CSV keeps the listed order of a run in turn
    path = tmp_path / "table4.json"
    path.write_text(json.dumps({
        "experiment": "table4", "dims": [3, 2, 2, 3], "steps_per_period": 20,
        "params": {"rows": [[0.1, 2.0, 0.5], [0.1, 3.0, 0.5], [0.1, 4.0, 0.5]],
                   "state": ["fock", 1], "drive_max": 8.0, "window_halfwidth": 2.0}}))
    log, build = tmp_path / "log", experiments.build_cascaded_effective

    def logged(p, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {p.nu_x}\n")
        return build(p, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_cascaded_effective", logged)
    assert main(["table4", "--config", str(path), "--out", str(tmp_path / "pool")]) == 0
    taken = _taken(log)
    assert taken[os.getpid()][0] == 4.0  # the parent takes the costliest
    for nus in taken.values():
        assert nus == sorted(nus, reverse=True)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["table4", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
    (pool, _), (one, _) = (_outputs(tmp_path / d, "table4") for d in ("pool", "one"))
    assert [float(r["nu_x"]) for r in pool] == [2.0, 3.0, 4.0]
    assert pool == one
    assert multiprocessing.active_children() == []
