"""Independent jobs on forked worker processes, one per CPU the process may run on.

`run_jobs` runs zero-argument callables and returns their results in order,
as `[job() for job in jobs]` would.  It forks at most
len(os.sched_getaffinity(0)) - 1 workers and runs a share itself, starting
with the first job to run; every process takes the next job not yet taken.
Given each job's estimated cost, the jobs are taken costliest first (ties in
their listed order), so the longest job does not run alone at the end.  A
job that runs inside another's (in a worker, or in the parent while its
workers run) runs its own jobs in turn: pools never nest.  The CPU affinity
mask is the one limit, so `taskset -c 0 simulate ...` runs everything in one
process, in turn.  `processes` gives the number of processes a call would
run, for a caller that splits its work into that many jobs.

The warnings each job raises are replayed in the parent in job order, and
the first job in order that raised has its exception raised there, after
the warnings of the jobs before it: the caller sees what a run in turn would
have shown.  A failure stops the taking of jobs, so when jobs run costliest
first, a job listed before the failed one may not have run; its warnings and
its own failure are then not seen.  Every worker is joined before `run_jobs`
returns or raises.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import resource
import warnings

__all__ = ["processes", "run_jobs", "usage"]

_nested = False  # true in a worker, and in the parent while its workers run
_peak = 1  # the most processes run_jobs has used at once inside usage()


def run_jobs(jobs, costs=None) -> list:
    """The results of the zero-argument callables `jobs`, in order, taken costliest
    first by the numbers `costs` if given; see the module docstring."""
    global _nested, _peak
    jobs = list(jobs)
    nproc = processes(len(jobs))
    if nproc < 2:
        return [job() for job in jobs]
    import multiprocessing  # only a run that forks pays for the import

    # the listed index of the job taken k-th
    order = list(range(len(jobs))) if costs is None else sorted(
        range(len(jobs)), key=lambda i: costs[i], reverse=True)
    ctx = multiprocessing.get_context("fork")
    counter, lock = mmap.mmap(-1, 8), ctx.Lock()  # the next job to take, shared
    counter[:] = (1).to_bytes(8, "little")  # the parent takes the first

    def take(stop: bool = False) -> int:
        with lock:
            i = int.from_bytes(counter[:], "little")
            counter[:] = (len(jobs) if stop else min(i + 1, len(jobs))).to_bytes(8, "little")
        return i

    def share(k: int) -> dict:
        """Run the k-th job to take, then each next one not yet taken, until none is
        left or one fails; their outcomes by listed index."""
        done = {}
        while k < len(jobs):
            i = order[k]
            done[i] = _outcome(jobs[i])
            if not done[i][0]:
                take(stop=True)
                break
            k = take()
        return done

    def work(conn):  # in a worker, which forks with _nested set
        conn.send(share(take()))
        conn.close()

    workers = []
    _nested, failed = True, True
    try:
        for _ in range(nproc - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(sender,), daemon=True)
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        _peak = max(_peak, nproc)
        outcomes = share(0)
        for proc, receiver in workers:
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"a worker process exited with code {proc.exitcode} "
                                   "before it sent its results") from None
        failed = False
    finally:
        _nested = False
        for proc, receiver in workers:
            if failed:
                proc.terminate()
            proc.join()
            receiver.close()
    results = []
    for i in range(len(jobs)):
        if i not in outcomes:  # not run: a job taken before it failed
            continue
        ok, value, caught = outcomes[i]
        for w in caught:
            warnings.warn_explicit(*w)
        if not ok:
            raise value
        results.append(value)
    return results


def processes(njobs: int) -> int:
    """The number of processes that run_jobs, called here and now, runs njobs jobs on."""
    return 1 if _nested else min(njobs, len(os.sched_getaffinity(0)))


def _outcome(job) -> tuple:
    """(True, result, warnings) or (False, exception, warnings) of one job.

    The warnings are the (message, category, filename, lineno) that the
    job's filters let through, for the parent to replay.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            ok, value = True, job()
        except Exception as exc:
            ok, value = False, exc
    return ok, value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


@contextlib.contextmanager
def usage():
    """Yield a dict that holds, once the block is done, what the run inside it used:
    `processes`, the most processes run_jobs ran at once, and `cpu_s`, the CPU
    seconds of this process and of the workers it joined."""
    global _peak
    _peak, record, start = 1, {}, _cpu_s()
    try:
        yield record
    finally:
        record.update(processes=_peak, cpu_s=round(_cpu_s() - start, 2))


def _cpu_s() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                   resource.getrusage(resource.RUSAGE_CHILDREN)))
