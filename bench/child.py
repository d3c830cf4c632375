"""One `simulate` invocation in a fresh process, timed from the inside.

usage: python3 child.py RECORD.json [--trace [--micro]] -- <simulate arguments>

Runs `motlight.cli.main` on the arguments and writes RECORD.json with the
exit code and, on the clock the parent reads before it starts this process
(CLOCK_MONOTONIC), the time of the first call into a `dynamics` function
and the time the CLI returned, by which every artifact is written.  It also
records the process's CPU time (all threads) and peak resident set at
that point, and the time `import motlight.cli` took.  With --trace the
layer spans and counts of `tracing.Tracer` are added, and with --micro,
after the CLI has returned, the per-call costs of `micro.run_all`.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _hook_first_dynamics_call(stamps: dict):
    """Record when the first public function of motlight.dynamics is entered."""
    import inspect

    from motlight import dynamics
    from tracing import replace_everywhere

    for name in getattr(dynamics, "__all__", ()):
        fn = getattr(dynamics, name)
        if not inspect.isfunction(fn):
            continue

        def hooked(*args, _fn=fn, **kwargs):
            stamps.setdefault("t_setup", time.monotonic())
            return _fn(*args, **kwargs)

        replace_everywhere(fn, hooked)


def main(argv: list[str]) -> int:
    record_path, flags = argv[0], argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    from motlight import cli

    record = {"import_s": time.perf_counter() - t0}
    tracer = None
    if "--trace" in flags:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    _hook_first_dynamics_call(record)
    rc = cli.main(cli_args)
    record["t_end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(rc=rc, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
    if tracer is not None:
        record["trace"] = tracer.summary()
        if "--micro" in flags:
            import micro

            record["micro"] = micro.run_all(tracer)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
