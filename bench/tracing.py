"""Spans and counts around calls into motlight's layers, recorded from outside the package.

`Tracer.install()` replaces functions by timing wrappers in every loaded
`motlight` module that holds them, so calls made through names imported
elsewhere (`from .dynamics import evolve_master`) are seen too.  It wraps:

  hamiltonians  the public `build_*` builders, and the operator's
                `merged` / `pruned` when the runner calls them directly
  timedep       `TimeDependentOperator.compiled` (the compile, on a cache miss)
  dynamics      every public function; one that takes RK4 steps is a
                propagator.  `_rk4_step` and `_locate_jump` are wrapped to
                count steps, bisection steps and generator applications,
                and to time the applications.
  fock          the state constructors and `partial_trace`
  analysis      the fidelities and `reference_decayed_coherent`
  experiments   `write_outputs`

Spans stay in memory; `summary()` reduces them to per-round totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

STATE_CONSTRUCTORS = ("fock_state", "coherent_state", "cat_state",
                      "two_mode_squeezed_state", "truncated_phase_state")


def replace_everywhere(original, replacement):
    """Rebind every name in the loaded motlight modules that refers to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "motlight" or mod_name.startswith("motlight."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, depth, rk4 steps taken inside)
        self.depth = 0
        self.rk4_steps = 0
        self.bisect_steps = 0
        self.in_bisect = False
        self.deriv_calls = 0
        self.deriv_s = 0.0
        self.jumps = 0
        self.operators = []  # (operator, state) handed to propagators
        self.csv_bytes = 0
        self.pulses = []

    # -- wrapping -------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps0 = tracer.rk4_steps
            tracer.depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.depth -= 1
            tracer.spans.append((name, t0, t1, tracer.depth, tracer.rk4_steps - steps0))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _wrap_function(self, module, name, on_result=None):
        fn = getattr(module, name, None)
        if inspect.isfunction(fn):
            replace_everywhere(fn, self._span(f"{module.__name__.split('.')[-1]}.{name}", fn, on_result))

    def install(self):
        from motlight import analysis, dynamics, experiments, fock, hamiltonians, pulses, timedep

        for name in getattr(hamiltonians, "__all__", ()):
            if name.startswith("build_"):
                self._wrap_function(hamiltonians, name)
        for name in getattr(dynamics, "__all__", ()):
            self._wrap_function(dynamics, name, self._on_dynamics)
        for name in (*STATE_CONSTRUCTORS, "partial_trace"):
            self._wrap_function(fock, name)
        for name in ("fidelity_pure", "fidelity_mixed", "fidelity_phase_calibrated",
                     "reference_decayed_coherent"):
            self._wrap_function(analysis, name)
        self._wrap_function(experiments, "write_outputs", self._on_write)

        tdo = timedep.TimeDependentOperator
        for meth in ("merged", "pruned"):
            setattr(tdo, meth, self._span(f"timedep.{meth}", getattr(tdo, meth)))
        compiled = tdo.compiled
        tracer = self

        def traced_compiled(op):
            if getattr(op, "_compiled", None) is not None:
                return compiled(op)
            return tracer._span("timedep.compile", compiled)(op)

        tdo.compiled = traced_compiled

        pair = pulses.PulseSchedule.pair.__func__

        def traced_pair(cls, *args, **kwargs):
            result = pair(cls, *args, **kwargs)
            tracer.pulses.append(result)
            return result

        pulses.PulseSchedule.pair = classmethod(traced_pair)

        rk4 = getattr(dynamics, "_rk4_step", None)
        if rk4 is not None:
            def traced_rk4(deriv, t, y, dt):
                if tracer.in_bisect:
                    tracer.bisect_steps += 1
                else:
                    tracer.rk4_steps += 1
                return rk4(tracer._timed(deriv), t, y, dt)

            dynamics._rk4_step = traced_rk4
        locate = getattr(dynamics, "_locate_jump", None)
        if locate is not None:
            def traced_locate(*args, **kwargs):
                tracer.in_bisect = True
                try:
                    return locate(*args, **kwargs)
                finally:
                    tracer.in_bisect = False

            dynamics._locate_jump = traced_locate

    def _timed(self, deriv):
        tracer = self

        def timed(t, y):
            t0 = time.perf_counter()
            out = deriv(t, y)
            tracer.deriv_s += time.perf_counter() - t0
            tracer.deriv_calls += 1
            return out

        return timed

    def _on_dynamics(self, args, kwargs, result):
        from motlight.fock import StateVector
        from motlight.timedep import TimeDependentOperator

        jump_times = getattr(result, "jump_times", None)
        if jump_times is not None:
            self.jumps += len(jump_times)
        if args and isinstance(args[0], TimeDependentOperator):
            state = next((a for a in args[1:4] if isinstance(a, StateVector)), None)
            self.operators.append((args[0], state))

    def _on_write(self, args, kwargs, result):
        import os

        self.csv_bytes += os.path.getsize(result[0])

    # -- reduction ------------------------------------------------------
    def summary(self) -> dict:
        """Per-round totals and counts; times in seconds."""
        def total(pred):
            return sum(t1 - t0 for name, t0, t1, depth, steps in self.spans if pred(name, depth, steps))

        top = [s for s in self.spans if s[3] == 0]
        props = [s for s in top if s[0].startswith("dynamics.") and s[4] > 0]
        prop_s = sum(t1 - t0 for _, t0, t1, _, _ in props)
        # innermost propagator spans: one integrated state or density matrix each
        stepping = [s for s in self.spans if s[0].startswith("dynamics.") and s[4] > 0]
        inner = [s for s in stepping
                 if not any(o is not s and s[1] <= o[1] and o[2] <= s[2] for o in stepping)]
        nnz, terms = 0, 0
        if self.operators:
            op = max((o for o, _ in self.operators), key=lambda o: sum(t.matrix.nnz for t in o.terms))
            nnz, terms = sum(t.matrix.nnz for t in op.terms), len(op.terms)
        return {
            "build_s": total(lambda n, d, s: d == 0 and (
                n.startswith("hamiltonians.") or n in ("timedep.merged", "timedep.pruned"))),
            "compile_s": total(lambda n, d, s: n == "timedep.compile"),
            "state_s": total(lambda n, d, s: d == 0 and n.split(".")[-1] in STATE_CONSTRUCTORS),
            "write_s": total(lambda n, d, s: n == "experiments.write_outputs"),
            "csv_bytes": self.csv_bytes,
            "propagator_s": prop_s,
            "rk4_steps": self.rk4_steps,
            "bisect_steps": self.bisect_steps,
            "apply_calls": self.deriv_calls,
            "apply_s": self.deriv_s,
            "jumps": self.jumps,
            "trajectories": len(inner),
            "trajectory_s": sum(t1 - t0 for _, t0, t1, _, _ in inner),
            "nnz": nnz,
            "terms": terms,
        }
