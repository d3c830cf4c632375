"""Command line entry point: `simulate <experiment> [options]`.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 convergence
warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

from .errors import IntegrationError, ResourceLimitError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment, write_outputs
from .fock import TruncationWarning
from .parallel import usage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STRICT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run one of the packaged motional-entanglement experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file (see ExperimentConfig)")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, help="master RNG seed for trajectory ensembles")
    parser.add_argument("--dims", help="comma-separated truncation dims, e.g. 18,4,4,18")
    parser.add_argument("--steps-per-period", type=int,
                        help="RK4 steps per fastest period (cascade_ideal: per 2/Gamma_max)")
    parser.add_argument("--exact-trig", action="store_true",
                        help="use the exact sine couplings in place of their third-order "
                             "Lamb-Dicke expansion (same rotating frame)")
    parser.add_argument("--jumps", choices=["on", "off"],
                        help="sample quantum jumps instead of the no-jump branch")
    parser.add_argument("--ntraj", type=int, help="number of trajectories when jumps are on")
    parser.add_argument("--strict", action="store_true",
                        help="escalate truncation/convergence warnings to exit code 4")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file's or the default config, with the given flags applied.

    The flags go through dataclasses.replace, so ExperimentConfig checks them
    as it checks a config file.
    """
    if args.config:
        config = ExperimentConfig.from_json(args.config)
        if config.experiment != args.experiment:
            raise ValueError(
                f"config is for {config.experiment!r} but {args.experiment!r} was requested"
            )
    else:
        config = ExperimentConfig(experiment=args.experiment)
    flags = {
        "out_dir": args.out,
        "seed": args.seed,
        "dims": None if args.dims is None else [int(d) for d in args.dims.split(",")],
        "steps_per_period": args.steps_per_period,
        "exact_trig": args.exact_trig or None,
        "jumps": None if args.jumps is None else args.jumps == "on",
        "ntraj": args.ntraj,
        "strict": args.strict or None,
    }
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with usage() as run:
                rows = run_experiment(config)
        except (IntegrationError, ArithmeticError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (ValueError, ResourceLimitError) as exc:  # e.g. dims too small, or over the cap
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        csv_path, meta_path = write_outputs(config, rows, run)

    print(f"wrote {csv_path} and {meta_path} ({len(rows)} rows)")
    flagged = [w for w in caught if issubclass(w.category, (TruncationWarning, RuntimeWarning))]
    for w in flagged:
        print(f"warning: {w.message}", file=sys.stderr)
    if config.strict and flagged:
        print("strict mode: warnings escalated", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
