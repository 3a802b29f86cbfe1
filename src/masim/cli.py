"""Command-line entry point.

``masim run -c config.json`` executes an experiment; ``masim validate -c
config.json`` reports config violations.  Exit codes: 0 success, 2 config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ConfigError, load_config, run_experiment, validate_config_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masim", description="Movable-antenna system simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("-c", "--config", required=True, help="path to the config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--trials", type=int, default=None,
                     help="override the trial/seed count where the kind supports it")
    run.add_argument("-o", "--output-dir", default=None,
                     help="output directory (default: config, then $MASIM_OUTPUT_DIR, then cwd)")
    run.add_argument("--workers", type=int, choices=(1,), default=1,
                     help="worker count; runs are serial, so only 1 is accepted")

    val = sub.add_parser("validate", help="check a config and list violations")
    val.add_argument("-c", "--config", required=True, help="path to the config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        violations = validate_config_dict(cfg)
        if violations:
            for v in violations:
                print(f"violation: {v}")
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK

    try:
        cfg = load_config(args.config)
        summary = run_experiment(cfg, output_dir=args.output_dir, seed=args.seed,
                                 trials=args.trials)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure, staged artifacts discarded
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{summary['kind']}: done in {summary['wall_time_s']:.2f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
