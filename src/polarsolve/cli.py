"""Command-line entry point.

Subcommands mirror the experiment kinds: solve-single2p, solve-single,
solve-stackelberg, solve-mpe, sweep, oracle-check. Each accepts
``--config <path>``, ``--out <dir>`` and repeatable ``--override
key=value`` flags. Exit codes: 0 success, 1 oracle-check mismatch,
2 config validation failure, 3 solver non-convergence (artifacts are
still written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import EXPERIMENTS, ConfigError, ExperimentConfig, apply_overrides, load_config
from .runner import EXIT_CONFIG, run_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsolve",
        description="Solvers for a dynamic model of elite persuasion under majority rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run a {name} experiment")
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--out", help="output directory (overrides output_dir)")
        cmd.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key; repeatable",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = ExperimentConfig()
        config = apply_overrides(config, args.override)
        if config.experiment and config.experiment != args.command:
            raise ConfigError(
                "experiment",
                f"config requests {config.experiment!r} but the {args.command!r} subcommand was invoked",
            )
        config = replace(config, experiment=args.command)
        result = run_config(config, out_dir=args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.command}: exit {result.exit_code}, artifacts in {result.out_dir}")
    return result.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
