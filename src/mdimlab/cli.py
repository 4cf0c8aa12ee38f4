"""Command line front end: run one named suite and emit its report.

Exit status is 0 exactly when the suite recorded zero failing rows, 2 for
an unusable configuration (a machine over its item cap included, which is
refused before any program runs), and 1 for any other runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SUITE_NAMES,
    ExperimentConfig,
    InvalidConfigError,
    config_from_mapping,
    load_config,
    run_suite,
    write_report,
)
from .machine import ResourceExceededError

EXIT_FAILURES = 1
EXIT_BAD_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdimlab",
        description="Run a named verification suite and print its report.",
    )
    parser.add_argument("suite", choices=SUITE_NAMES, help="suite to run")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment description")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        dest="fmt", help="report format (default json)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to this file")
    return parser


def _assemble(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
        if cfg.suite != args.suite:
            raise InvalidConfigError(
                f"config is for suite {cfg.suite!r}, not {args.suite!r}"
            )
    else:
        cfg = config_from_mapping({"suite": args.suite})
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.fmt is not None:
        overrides["out_format"] = args.fmt
    if args.out is not None:
        overrides["out_path"] = args.out
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    _check_out_path(cfg.out_path)
    return cfg


def _check_out_path(path) -> None:
    """Reject an ``out`` (config key or --out) the report cannot be written to."""
    if path is None:
        return
    if not isinstance(path, str):
        raise InvalidConfigError(f"out must be a file path, not {path!r}")
    directory = os.path.dirname(path) or "."
    if (os.path.isdir(path) or not os.path.isdir(directory)
            or not os.access(directory, os.W_OK)):
        raise InvalidConfigError(
            f"out {path!r} is not a file in a writable directory"
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble(args)
        report = run_suite(cfg)
    except (InvalidConfigError, ResourceExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    text = write_report(report, cfg)
    sys.stdout.write(text)
    return 0 if report.fail_count == 0 else EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
