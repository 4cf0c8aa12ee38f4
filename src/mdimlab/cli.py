"""Command line front end: run one named suite and emit its report.

Exit status is 0 exactly when the suite recorded zero failing rows, 2 for
an unusable configuration (a machine over its item cap included, which is
refused before any program runs), and 1 for any other runtime error.
"""

from __future__ import annotations

import argparse
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
                        help="sampling seed of the geometry suite, the "
                        "only suite that reads one")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        dest="fmt", help="report format (default json)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to this file")
    return parser


def _assemble(args: argparse.Namespace) -> ExperimentConfig:
    """Parse the config once, each given flag replacing its config key.
    A file for another suite is refused before any other key is read; an
    unknown or missing suite is ``config_from_mapping``'s first check."""
    flags = {"seed": args.seed, "format": args.fmt, "out": args.out}
    flags = {key: value for key, value in flags.items() if value is not None}
    data = load_config(args.config) if args.config else {"suite": args.suite}
    suite = data.get("suite")
    if suite != args.suite and suite in SUITE_NAMES:
        raise InvalidConfigError(
            f"config is for suite {suite!r}, not {args.suite!r}"
        )
    return config_from_mapping({**data, **flags})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble(args)
        report = run_suite(cfg)
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    text = write_report(report, cfg)
    sys.stdout.write(text)
    return 0 if report.fail_count == 0 else EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
