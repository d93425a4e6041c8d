"""Command-line entry point.

Subcommands: synth, group, rules, eval, tune. Exit status: 0 success,
1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

# One BLAS thread, set before numpy loads: PCA's bits vary with the count.
# numpy loads when group, tune or synth first runs, never with these
# imports, so rules and eval run without it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .core import DataError  # noqa: E402
from .pipeline import (  # noqa: E402
    PipelineConfig,
    UsageError,
    load_config,
    run_eval,
    run_group,
    run_rules,
    run_synth,
    run_tune,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

#: Each command's stage and help text. A stage returns the text it prints.
COMMANDS = {
    "synth": (run_synth, "generate a synthetic flow log with ground truth"),
    "group": (run_group, "learn security groups from a flow log"),
    "rules": (run_rules, "synthesize the firewall ruleset from grouping artifacts"),
    "eval": (run_eval, "score persisted groups against ground truth"),
    "tune": (run_tune, "sweep a config grid against a homogeneity floor"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="microseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to key = value config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        if name in ("group", "tune"):  # the stages that parse the flow log
            cmd.add_argument("--strict", action="store_true", help="fail on any malformed line")
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    overrides = {} if args.seed is None else {"seed": args.seed}
    if getattr(args, "strict", False):
        overrides["strict"] = True
    return replace(load_config(args.config), **overrides)


def _print_summary(text: str) -> None:
    """Write a stage's summary to stdout, as UTF-8 whatever the locale: it
    can hold the configured dataset name or out_dir. No stdout (None) when
    fd 1 is closed; a text-only stream (say an io.StringIO) takes the text
    as is. A failed write, to a full disk or a closed pipe, comes after
    every artifact is written and is a :class:`DataError`."""
    if sys.stdout is None:
        return
    stream = getattr(sys.stdout, "buffer", sys.stdout)
    try:
        sys.stdout.flush()
        stream.write(text if stream is sys.stdout else text.encode("utf-8"))
        stream.flush()
    except OSError as exc:
        raise DataError(f"cannot write the summary to stdout: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        stage, _ = COMMANDS[args.command]
        _print_summary(stage(_configure(args)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
