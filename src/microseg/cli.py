"""Command-line entry point.

Subcommands: synth, group, rules, eval, tune. Exit status: 0 success,
1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .flows import DataError
from .metrics import REPORT_HEADER
from .pipeline import (
    GROUP_SUMMARY_HEADER,
    PipelineConfig,
    UsageError,
    _validate_config,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="microseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic flow log with ground truth"),
        ("group", "learn security groups from a flow log"),
        ("rules", "synthesize the firewall ruleset from grouping artifacts"),
        ("eval", "score persisted groups against ground truth"),
        ("tune", "sweep a config grid against a homogeneity floor"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to key = value config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--strict", action="store_true", help="fail on any malformed line")
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.strict:
        config.strict = True
    _validate_config(config)
    return config


def _dispatch(args: argparse.Namespace) -> None:
    config = _configure(args)
    if args.command == "synth":
        summary = run_synth(config)
        print(
            f"synth: {summary['flows']} flows ({summary['noise_flows']} noise), "
            f"{summary['endpoints']} endpoints in {summary['groups']} groups "
            f"-> {config.out_dir}"
        )
    elif args.command == "group":
        summary = run_group(config)
        print(GROUP_SUMMARY_HEADER)
        print(
            f"{summary['dataset']},{summary['asset_qty']},"
            f"{summary['suggested_group_qty']},{summary['runtime_s']:.1f}"
        )
    elif args.command == "rules":
        summary = run_rules(config)
        print(
            f"rules: {summary['rules']} rules; any_to_any={summary['any_to_any']} "
            f"duplicates={summary['duplicates']} "
            f"empty_group_refs={summary['empty_group_refs']} "
            f"redundant_pairs={summary['redundant_pairs']}"
        )
    elif args.command == "eval":
        _, row = run_eval(config)
        print(REPORT_HEADER)
        print(row)
    elif args.command == "tune":
        summary = run_tune(config)
        flag = " (below floor)" if summary["below_floor"] else ""
        print(
            f"tune: winner grid entry {summary['winner_index']}{flag}, "
            f"homogeneity={summary['homogeneity']:.4f} "
            f"v_measure={summary['v_measure']:.4f}"
        )
    else:  # pragma: no cover - argparse enforces the choices
        raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _dispatch(args)
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
