"""Command-line front end for the experiment pipeline.

Each command runs one step: every stage that `experiment.STAGES` gives that
command, in pipeline order, skipping one whose outputs exist. Every run
trains two substitutes, so `train-substitute` trains ours (with the strategy
loss) and then the baseline (soft labels only, the net no_strategy_loss
scores), `search-strategy` runs the exact per-exit search and then the
conventional uniform-threshold scan, and `evaluate` and `report` show all
five variants scored from them and the victim.

Exit codes: 0 on success, 1 on contract/format/usage errors (including a
missing artifact, which the message names, and a damaged one, a
FormatError naming its path and the field at fault, or the archive member
that fails to read), 2 when the strategy search overruns its branch budget.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import BudgetError, ContractError, FormatError
from ..metrics import CSV_COLUMNS, EvalReport
from . import experiment
from .config import load_config, seed_overrides


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config", required=True, help="experiment config file (flat key = value lines)"
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed N; sets the five stream seeds to N..N+4",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitsteal",
        description="multi-exit extraction experiments: victim, attack, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("train-victim", "generate the dataset (if needed) and train the victim"),
        ("deploy", "pick the victim's thresholds and timing model"),
        ("query", "send calibration and attack queries to the victim"),
        ("estimate-exits", "segment runtimes and label queries with exits"),
        ("train-substitute", "train the substitute and the baseline network"),
        ("search-strategy", "choose output thresholds: exact search, then uniform scan"),
        ("evaluate", "score every variant on the test set"),
        ("run-experiment", "run every stage in order, resuming where possible"),
    ):
        _add_common(sub.add_parser(name, help=help_text))

    sub.add_parser("report", help="print the evaluation table for a run")
    for command in sub.choices.values():
        command.add_argument("--out", default="run", help="run directory (default: ./run)")
    return parser


# printed width of each CSV_COLUMNS entry in the report table
_COLUMN_WIDTHS = (8, 8, 12, 10)


def _print_report(reports: dict[str, EvalReport]) -> None:
    columns = tuple(zip(CSV_COLUMNS, _COLUMN_WIDTHS))
    header = f"{'model':<18}" + "".join(f"{c:>{w}}" for c, w in columns)
    print(header)
    print("-" * len(header))
    for name, rep in reports.items():
        print(f"{name:<18}" + "".join(f"{getattr(rep, c):>{w}.4f}" for c, w in columns))


def _dispatch(args) -> int:
    if args.command == "report":
        _print_report(experiment.load_reports(args.out))
        return 0

    cfg = load_config(args.config, seed_overrides(args.seed) if args.seed is not None else None)
    if args.command == "run-experiment":
        _print_report(experiment.run_experiment(cfg, args.out))
        return 0
    for name, stage in experiment.STAGES.items():
        if stage.command == args.command:
            ran = experiment.run_stage(name, cfg, args.out)
            print(f"{name}: {'done' if ran else 'skipped (outputs exist)'}")
    if args.command == "evaluate":
        _print_report(experiment.load_reports(args.out))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors (2)
        return 0 if exc.code == 0 else 1
    try:
        return _dispatch(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
