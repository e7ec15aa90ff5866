"""Command-line front end.

    qkdfl run CONFIG [--seed N] [--out DIR]
    qkdfl report RUN_DIR [--out DIR]
    qkdfl validate CONFIG

Exit codes: 0 success, 1 configuration error (a bad config or a bad
command line), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ConfigError, QkdflError
from .experiments import ExperimentConfig, report_leakage, run_experiment


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as configuration errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkdfl",
        description="Run and report QKD-secured federated learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory")

    rep_p = sub.add_parser("report", help="emit analysis CSVs from a run directory")
    rep_p.add_argument("run_dir", help="directory produced by `qkdfl run`")
    rep_p.add_argument("--out", default=None, help="where to write the tables")

    val_p = sub.add_parser("validate", help="lint an experiment config")
    val_p.add_argument("config", help="path to a JSON experiment config")

    return parser


def _load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(path)
    if seed_override is not None:
        # Through from_dict, so the override meets the same checks as the file.
        cfg = ExperimentConfig.from_dict(
            {**dataclasses.asdict(cfg), "seed": seed_override}, source=f"{path} with --seed"
        )
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = args.out or cfg.out_dir or f"runs/exp_{cfg.experiment.lower()}"
    manifest = run_experiment(cfg, out_dir)
    print(f"run complete: {out_dir}")
    for name in manifest["files"]:
        print(f"  {name}")
    return 0


def cmd_report(args) -> int:
    rows = report_leakage(args.run_dir, args.out)
    target = Path(args.out) if args.out else Path(args.run_dir)
    print(f"wrote {target / 'leakage.csv'} ({len(rows)} rows)")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    print(f"{args.config}: OK")
    print(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "report": cmd_report, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QkdflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
