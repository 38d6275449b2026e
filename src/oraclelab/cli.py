"""Command-line front end.

Subcommands: ``run`` (one config, CSV out), ``sweep`` (epsilon grid with
growth ratios), ``validate`` (brute-force suite; nonzero exit on any
mismatch), ``demo`` (SEARCH-only binary search). Config files are JSON in
the ExperimentConfig schema; repeated ``--set key=value`` flags override
fields. ORACLELAB_OUT sets the default output directory. A bad config or
override exits with status 2 and a one-line message; a run whose nested
class sequence holds no consistent class (``ExhaustionError``) exits with
status 1 and a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    rows_to_csv,
    run_experiment,
    sweep_query_complexity,
    validate_against_bruteforce,
)
from .hypotheses import ExhaustionError, Threshold
from .oracles import OracleBundle
from .realizable import run_binary_search_demo


def _out_dir() -> Path:
    return Path(os.environ.get("ORACLELAB_OUT", "."))


def _load_config(args) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {args.config}: {e.strerror}") from None
    cfg = ExperimentConfig.from_json(text)
    names = {f.name for f in fields(ExperimentConfig)}
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if key not in names:
            raise ConfigError(f"unknown config field {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.output:
        cfg.output = args.output
    elif cfg.output is None:
        cfg.output = str(_out_dir() / f"{cfg.algorithm}-{cfg.config_hash()}.csv")
    rows = run_experiment(cfg)
    print(rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {cfg.output}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    report = sweep_query_complexity(cfg)
    text = report.to_json()
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 0


def cmd_validate(args) -> int:
    report = validate_against_bruteforce(args.instances, args.seed)
    print(report.to_json())
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n")
    if not report.ok:
        print(f"{len(report.mismatches)} mismatches", file=sys.stderr)
        return 1
    return 0


def cmd_demo(args) -> int:
    bundle = OracleBundle(Threshold(args.target_w), seed=args.seed)
    h, ledger = run_binary_search_demo(bundle, args.epsilon)
    print(
        json.dumps(
            {
                "target_w": args.target_w,
                "learned_w": h.w,
                "error": abs(h.w - args.target_w),
                "epsilon": args.epsilon,
                "ledger": ledger.snapshot(),
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oraclelab",
        description="active-learning simulations with LABEL and SEARCH oracles",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    run_p.add_argument("--output")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="epsilon-grid query-complexity sweep")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep_p.add_argument("--output")
    sweep_p.set_defaults(fn=cmd_sweep)

    val_p = sub.add_parser("validate", help="brute-force validation suite")
    val_p.add_argument("--instances", type=int, default=1000)
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--output")
    val_p.set_defaults(fn=cmd_validate)

    demo_p = sub.add_parser("demo", help="SEARCH-only binary search")
    demo_p.add_argument("--epsilon", type=float, default=1e-3)
    demo_p.add_argument("--target-w", type=float, default=0.37)
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.set_defaults(fn=cmd_demo)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"oraclelab: config error: {e}", file=sys.stderr)
        return 2
    except ExhaustionError as e:
        print(f"oraclelab: run error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
