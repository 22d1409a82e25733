"""Command line workbench.

Subcommands: eval (per-hypothesis loss table), vc (dimension reports),
experiment (named experiment from the config), graph-learn (the estimation
pipeline; shorthand for the experiment of the same name driven by the
config's graph_learn section).

The result table goes to stdout as CSV, or to --out. Check lines go to
stderr. Exit status: 0 all checks passed, 1 a check failed or the run
errored, 2 bad usage or bad config.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .config import build_scenario, load_config, resolve_workers
from .errors import ConfigError, StrategiaError
from .experiments import eval_table, run_experiment, vc_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategia",
        description="exact evaluation and experiments for classification under manipulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("eval", "exact per-hypothesis losses on the configured scenario"),
        ("vc", "VC dimension reports for the class and its loss classes"),
        ("experiment", "run the experiment named in the config"),
        ("graph-learn", "estimate the graph from samples and learn under it"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
        p.add_argument("--workers", type=int, default=None, help="process pool size")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items()
             if k in ("seed", "trials", "out", "workers") and v is not None}
    checks = []
    try:
        cfg = load_config(args.config, flags)
        workers = resolve_workers(cfg)
        if args.command == "eval":
            table = eval_table(build_scenario(cfg.scenario_spec, cfg.seed), **cfg.eval_section)
        elif args.command == "vc":
            table = vc_table(build_scenario(cfg.scenario_spec, cfg.seed), **cfg.vc_section)
        else:
            if args.command == "experiment":
                name, params = cfg.experiment_section.get("name"), cfg.experiment_section.get("params")
            else:
                name, params = "graph-learn", cfg.graph_learn_section
            result = run_experiment(name, cfg.scenario_spec, params, cfg.seed, cfg.trials, workers)
            table, checks = result.table, result.checks
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StrategiaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if cfg.out:
        table.write_csv(cfg.out)
    else:
        sys.stdout.write(table.to_csv_text())
    failed = False
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        failed = failed or not c.passed
        print(f"[{tag}] {c.name}: {c.detail}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
