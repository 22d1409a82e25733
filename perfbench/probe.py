"""Set-up probe: import strategia, load a job's configs, build their scenarios.

Usage: python3 perfbench/probe.py CONFIG.json [CONFIG.json ...]

run.py times this script from spawn to exit, so the measured set-up covers
a fresh interpreter, the package import, config validation and scenario
construction, the work every CLI invocation repeats before it computes.
"""

from __future__ import annotations

import sys

import strategia


def main(paths: list[str]) -> int:
    for path in paths:
        cfg = strategia.load_config(path)
        if cfg.scenario_spec is not None:
            strategia.build_scenario(cfg.scenario_spec, cfg.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
