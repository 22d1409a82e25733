"""Run configuration: JSON schema validation and scenario construction.

A config file is a single JSON object. Unknown keys are rejected anywhere,
with dotted-path diagnostics. Command line flags (--seed, --trials, --out,
--workers) override the corresponding top-level keys; the STRATEGIA_WORKERS
environment variable fills in when neither the flag nor the config sets a
worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .domain import (
    FiniteDomain,
    LabeledDistribution,
    ManipulationGraph,
    enumerate_class,
)
from .errors import ConfigError
from .graphdist import GraphClass
from .scenarios import (
    Scenario,
    gen_component_case,
    gen_example1,
    gen_example2,
    gen_obs1,
    gen_random,
)

TOP_KEYS = {"scenario", "seed", "trials", "workers", "out", "eval", "vc", "experiment", "graph_learn"}

GENERATORS = {
    "example1",
    "example2",
    "obs1",
    "complete",
    "partial_order",
    "ball",
    "coordinate",
    "random",
}


def _type_name(v) -> str:
    return type(v).__name__


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _expect_dict(v, path: str) -> dict:
    _expect(isinstance(v, dict), path, f"expected an object, got {_type_name(v)}")
    return v


def _expect_int(v, path: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), path, f"expected an integer, got {v!r}")
    return v


def _expect_number(v, path: str) -> float:
    _expect(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        path,
        f"expected a number, got {v!r}",
    )
    return float(v)


def _expect_str(v, path: str) -> str:
    _expect(isinstance(v, str), path, f"expected a string, got {_type_name(v)}")
    return v


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


@dataclass
class RunConfig:
    path: str
    scenario_spec: Optional[dict] = None
    seed: int = 0
    trials: Optional[int] = None
    workers: Optional[int] = None
    out: Optional[str] = None
    eval_section: dict = field(default_factory=dict)
    vc_section: dict = field(default_factory=dict)
    experiment_section: dict = field(default_factory=dict)
    graph_learn_section: dict = field(default_factory=dict)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e
    _expect_dict(data, path)
    _reject_unknown(data, TOP_KEYS, path)
    cfg = RunConfig(path=path)
    if "scenario" in data:
        cfg.scenario_spec = _validate_scenario_spec(data["scenario"], "scenario")
    if "seed" in data:
        cfg.seed = _expect_int(data["seed"], "seed")
    if "trials" in data:
        cfg.trials = _expect_int(data["trials"], "trials")
        _expect(cfg.trials >= 1, "trials", "must be >= 1")
    if "workers" in data:
        cfg.workers = _expect_int(data["workers"], "workers")
        _expect(cfg.workers >= 1, "workers", "must be >= 1")
    if "out" in data:
        cfg.out = _expect_str(data["out"], "out")
    for key, attr in (
        ("eval", "eval_section"),
        ("vc", "vc_section"),
        ("experiment", "experiment_section"),
        ("graph_learn", "graph_learn_section"),
    ):
        if key in data:
            setattr(cfg, attr, _expect_dict(data[key], key))
    _validate_sections(cfg)
    return cfg


def _validate_scenario_spec(spec, path: str) -> dict:
    spec = _expect_dict(spec, path)
    _reject_unknown(spec, {"generator", "params", "inline"}, path)
    if "inline" in spec:
        _expect("generator" not in spec and "params" not in spec, path,
                "inline and generator are mutually exclusive")
        inline = _expect_dict(spec["inline"], f"{path}.inline")
        allowed = {"size", "coords", "edges", "family", "weights", "edges2", "candidates"}
        _reject_unknown(inline, allowed, f"{path}.inline")
        for req in ("size", "edges", "family", "weights"):
            _expect(req in inline, f"{path}.inline", f"missing required key {req!r}")
        return spec
    _expect("generator" in spec, path, "needs either a generator name or an inline block")
    name = _expect_str(spec["generator"], f"{path}.generator")
    _expect(name in GENERATORS, f"{path}.generator",
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    if "params" in spec:
        _expect_dict(spec["params"], f"{path}.params")
    return spec


def _validate_sections(cfg: RunConfig) -> None:
    if cfg.eval_section:
        _reject_unknown(cfg.eval_section, {"burden"}, "eval")
        if "burden" in cfg.eval_section:
            _expect(isinstance(cfg.eval_section["burden"], bool), "eval.burden", "expected a bool")
    if cfg.vc_section:
        _reject_unknown(cfg.vc_section, {"targets", "cap", "ground_limit"}, "vc")
        targets = cfg.vc_section.get("targets")
        if targets is not None:
            _expect(isinstance(targets, list) and targets, "vc.targets", "expected a nonempty list")
            valid = {"class", "binary", "strategic", "component", "graph"}
            for t in targets:
                _expect(t in valid, "vc.targets", f"unknown target {t!r}; valid: {sorted(valid)}")
        if "cap" in cfg.vc_section:
            cap = _expect_int(cfg.vc_section["cap"], "vc.cap")
            _expect(cap >= 0, "vc.cap", "must be >= 0")
        if "ground_limit" in cfg.vc_section:
            limit = _expect_int(cfg.vc_section["ground_limit"], "vc.ground_limit")
            _expect(limit >= 1, "vc.ground_limit", "must be >= 1")
    if cfg.experiment_section:
        _reject_unknown(cfg.experiment_section, {"name", "params"}, "experiment")
        _expect("name" in cfg.experiment_section, "experiment", "missing required key 'name'")
        _expect_str(cfg.experiment_section["name"], "experiment.name")
        if "params" in cfg.experiment_section:
            _expect_dict(cfg.experiment_section["params"], "experiment.params")
    if cfg.graph_learn_section:
        _reject_unknown(
            cfg.graph_learn_section,
            {"sample_size", "sample_file", "labeled_sample_size"},
            "graph_learn",
        )
        for k in ("sample_size", "labeled_sample_size"):
            if k in cfg.graph_learn_section:
                v = _expect_int(cfg.graph_learn_section[k], f"graph_learn.{k}")
                _expect(v >= 1, f"graph_learn.{k}", "must be >= 1")
        if "sample_file" in cfg.graph_learn_section:
            _expect_str(cfg.graph_learn_section["sample_file"], "graph_learn.sample_file")


def build_scenario(spec: Optional[dict], run_seed: int) -> Scenario:
    """Materialize the scenario named by a validated spec.

    Random generators default their seed to the run seed so that --seed
    moves the whole run coherently.
    """
    if spec is None:
        raise ConfigError("scenario: a scenario is required for this command")
    if "inline" in spec:
        return _build_inline(spec["inline"])
    name = spec["generator"]
    params = dict(spec.get("params", {}))
    try:
        if name == "example1":
            return gen_example1(**params)
        if name == "example2":
            if "p" in params:
                p = params.pop("p")
                _expect(isinstance(p, list) and len(p) == 4, "scenario.params.p",
                        "expected a list of 4 probabilities")
                params.update(p1=p[0], p2=p[1], p3=p[2], p4=p[3])
            return gen_example2(**params)
        if name == "obs1":
            return gen_obs1(**params)
        if name in ("complete", "partial_order", "ball", "coordinate"):
            return gen_component_case(name, **params)
        if name == "random":
            params.setdefault("seed", run_seed)
            return gen_random(**params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario.params: {e}") from e
    raise ConfigError(f"scenario.generator: unknown generator {name!r}")


def _build_inline(inline: dict) -> Scenario:
    try:
        size = int(inline["size"])
        coords = inline.get("coords")
        domain = FiniteDomain(size, np.asarray(coords, dtype=float) if coords is not None else None)
        graph = ManipulationGraph(domain, [tuple(e) for e in inline["edges"]])
        hclass = enumerate_class(inline["family"], domain)
        dist = LabeledDistribution(np.asarray(inline["weights"], dtype=float), domain)
        graph2 = None
        if "edges2" in inline:
            graph2 = ManipulationGraph(domain, [tuple(e) for e in inline["edges2"]])
        graph_class = None
        if "candidates" in inline:
            graph_class = GraphClass(
                [ManipulationGraph(domain, [tuple(e) for e in edges]) for edges in inline["candidates"]]
            )
        return Scenario(domain, graph, hclass, dist, graph2=graph2, graph_class=graph_class,
                        provenance="inline")
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"scenario.inline: {e}") from e


def resolve_workers(cfg: RunConfig, cli_workers: Optional[int]) -> int:
    """Precedence: --workers flag, then config, then STRATEGIA_WORKERS, then 1."""
    if cli_workers is not None:
        value = cli_workers
    elif cfg.workers is not None:
        value = cfg.workers
    else:
        env = os.environ.get("STRATEGIA_WORKERS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as e:
                raise ConfigError(f"STRATEGIA_WORKERS={env!r} is not an integer") from e
        else:
            value = 1
    if value < 1:
        raise ConfigError(f"workers must be >= 1, got {value}")
    return value
