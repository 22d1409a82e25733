"""Run configuration: one table-driven schema for every config value.

A config file is a single JSON object. Every value in it is checked by one
checker against a table of ``key -> (default, interval)`` entries: the
top-level keys and the eval, vc and graph_learn sections here, every scenario
generator here, and every experiment's params in ``experiments._REGISTRY``.
An unknown key, a null, a value of the wrong type or one outside its
interval stops the run with a ConfigError that names the dotted path of the
value. Command line flags (--seed, --trials, --out, --workers) override the
corresponding top-level keys and are checked by the same entries; the
STRATEGIA_WORKERS environment variable fills in when neither the flag nor
the config sets a worker count.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from .domain import (
    MAX_DENSE_POINTS,
    FiniteDomain,
    LabeledDistribution,
    ManipulationGraph,
    enumerate_class,
)
from .errors import ConfigError, InvalidDistributionError
from .graphdist import GraphClass
from .scenarios import (
    OBS1_MAX_D,
    Scenario,
    gen_component_case,
    gen_example1,
    gen_example2,
    gen_obs1,
    gen_random,
)
from .vcdim import VC_TARGETS


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _no_default(default) -> bool:
    """A type, or a list or tuple of types, stands in for a missing default."""
    if isinstance(default, (list, tuple)):
        default = default[0]
    return isinstance(default, type)


def _bound(text: str, params: dict):
    text = text.strip()
    return 2 ** params[text[3:]] if text.startswith("2**") else float(text)


def _check_param(path: str, value, default, interval, params: Optional[dict] = None):
    """Return value in the type of default, or raise a ConfigError naming path.

    default is a bool, an int, a float (an int is accepted and converted;
    infinities and NaN are not), a string, a dict (an object), a nonempty
    list whose entries are checked against default[0], or a tuple (a list
    of exactly that many entries, each checked against its own). A type in
    place of a default (int, str, [str], ...) gives the type of a key that
    has none; object accepts any value. interval is None, or for a string a
    tuple of the allowed values, or for a number (and each entry of a list)
    a range like "[1, inf)" or "(0, 0.5)", where a bound may be 2**name for
    a param already in params.
    """
    if isinstance(default, type):
        default = default()
    if isinstance(default, (list, tuple)):
        _expect(isinstance(value, list), path, f"expected a list, got {reprlib.repr(value)}")
        if isinstance(default, list):
            _expect(len(value) > 0, path, "must be a nonempty list")
            default = default[:1] * len(value)
        _expect(len(value) == len(default), path,
                f"expected a list of {len(default)} entries, got {len(value)}")
        return [_check_param(f"{path}[{i}]", v, d, interval, params)
                for i, (v, d) in enumerate(zip(value, default))]
    if isinstance(default, bool):
        _expect(isinstance(value, bool), path, f"expected a bool, got {reprlib.repr(value)}")
        return value
    if isinstance(default, str):
        _expect(isinstance(value, str), path, f"expected a string, got {reprlib.repr(value)}")
        if interval is not None:
            _expect(value in interval, path,
                    f"expected one of {list(interval)}, got {reprlib.repr(value)}")
        return value
    if isinstance(default, dict):
        _expect(isinstance(value, dict), path, f"expected an object, got {reprlib.repr(value)}")
        return value
    if not isinstance(default, (int, float)):  # object: any value
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        kind, ok = "an integer", number and isinstance(value, int)
    else:
        kind, ok = "a number", number and abs(value) <= sys.float_info.max
    _expect(ok, path, f"expected {kind} in {interval}, got {reprlib.repr(value)}")
    lo, hi = (_bound(b, params) for b in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    _expect(above and below, path, f"must be in {interval}, got {reprlib.repr(value)}")
    return value if isinstance(default, int) else float(value)


def _merge_params(path: str, params, table: dict, required=()) -> dict:
    """The defaults of table overridden by params (an object at path), every
    value checked in table order and returned in its declared type. A key
    without a default is left out unless params gives it, and every key in
    required must be given."""
    params = _check_param(path, {} if params is None else params, dict, None)
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise ConfigError(f"{_join(path, unknown[0])}: unknown key; allowed: {sorted(table)}")
    for key in required:
        _expect(key in params, _join(path, key), "missing required key")
    checked: dict = {}
    for key, (default, interval) in table.items():
        if key in params or not _no_default(default):
            checked[key] = _check_param(_join(path, key), params.get(key, default),
                                        default, interval, checked)
    return checked


# Intervals that several tables share. A domain holds at most
# MAX_DENSE_POINTS points, so a square grid is at most isqrt of that wide;
# obs1 instances stop at d = OBS1_MAX_D (see scenarios.obs1_indices).
_COUNT = "[1, inf)"
_NONNEGATIVE = "[0, inf)"
_ANY = "(-inf, inf)"
_PROBABILITY = "[0, 1]"
_POINTS = f"[1, {MAX_DENSE_POINTS}]"
_CHAIN = f"[2, {MAX_DENSE_POINTS}]"
_GRID = f"[1, {math.isqrt(MAX_DENSE_POINTS)}]"
_OBS1_D = f"[1, {OBS1_MAX_D}]"
_HYPOTHESES = "[1, 2**n_points]"  # distinct labelings of n_points points
# Candidate graphs and coordinate columns are dense arrays per instance.
_FEW = "[0, 64]"

_TOP = {
    "scenario": (dict, None),
    "seed": (int, _ANY),
    "trials": (int, _COUNT),
    "workers": (int, _COUNT),
    "out": (str, None),
    "eval": (dict, None),
    "vc": (dict, None),
    "experiment": (dict, None),
    "graph_learn": (dict, None),
}
_EVAL = {"burden": (bool, None)}
_VC = {"targets": ([str], VC_TARGETS), "cap": (int, _NONNEGATIVE), "ground_limit": (int, _COUNT)}
_EXPERIMENT = {"name": (str, None), "params": (dict, None)}
# The graph-learn experiment's params, which are also the graph_learn section.
_GRAPH_LEARN = {
    "sample_size": (400, _COUNT),
    "labeled_sample_size": (400, _COUNT),
    "sample_file": (str, None),
}

_RANDOM = {
    "n_points": (8, _POINTS),
    "n_hypotheses": (8, _HYPOTHESES),
    "density": (0.3, _PROBABILITY),
    "seed": (int, _NONNEGATIVE),  # build_scenario fills in the run seed
    "n_graphs": (0, _FEW),
    "coord_dim": (0, _FEW),
}


def _example2(p: list) -> Scenario:
    try:
        return gen_example2(*p)
    except InvalidDistributionError as e:  # the four probabilities must sum to 1
        raise ConfigError(f"scenario.params.p: {e}") from e


# Each generator's (params table, builder, required params).
_GENERATORS: dict[str, tuple[dict, Callable[..., Scenario], tuple]] = {
    "example1": ({"n": (10, _CHAIN)}, gen_example1, ()),
    "example2": ({"p": ((float,) * 4, _PROBABILITY)}, _example2, ("p",)),
    "obs1": ({"d": (int, _OBS1_D)}, gen_obs1, ("d",)),
    "complete": (
        {"n": (6, _POINTS), "class_size": (4, "[1, 2**n)"), "seed": (0, _NONNEGATIVE)},
        partial(gen_component_case, "complete"), (),
    ),
    "partial_order": (
        # every one of the 2**size labelings is enumerated
        {"poset": ("diamond", ("diamond", "chain", "antichain")), "size": (4, "[1, 16]")},
        partial(gen_component_case, "partial_order"), (),
    ),
    "ball": (
        {"grid": (4, _GRID), "radius": (1.0, _ANY), "p": (2.0, "(0, inf)")},
        partial(gen_component_case, "ball"), (),
    ),
    "coordinate": ({"grid": (3, _GRID)}, partial(gen_component_case, "coordinate"), ()),
    "random": (_RANDOM, gen_random, ()),
}

_SCENARIO = {"generator": (str, None), "params": (dict, None), "inline": (dict, None)}
_INLINE = {
    "size": (int, _POINTS),
    "coords": (object, None),
    "edges": (object, None),
    "family": (object, None),
    "weights": (object, None),
    "edges2": (object, None),
    "candidates": (object, None),
}


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


def load_config(path: str, overrides: Optional[dict[str, Any]] = None) -> RunConfig:
    """Read and check the config at path; ``overrides`` (the command line
    flags that are set) replace its top-level keys before the check."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e
    data = _check_param(path, data, dict, None)
    top = _merge_params("", {**data, **(overrides or {})}, _TOP)
    cfg = RunConfig(path, **{k: top[k] for k in ("seed", "trials", "workers", "out") if k in top})
    cfg.eval_section = _merge_params("eval", top.get("eval"), _EVAL)
    cfg.vc_section = _merge_params("vc", top.get("vc"), _VC)
    cfg.graph_learn_section = _merge_params("graph_learn", top.get("graph_learn"), _GRAPH_LEARN)
    if "experiment" in top:
        cfg.experiment_section = _merge_params(
            "experiment", top["experiment"], _EXPERIMENT, required=("name",)
        )
    if "scenario" in top:
        cfg.scenario_spec = top["scenario"]
        _scenario_params(cfg.scenario_spec, cfg.seed)
    return cfg


def _scenario_params(spec, run_seed: int) -> tuple[Callable[..., Scenario], dict]:
    """The builder a scenario spec names and its checked params."""
    spec = _merge_params("scenario", spec, _SCENARIO)
    if "inline" in spec:
        _expect("generator" not in spec and "params" not in spec, "scenario",
                "inline and generator are mutually exclusive")
        required = ("size", "edges", "family", "weights")
        return _build_inline, _merge_params("scenario.inline", spec["inline"], _INLINE, required)
    _expect("generator" in spec, "scenario", "needs either a generator name or an inline block")
    name = spec["generator"]
    _expect(name in _GENERATORS, "scenario.generator",
            f"unknown generator {name!r}; available: {sorted(_GENERATORS)}")
    table, builder, required = _GENERATORS[name]
    params = dict(spec.get("params", {}))
    if name == "random":
        params.setdefault("seed", run_seed)
    return builder, _merge_params("scenario.params", params, table, required)


def build_scenario(spec: Optional[dict], run_seed: int) -> Scenario:
    """Materialize the scenario named by a spec.

    Random generators default their seed to the run seed so that --seed
    moves the whole run coherently.
    """
    if spec is None:
        raise ConfigError("scenario: a scenario is required for this command")
    builder, params = _scenario_params(spec, run_seed)
    return builder(**params)


def _build_inline(
    size, edges, family, weights, coords=None, edges2=None, candidates=None
) -> Scenario:
    try:
        domain = FiniteDomain(size, None if coords is None else np.asarray(coords, dtype=float))
        graph = ManipulationGraph(domain, [tuple(e) for e in edges])
        hclass = enumerate_class(family, domain)
        dist = LabeledDistribution(np.asarray(weights, dtype=float), domain)
        graph2 = None
        if edges2 is not None:
            graph2 = ManipulationGraph(domain, [tuple(e) for e in edges2])
        graph_class = None
        if candidates is not None:
            graph_class = GraphClass(
                [ManipulationGraph(domain, [tuple(e) for e in c]) for c in candidates]
            )
        return Scenario(domain, graph, hclass, dist, graph2=graph2, graph_class=graph_class,
                        provenance="inline")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario.inline: {e}") from e


def resolve_workers(cfg: RunConfig, cli_workers: Optional[int] = None) -> int:
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
