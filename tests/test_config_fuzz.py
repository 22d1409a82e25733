"""Fuzz every config value against the tables that check it.

Each example takes one entry of one table (a top-level key, a section key, a
scenario generator's param, an inline key or an experiment's param), puts a
value it must reject at that entry's path in an otherwise valid config, and
runs the command line in-process: the run must exit 2 with one stderr line
that names the path, and no traceback.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategia.cli import main
from strategia.config import (
    _EVAL,
    _EXPERIMENT,
    _GENERATORS,
    _GRAPH_LEARN,
    _INLINE,
    _SCENARIO,
    _TOP,
    _VC,
)
from strategia.experiments import _REGISTRY

COMMANDS = ("eval", "vc", "experiment", "graph-learn")

# The params a generator cannot do without.
REQUIRED = {"example2": {"p": [0.25, 0.25, 0.25, 0.25]}, "obs1": {"d": 2}}

INLINE = {
    "size": 2,
    "edges": [[0, 1]],
    "family": {"family": "constants"},
    "weights": [[0.25, 0.25], [0.25, 0.25]],
}


def _scenario(generator):
    if generator == "inline":
        return {"inline": dict(INLINE)}
    return {"generator": generator, "params": dict(REQUIRED.get(generator, {}))}


def _targets():
    """(commands, generator, path, default, interval) of every table entry.
    A path is a tuple of keys into the config."""
    out = []
    sections = {"eval": _EVAL, "vc": _VC, "graph_learn": _GRAPH_LEARN, "experiment": _EXPERIMENT}
    for key, (default, interval) in _TOP.items():
        out.append((COMMANDS, "obs1", (key,), default, interval))
    for section, table in sections.items():
        for key, (default, interval) in table.items():
            out.append((COMMANDS, "obs1", (section, key), default, interval))
    for key, (default, interval) in _SCENARIO.items():
        if key != "inline":  # a valid spec has a generator, so any inline block is refused
            out.append((COMMANDS, "obs1", ("scenario", key), default, interval))
    for generator, (table, _, _) in _GENERATORS.items():
        for key, (default, interval) in table.items():
            out.append((COMMANDS, generator, ("scenario", "params", key), default, interval))
    out.append((COMMANDS, "inline", ("scenario", "inline", "size"), *_INLINE["size"]))
    for name, (table, _) in _REGISTRY.items():
        for key, (default, interval) in table.items():
            out.append((("experiment",), name, ("experiment", "params", key), default, interval))
    return out


TARGETS = _targets()

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _out_of_range(default, interval):
    """Numbers of the right type just outside the interval, and far outside."""
    step = 1 if isinstance(default, int) else 0.5
    lo, hi = (b.strip() for b in interval[1:-1].split(","))
    values = []
    if lo != "-inf":
        lo = float(lo)
        values += [lo - 10**6, lo if interval[0] == "(" else lo - step]
    if hi.startswith("2**"):  # a bound set by another param: pass any value it can take
        values.append(2 ** 4097)
    elif hi != "inf":
        hi = float(hi)
        values += [hi + 10**6, hi if interval[-1] == ")" else hi + step]
    if isinstance(default, int):
        values = [int(v) for v in values]
    return st.sampled_from(values) if values else st.nothing()


def bad_value(default, interval):
    """Values that the entry (default, interval) must reject."""
    if isinstance(default, type):
        default = default()
    if isinstance(default, (list, tuple)):
        entry = bad_value(default[0], interval)
        wrong = [st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                 entry.map(lambda v: [v]), entry.map(lambda v: [[v]])]
        if isinstance(default, list):
            wrong.append(st.just([]))
        else:
            wrong.append(st.lists(st.just(0.25), max_size=6).filter(
                lambda v: len(v) != len(default)))
        return st.one_of(wrong)
    if isinstance(default, bool):
        return st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=6),
                         st.lists(st.booleans(), max_size=2))
    if isinstance(default, str):
        wrong = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.lists(st.text(max_size=3), max_size=2))
        if interval is not None:
            wrong = wrong | st.text(max_size=8).filter(lambda v: v not in interval)
        return wrong
    if isinstance(default, dict):
        return st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                         st.lists(st.integers(), max_size=2))
    valid = st.integers(-5, 5) if isinstance(default, int) else st.floats(0, 1)
    wrong = [JUNK, valid.map(lambda v: [v]), valid.map(lambda v: {"v": v}),
             st.sampled_from([float("nan"), float("inf"), float("-inf")]),
             _out_of_range(default, interval)]
    if isinstance(default, int):
        wrong.append(st.floats())
    else:  # beyond any float
        wrong.append(st.sampled_from([10**400, -10**400]))
    return st.one_of(wrong)


def _base(generator="obs1", experiment="thm3"):
    """A valid config: the scenario is ignored by thm3, the experiment by
    every other command."""
    return {"scenario": _scenario(generator), "experiment": {"name": experiment}}


# Each object that a table checks, for the unknown-key cases.
OBJECTS = {
    (): _TOP,
    ("eval",): _EVAL,
    ("vc",): _VC,
    ("graph_learn",): _GRAPH_LEARN,
    ("experiment",): _EXPERIMENT,
    ("scenario",): _SCENARIO,
    ("scenario", "params"): _GENERATORS["obs1"][0],
    ("scenario", "inline"): _INLINE,
    ("experiment", "params"): _REGISTRY["thm3"][0],
}
UNKNOWN = object()  # in place of a default: a key that the table at path lacks
for where, table in OBJECTS.items():
    if where == ("experiment", "params"):  # checked when the experiment runs
        TARGETS.append((("experiment",), "thm3", where, UNKNOWN, table))
    else:
        generator = "inline" if where == ("scenario", "inline") else "obs1"
        TARGETS.append((COMMANDS, generator, where, UNKNOWN, table))
IDS = [".".join(path) + ("+" if default is UNKNOWN else "") for _, _, path, default, _ in TARGETS]


@pytest.mark.parametrize(
    "commands, generator, path, default, interval", TARGETS, ids=IDS
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_value_exits_2_naming_its_path(
    tmp_path, capsys, commands, generator, path, default, interval, data
):
    """A rejected value, or an unknown key (+), anywhere in the config."""
    command = data.draw(st.sampled_from(commands))
    if default is UNKNOWN:
        key = data.draw(st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(
            lambda k: k not in interval))
        path, value = path + (key,), 1
    else:
        value = data.draw(bad_value(default, interval))
    if path[:2] == ("experiment", "params"):
        cfg = _base(experiment=generator)
    else:
        cfg = _base(generator=generator)
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main([command, "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert re.match(rf"config error: {re.escape('.'.join(path))}(\[\d+\])*: ", err), err
