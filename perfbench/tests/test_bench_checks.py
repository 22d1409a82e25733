"""Self-tests of the benchmark: the oracle checker, the tracer, the definition file.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import calib
import run
import strategia
import strategia.cli
import tracer
import workloads
from checks import Checker

ROOT = Path(__file__).resolve().parents[2]

# One rejected point with 256 accepted successors: a uint8 count of the
# accepted successors wraps to 0, so the point reads as unable to reach an
# accepted point and every candidate graph's true distance comes out 0.
N = 257
WRAP_CONFIG = {
    "seed": 0,
    "scenario": {"inline": {
        "size": N,
        "edges": [[0, j] for j in range(1, N)],
        "family": {"family": "explicit", "labels": [[0] + [1] * (N - 1), [0] * N]},
        "weights": [[0.5 / N, 0.5 / N]] * N,
        "candidates": [[], [[1, 0]]],
    }},
    "graph_learn": {"sample_size": 50, "labeled_sample_size": 50},
}


def _distance_csv(values) -> str:
    rows = [f"candidate[{i}],true_distance,{v!r}" for i, v in enumerate(values)]
    return "record,field,value\n" + "\n".join(rows) + "\n"


def _uint8_distances(sc) -> list[float]:
    """True distances with the reach counts taken in uint8, as the defect does."""
    L = sc.hclass.labels_matrix()
    m = sc.dist.marginal()

    def comp(g):
        return ~L & ((L.astype(np.uint8) @ g.adj.T.astype(np.uint8)) > 0)

    return [float(((comp(sc.graph) != comp(g)) @ m).max()) for g in sc.graph_class]


def test_checker_flags_wrapped_reach_count():
    checker = Checker(strategia)
    sc = strategia.build_scenario(WRAP_CONFIG["scenario"], 0)
    wrapped = _uint8_distances(sc)
    assert wrapped == [0.0, 0.0]
    problems = checker.check("graph_learn", WRAP_CONFIG, _distance_csv(wrapped), "wrap")
    assert len(problems) == 1 and "!= oracle 0.00389" in problems[0]


def test_checker_accepts_exact_distances():
    checker = Checker(strategia)
    assert checker.check("graph_learn", WRAP_CONFIG, _distance_csv([1 / N, 1 / N]), "wrap") == []


@pytest.mark.xfail(strict=True, reason="class_component_matrix counts accepted successors in uint8")
def test_program_distance_on_wrap_instance(tmp_path):
    config = tmp_path / "wrap.json"
    config.write_text(json.dumps(WRAP_CONFIG))
    out = tmp_path / "out.csv"
    assert strategia.cli.main(["graph-learn", "--config", str(config), "--out", str(out)]) == 0
    assert Checker(strategia).check("graph_learn", WRAP_CONFIG, out.read_text(), "wrap") == []


def test_malformed_csv_fails_the_call_not_the_run(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": SMALL, "seed": 3, "vc": {"cap": 6}}))
    csv_path = tmp_path / "out.csv"
    csv_path.write_text("target,ground_size\nclass,9\n")  # no dimension column
    rec = {"job": 0, "job_seed": 1000, "kind": "vc", "pass": "plain", "rc": 0, "error": "",
           "stderr": "", "config": str(config), "csv": str(csv_path)}
    run._judge([rec], Checker(strategia), "vc-search")
    assert rec["failure"].startswith("check raised KeyError")


SMALL = {"generator": "random",
         "params": {"n_points": 9, "n_hypotheses": 20, "density": 0.3, "n_graphs": 3}}


@pytest.mark.parametrize("kind,command,config", [
    ("eval", "eval", {"scenario": SMALL, "seed": 3, "eval": {"burden": True}}),
    ("graph_learn", "graph-learn", {"scenario": SMALL, "seed": 3}),
    ("vc", "vc", {"scenario": SMALL, "seed": 3, "vc": {
        "targets": ["class", "binary", "strategic", "component", "graph"], "cap": 6}}),
    ("thm5", "experiment", {"seed": 3, "experiment": {"name": "thm5", "params": {
        **workloads.THM5_PARAMS, "draws": 30}}}),
])
def test_checker_accepts_program_output(tmp_path, kind, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    strategia.cli.main([command, "--config", str(path), "--out", str(out)])
    assert Checker(strategia).check(kind, config, out.read_text(), "small") == []


def test_tracer_wraps_every_binding_and_restores():
    import strategia.experiments as experiments
    import strategia.losses as losses

    original = losses.social_burden
    t = tracer.Tracer()
    t.install(strategia)
    try:
        assert experiments.social_burden is losses.social_burden is strategia.social_burden
        assert losses.social_burden is not original
        assert strategia.cli.main.__wrapped__ is not None
    finally:
        t.uninstall()
    assert experiments.social_burden is original and losses.social_burden is original


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans += [(0, t.name_id("a"), 0.0, 10.0, -1, 0), (1, t.name_id("b"), 2.0, 5.0, 0, 0)]
    reduced = t.reduce()
    assert reduced["self_s"] == {"a": 7.0, "b": 3.0}


def test_reference_seconds_take_out_a_uniform_slowdown():
    quiet = calib.reference_seconds("graph", 2.0, 0.1, 0.12)
    assert calib.reference_seconds("graph", 3.0, 0.15, 0.18) == pytest.approx(quiet)
    ref = calib.REF_S["search"]
    assert calib.reference_seconds("search", 2.0, ref, ref) == pytest.approx(2.0)


def test_reference_kernels_never_run_the_program():
    code = (ROOT / "perfbench" / "calib.py").read_text()
    assert "import strategia" not in code and "from strategia" not in code
    for w in workloads.WORKLOADS.values():
        assert w.reference is None or w.reference in calib.KERNELS
    assert all(calib.kernel_seconds(name) > 0 for name in calib.KERNELS)


def test_benchmark_definition_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.LISTED)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
