"""Tests for config loading, scenario construction, and the command line."""

import json
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from strategia.cli import main
from strategia.config import build_scenario, load_config, resolve_workers
from strategia.errors import ConfigError
from strategia.experiments import _REGISTRY, run_experiment
from strategia.scenarios import gen_component_case, gen_example1, gen_random

GOLDEN_EVAL_HEAD = (
    "index,hypothesis,binary_loss,strategic_loss,component_loss,"
    "incentive_compatible,effective_labels,effective_binary_loss,"
    "burden_conditional,burden_numerator\n"
    "0,threshold(axis=0,at=0.5),0.3,0.3,0,true,1111,0.3,0,0\n"
    "1,threshold(axis=0,at=1.5),0.05,0.3,0.25,false,1111,0.3,0,0\n"
    "2,threshold(axis=0,at=2.5),0,0.05,0.05,false,0111,0.05,0,0\n"
    "3,threshold(axis=0,at=3.5),0.45,0.45,0.45,false,0011,0,0.642857143,0.45\n"
    "4,threshold(axis=0,at=4.5),0.7,0.7,0,true,0000,0.7,inf,inf\n"
)


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


EXAMPLE2_SPEC = {"generator": "example2", "params": {"p": [0.25, 0.05, 0.45, 0.25]}}


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"generator": "obs1", "params": {"d": 2}},
                "seed": 9,
                "trials": 50,
                "workers": 2,
                "out": "table.csv",
                "vc": {"targets": ["class", "strategic"], "cap": 4},
            },
        )
        cfg = load_config(path)
        assert cfg.seed == 9 and cfg.trials == 50 and cfg.workers == 2
        assert cfg.out == "table.csv"
        assert cfg.scenario_spec == {"generator": "obs1", "params": {"d": 2}}
        assert cfg.vc_section == {"targets": ["class", "strategic"], "cap": 4}

    def test_unknown_top_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sceario": {}})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_generator_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"generator": "examle2"}})
        with pytest.raises(ConfigError, match="unknown generator"):
            load_config(path)

    def test_json_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seed": }\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r":2:11"):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_inline_requires_core_keys(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"inline": {"size": 3}}})
        with pytest.raises(ConfigError, match="missing required key"):
            load_config(path)

    def test_inline_and_generator_are_exclusive(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario": {"generator": "obs1", "inline": {"size": 3}}}
        )
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(path)

    def test_type_errors_carry_dotted_paths(self, tmp_path):
        for data, needle in (
            ({"seed": "7"}, "seed"),
            ({"trials": 0}, "trials"),
            ({"workers": 0}, "workers"),
            ({"out": 3}, "out"),
            ({"eval": {"burden": "yes"}}, "eval.burden"),
            ({"vc": {"targets": []}}, "vc.targets"),
            ({"vc": {"targets": ["margin"]}}, "vc.targets"),
            ({"experiment": {"params": {}}}, "experiment"),
            ({"graph_learn": {"sample_size": 0}}, "graph_learn.sample_size"),
        ):
            path = write_config(tmp_path, data)
            with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
                load_config(path)


class TestBuildScenario:
    def test_generator_spec_round_trip(self):
        sc = build_scenario(EXAMPLE2_SPEC, run_seed=0)
        assert sc.domain.size == 4
        assert np.allclose(sc.dist.weights.sum(), 1.0)

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError, match="required"):
            build_scenario(None, run_seed=0)

    def test_random_generator_defaults_to_run_seed(self):
        spec = {"generator": "random", "params": {"n_points": 5, "n_hypotheses": 4}}
        assert build_scenario(spec, 7).graph == build_scenario(spec, 7).graph
        assert build_scenario(spec, 7).graph != build_scenario(spec, 8).graph

    def test_bad_generator_params_become_config_errors(self):
        with pytest.raises(ConfigError, match="scenario.params"):
            build_scenario({"generator": "example1", "params": {"m": 3}}, 0)
        with pytest.raises(ConfigError, match="scenario.params"):
            build_scenario({"generator": "obs1", "params": {"d": 9}}, 0)

    @pytest.mark.parametrize("generator, direct", [
        ("example1", gen_example1),
        ("complete", partial(gen_component_case, "complete")),
        ("partial_order", partial(gen_component_case, "partial_order")),
        ("ball", partial(gen_component_case, "ball")),
        ("coordinate", partial(gen_component_case, "coordinate")),
        ("random", partial(gen_random, seed=5)),
    ])
    def test_table_defaults_are_the_generator_defaults(self, generator, direct):
        """A generator's params table and its Python signature default alike."""
        assert build_scenario({"generator": generator}, 5).provenance == direct().provenance

    def test_inline_round_trip(self):
        spec = {
            "inline": {
                "size": 3,
                "coords": [[0.0], [1.0], [2.0]],
                "edges": [[0, 1], [1, 2]],
                "family": {"family": "thresholds"},
                "weights": [[0.25, 0.05], [0.2, 0.1], [0.1, 0.3]],
                "edges2": [[0, 2]],
                "candidates": [[], [[0, 1]]],
            }
        }
        sc = build_scenario(spec, 0)
        assert sc.domain.size == 3
        assert sc.graph.edges() == [(0, 1), (1, 2)]
        assert len(sc.hclass) == 4
        assert sc.graph2.edges() == [(0, 2)]
        assert [g.edge_count() for g in sc.graph_class] == [0, 1]

    def test_inline_errors_are_wrapped(self):
        spec = {
            "inline": {
                "size": 3,
                "edges": [[0, 0]],
                "family": {"family": "constants"},
                "weights": [[0.5, 0.5]],
            }
        }
        with pytest.raises(ConfigError, match="scenario.inline"):
            build_scenario(spec, 0)


class TestResolveWorkers:
    def cfg(self, tmp_path, workers=None):
        data = {} if workers is None else {"workers": workers}
        return load_config(write_config(tmp_path, data))

    def test_flag_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATEGIA_WORKERS", "8")
        assert resolve_workers(self.cfg(tmp_path, workers=4), 2) == 2

    def test_config_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATEGIA_WORKERS", "8")
        assert resolve_workers(self.cfg(tmp_path, workers=4), None) == 4

    def test_environment_fills_last(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATEGIA_WORKERS", "8")
        assert resolve_workers(self.cfg(tmp_path), None) == 8
        monkeypatch.delenv("STRATEGIA_WORKERS")
        assert resolve_workers(self.cfg(tmp_path), None) == 1

    def test_bad_environment_value_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATEGIA_WORKERS", "many")
        with pytest.raises(ConfigError, match="STRATEGIA_WORKERS"):
            resolve_workers(self.cfg(tmp_path), None)

    def test_nonpositive_flag_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=">= 1"):
            resolve_workers(self.cfg(tmp_path), 0)


class TestCliEval:
    def test_golden_table(self, tmp_path, capsys):
        """The accept-threshold line prints its exact loss table."""
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC})
        assert main(["eval", "--config", path]) == 0
        assert capsys.readouterr().out == GOLDEN_EVAL_HEAD

    def test_out_flag_writes_file_instead_of_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC})
        out = tmp_path / "t.csv"
        assert main(["eval", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == GOLDEN_EVAL_HEAD

    def test_missing_scenario_exits_2_without_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"seed": 1})
        out = tmp_path / "t.csv"
        assert main(["eval", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"generator": "nope"}})
        assert main(["eval", "--config", path]) == 2
        assert "unknown generator" in capsys.readouterr().err


class TestCliVc:
    def test_threshold_dimensions(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"scenario": EXAMPLE2_SPEC, "vc": {"targets": ["class", "binary"]}},
        )
        assert main(["vc", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "target,dimension,capped,ground_size,set_count,witness"
        assert lines[1].startswith("class,1,false")
        assert lines[2].startswith("binary,1,false")

    def test_blowup_strategic_dimension(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"scenario": {"generator": "obs1", "params": {"d": 3}},
             "vc": {"targets": ["strategic"]}},
        )
        assert main(["vc", "--config", path]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("strategic,3,false")


class TestCliExperiment:
    def test_missing_name_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC})
        assert main(["experiment", "--config", path]) == 2

    def test_passing_experiment_exits_0_with_check_lines(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": {"name": "example2"}})
        assert main(["experiment", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("p2,p3,strategic_best")
        assert "[PASS] example2.optimum-switch" in captured.err
        assert "[FAIL]" not in captured.err

    def test_failing_check_exits_1_but_still_writes_table(self, tmp_path, capsys):
        """An impossible ratio band makes the concentration check fail."""
        path = write_config(
            tmp_path,
            {
                "scenario": {"generator": "random",
                             "params": {"n_points": 6, "n_hypotheses": 4,
                                        "density": 0.3, "n_graphs": 3}},
                "experiment": {"name": "uniform-conv",
                               "params": {"n_grid": [20, 80], "trials": 10,
                                          "ratio_low": 10.0, "ratio_high": 11.0}},
                "seed": 3,
            },
        )
        out = tmp_path / "t.csv"
        assert main(["experiment", "--config", path, "--out", str(out)]) == 1
        assert "[FAIL] uniform-conv.ratio[20/80]" in capsys.readouterr().err
        assert out.exists() and out.read_text().startswith("n,median_deviation")

    def test_seed_flag_changes_rows_trials_flag_changes_row_count(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": {"name": "thm5"}})
        assert main(["experiment", "--config", path, "--trials", "4", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert len(first.splitlines()) == 5
        assert main(["experiment", "--config", path, "--trials", "4", "--seed", "2"]) == 0
        assert capsys.readouterr().out != first


class TestCliGraphLearn:
    def test_pipeline_runs_from_section(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario": {"generator": "random",
                             "params": {"n_points": 6, "n_hypotheses": 4,
                                        "density": 0.3, "n_graphs": 3}},
                "graph_learn": {"sample_size": 60, "labeled_sample_size": 60},
                "seed": 2,
            },
        )
        assert main(["graph-learn", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("record,field,value")
        assert "selected,index," in captured.out
        assert "[PASS] graph-learn.erm-minimal" in captured.err


class TestCliErrors:
    def test_capacity_error_exits_1_with_guidance(self, tmp_path, capsys):
        """A ground too large for brute force names the knob to raise."""
        path = write_config(
            tmp_path,
            {"scenario": {"generator": "random",
                          "params": {"n_points": 30, "n_hypotheses": 8}},
             "vc": {"targets": ["binary"], "ground_limit": 20}},
        )
        assert main(["vc", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "ground_limit" in err and err.startswith("error:")


def assert_one_config_error(capsys, rc, prefix="config error:"):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


SMALL_GRAPH_SCENARIO = {"generator": "random",
                        "params": {"n_points": 6, "n_hypotheses": 4,
                                   "density": 0.3, "n_graphs": 3}}


def _wrongly_typed(default):
    """A value of the wrong type for a param with this default."""
    if isinstance(default, list):
        return "abc"
    if isinstance(default, int):
        return 2.5
    if isinstance(default, float):
        return "x"
    return 5


REGISTRY_PARAMS = [
    (name, key, _wrongly_typed(default))
    for name, (spec, _) in sorted(_REGISTRY.items())
    for key, (default, _) in sorted(spec.items())
]


class TestCliBadParameters:
    @pytest.mark.parametrize(
        "name, key, value", REGISTRY_PARAMS, ids=[f"{n}.{k}" for n, k, _ in REGISTRY_PARAMS]
    )
    def test_wrongly_typed_param_exits_2(self, tmp_path, capsys, name, key, value):
        path = write_config(tmp_path, {"experiment": {"name": name, "params": {key: value}}})
        assert_one_config_error(
            capsys, main(["experiment", "--config", path]),
            f"config error: experiment.params.{key}: expected a",
        )

    @pytest.mark.parametrize("params", [
        {"trials": "x"}, {"trials": True}, {"eps_values": [0.1, "a"]}, {"delta": None},
    ])
    def test_thm3_typed_param_exits_2(self, tmp_path, capsys, params):
        path = write_config(tmp_path, {"experiment": {"name": "thm3", "params": params}})
        assert_one_config_error(capsys, main(["experiment", "--config", path]))

    def test_list_of_ints_rejects_fractions(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": {"name": "thm4",
                                                      "params": {"n_grid": [25, 2.5]}}})
        assert_one_config_error(
            capsys, main(["experiment", "--config", path]),
            "config error: experiment.params.n_grid[1]: expected an integer in [1, inf), got 2.5",
        )

    @pytest.mark.parametrize("name, params", [
        ("thm3", {"trials": 0}),
        ("thm3", {"eps_values": []}),
        ("thm3", {"block": 0}),
        ("thm4", {"trials": 0}),
        ("thm4", {"n_grid": []}),
        ("thm4", {"instances": 0}),
        ("thm5", {"draws": 0}),
        ("uniform-conv", {"trials": 0}),
        ("uniform-conv", {"n_grid": []}),
        ("uniform-conv", {"block": 0}),
    ])
    def test_monte_carlo_param_exits_2(self, tmp_path, capsys, name, params):
        path = write_config(tmp_path, {"experiment": {"name": name, "params": params}})
        assert_one_config_error(capsys, main(["experiment", "--config", path]))

    @pytest.mark.parametrize("name, params, where", [
        ("thm3", {"eps_values": [0.7]}, "eps_values[0]: must be in (0, 0.5), got 0.7"),
        ("thm3", {"delta": 1.5}, "delta: must be in (0, 1), got 1.5"),
        ("thm5", {"density": -0.5}, "density: must be in [0, 1], got -0.5"),
        ("thm4", {"n_points": 0}, "n_points: must be in [1, 4096], got 0"),
        ("thm4", {"density": 7.0}, "density: must be in [0, 1], got 7.0"),
        ("thm3", {"d": 12}, "d: must be in [1, 4], got 12"),
        ("example2", {"p2_grid": []}, "p2_grid: must be a nonempty list"),
        ("uniform-conv", {"coverage_frac": 2}, "coverage_frac: must be in [0, 1], got 2"),
        ("thm3", {"target_j": 100}, "target_j: target index 100 out of range"),
        ("thm3", {"target_j": 7}, "target_j: target subset covers every source"),
        ("thm4", {"n_points": 2, "n_hypotheses": 5},
         "n_hypotheses: must be in [1, 2**n_points], got 5"),
        ("thm5", {"n_points": 2, "n_hypotheses": 5},
         "n_hypotheses: must be in [1, 2**n_points], got 5"),
        ("thm3", {"d": 5}, "d: must be in [1, 4], got 5"),
        ("obs1", {"d_values": [5]}, "d_values[0]: must be in [1, 4], got 5"),
    ])
    def test_out_of_range_param_exits_2(self, tmp_path, capsys, name, params, where):
        path = write_config(tmp_path, {"experiment": {"name": name, "params": params}})
        assert_one_config_error(
            capsys, main(["experiment", "--config", path]),
            f"config error: experiment.params.{where}",
        )

    @pytest.mark.parametrize("generator, params, where", [
        ("random", {"seed": None}, "seed: expected an integer in [0, inf), got None"),
        ("random", {"seed": 1.5}, "seed: expected an integer in [0, inf), got 1.5"),
        ("random", {"n_points": "x"}, "n_points: expected an integer in [1, 4096], got 'x'"),
        ("random", {"n_points": 0}, "n_points: must be in [1, 4096], got 0"),
        ("random", {"n_points": 2, "n_hypotheses": 5}, "n_hypotheses: must be in [1, 2**n_points]"),
        ("random", {"n_graphs": -1}, "n_graphs: must be in [0, 64], got -1"),
        ("random", {"coord_dim": -2}, "coord_dim: must be in [0, 64], got -2"),
        ("random", {"density": 1.5}, "density: must be in [0, 1], got 1.5"),
        ("random", {"density": -1}, "density: must be in [0, 1], got -1"),
        ("random", {"density": "0.5"}, "density: expected a number in [0, 1], got '0.5'"),
        ("ball", {"p": 0}, "p: must be in (0, inf), got 0"),
        ("ball", {"p": -1}, "p: must be in (0, inf), got -1"),
        ("ball", {"grid": 65}, "grid: must be in [1, 64], got 65"),
        ("coordinate", {"grid": 65}, "grid: must be in [1, 64], got 65"),
        ("partial_order", {"poset": "chain", "size": 30}, "size: must be in [1, 16], got 30"),
        ("partial_order", {"poset": "antichain", "size": 17}, "size: must be in [1, 16], got 17"),
        ("partial_order", {"poset": "lattice"}, "poset: expected one of"),
        ("complete", {"n": 2, "class_size": 4}, "class_size: must be in [1, 2**n), got 4"),
        ("example1", {"m": 3}, "m: unknown key"),
        ("example2", {}, "p: missing required key"),
        ("example2", {"p": [0.5, 0.5]}, "p: expected a list of 4 entries, got 2"),
        ("example2", {"p": [0.5, 0.5, 0.5, 0.5]}, "p: probabilities sum to 2.0"),
        ("obs1", {}, "d: missing required key"),
        ("obs1", {"d": 5}, "d: must be in [1, 4], got 5"),
        # one point carries only the empty graph, two points 2**2 graphs
        ("random", {"n_points": 1, "n_hypotheses": 2, "n_graphs": 2},
         "n_graphs: must be at most 1, the number of distinct graphs on 1 point, got 2"),
        ("random", {"n_points": 2, "n_hypotheses": 2, "n_graphs": 5},
         "n_graphs: must be at most 4, the number of distinct graphs on 2 points, got 5"),
        # 64 graphs on 3 points exist, but at density 0 the draws of seed 3
        # miss one of them within the 64 000 tries
        ("random", {"n_points": 3, "n_hypotheses": 2, "n_graphs": 64, "density": 0.0, "seed": 3},
         "n_graphs: could not draw 64 distinct candidate graphs in 64000 tries"),
    ])
    def test_bad_scenario_param_exits_2(self, tmp_path, capsys, generator, params, where):
        path = write_config(tmp_path, {"scenario": {"generator": generator, "params": params}})
        assert_one_config_error(
            capsys, main(["eval", "--config", path]), f"config error: scenario.params.{where}"
        )

    @pytest.mark.parametrize("n_points, n_graphs", [(1, 1), (2, 4)])
    def test_every_graph_of_a_small_domain_can_be_drawn(self, n_points, n_graphs):
        spec = {"generator": "random",
                "params": {"n_points": n_points, "n_hypotheses": 2, "n_graphs": n_graphs}}
        assert len(set(build_scenario(spec, 0).graph_class)) == n_graphs

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, text):
        """A number past Python's 4300-digit limit, or nesting past its
        recursion limit."""
        path = tmp_path / "huge.json"
        path.write_text('{"seed": ' + text + "}", encoding="utf-8")
        assert_one_config_error(capsys, main(["eval", "--config", str(path)]),
                                f"config error: {path}: ")

    def test_fractional_inline_size_exits_2(self, tmp_path, capsys):
        inline = {"size": 3.5, "edges": [], "family": {"family": "constants"},
                  "weights": [[0.5, 0], [0.25, 0], [0.25, 0]]}
        path = write_config(tmp_path, {"scenario": {"inline": inline}})
        assert_one_config_error(
            capsys, main(["eval", "--config", path]),
            "config error: scenario.inline.size: expected an integer in [1, 4096], got 3.5",
        )

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0")])
    def test_flags_are_checked_as_top_level_keys(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC})
        assert_one_config_error(
            capsys, main(["eval", "--config", path, flag, value]),
            f"config error: {flag[2:]}: must be in [1, inf), got 0",
        )

    def test_trials_override_is_range_checked(self):
        with pytest.raises(ConfigError, match="trials: must be in"):
            run_experiment("thm3", trials=0)

    @pytest.mark.parametrize("vc", [{"cap": -1}, {"ground_limit": 0}])
    def test_vc_bound_exits_2(self, tmp_path, capsys, vc):
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC, "vc": vc})
        key = next(iter(vc))
        assert_one_config_error(
            capsys, main(["vc", "--config", path]), f"config error: vc.{key}: must be in ["
        )

    @pytest.mark.parametrize("text, where", [
        ("0\t1\nx\t2\n", ":2: invalid literal"),
        ("0\t1\t2\n", ":1: expected 2 tab-separated fields"),
        ("0\t1\n\n9\t1\n", ":3: point index 9 out of range"),
        ("0\t7\n", ":1: target index 7 out of range"),
    ])
    def test_malformed_sample_file_exits_2_with_position(self, tmp_path, capsys, text, where):
        sample = tmp_path / "sample.tsv"
        sample.write_text(text, encoding="utf-8")
        path = write_config(tmp_path, {"scenario": SMALL_GRAPH_SCENARIO,
                                       "graph_learn": {"sample_file": str(sample)}})
        assert_one_config_error(
            capsys, main(["graph-learn", "--config", path]),
            f"config error: graph_learn.sample_file: {sample}{where}",
        )

    def test_missing_sample_file_exits_2(self, tmp_path, capsys):
        sample = tmp_path / "absent.tsv"
        path = write_config(tmp_path, {"scenario": SMALL_GRAPH_SCENARIO,
                                       "graph_learn": {"sample_file": str(sample)}})
        assert_one_config_error(
            capsys, main(["graph-learn", "--config", path]),
            f"config error: graph_learn.sample_file: {sample}: No such file",
        )


class TestCliChainExample:
    def test_five_hundred_draw_chain_run(self, tmp_path, capsys):
        """The surrogate chain experiment emits one row per draw with zero
        violations."""
        path = write_config(tmp_path, {"experiment": {"name": "thm5"}})
        assert main(["experiment", "--config", path, "--trials", "500", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 501
        assert lines[0].split(",")[:6] == [
            "draw", "member", "true_strategic", "binary", "surrogate_component",
            "surrogate_strategic",
        ]
        assert "[PASS] thm5.chain-holds" in captured.err


class TestPlotScript:
    def test_renders_polylines_from_csv(self, tmp_path):
        from strategia.plot import main as plot_main

        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            "n,median,mean\n25,0.4,0.5\n100,0.2,0.25\n400,0.1,0.12\n",
            encoding="utf-8",
        )
        svg_path = tmp_path / "t.svg"
        assert plot_main([str(csv_path), str(svg_path), "--x", "n", "--y", "median,mean"]) == 0
        text = svg_path.read_text(encoding="utf-8")
        assert text.count("<polyline") == 2
        import xml.dom.minidom

        xml.dom.minidom.parseString(text)

    def test_missing_column_is_a_clean_error(self, tmp_path):
        from strategia.plot import main as plot_main

        csv_path = tmp_path / "t.csv"
        csv_path.write_text("n,median\n25,0.4\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="no column"):
            plot_main([str(csv_path), str(tmp_path / "t.svg"), "--x", "n", "--y", "mode"])

    def test_non_numeric_rows_are_skipped(self, tmp_path):
        from strategia.plot import main as plot_main

        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            "n,median\n25,0.4\nheader,again\n100,0.2\n", encoding="utf-8"
        )
        svg_path = tmp_path / "t.svg"
        assert plot_main([str(csv_path), str(svg_path), "--x", "n", "--y", "median"]) == 0
        assert "25" in svg_path.read_text(encoding="utf-8")


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        path = write_config(tmp_path, {"scenario": EXAMPLE2_SPEC})
        proc = subprocess.run(
            [sys.executable, "-m", "strategia", "eval", "--config", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_EVAL_HEAD

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strategia", "eval"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
