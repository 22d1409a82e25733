"""Tests for the experiment registry, evaluation tables, and VC tables."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import generator_drawer
from strategia import cli, graphdist, oracles, scenarios
from strategia.config import build_scenario
from strategia.domain import Hypothesis, LabeledDistribution
from strategia.errors import BoundViolationError, ConfigError, RealizabilityError
from strategia.experiments import (
    _THM5_BASE,
    _UC_BASE,
    _run_seeded,
    _thm3_block,
    _trial_blocks,
    available_experiments,
    describe_hypothesis,
    eval_table,
    run_experiment,
    vc_table,
)
from strategia.graphdist import hpx_distance, surrogate_bounds
from strategia.learners import draw_sample, singleton_learner
from strategia.losses import LossKind, class_component_matrix, expected_loss
from strategia.results import ResultTable, format_value
from strategia.rng import _coin_flips, inverse_cdf, trial_seed, trial_seeds
from strategia.scenarios import (
    _random_arrays,
    gen_component_case,
    gen_example2,
    gen_obs1,
    gen_random,
    obs1_distribution,
)


def csv_values():
    """Values of every type a table cell holds: ints up to 2**200, floats
    with nan, infinities, signed zeros and subnormals, text, and the types
    that format_value renders by their own rule: bool, None and numpy
    scalars."""
    special = st.sampled_from([
        math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2, 123456789.5,
    ])
    return st.one_of(
        st.integers(-(2**200), 2**200),
        st.floats(allow_subnormal=True),
        special,
        st.text(max_size=5),
        st.booleans(),
        st.none(),
        st.builds(np.float64, st.floats()),
        st.builds(np.float32, st.floats(width=32)),
        st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
        st.builds(np.bool_, st.booleans()),
    )


def column(table: ResultTable, name: str) -> list:
    j = table.columns.index(name)
    return [row[j] for row in table.rows]


class TestResultTable:
    def test_formatting_contract(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(3) == "3"
        assert format_value(0.1 + 0.2) == "0.3"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(None) == ""

    @settings(max_examples=200)
    @given(st.lists(st.lists(csv_values(), min_size=3, max_size=3), max_size=12), st.data())
    def test_row_templates_render_as_format_value(self, rows, data):
        """Rows of only int, float and str take one cached template per type
        tuple; any other row takes format_value. Repeated rows reuse the
        cached templates."""
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
        t = ResultTable(("a", "b", "c"))
        for row in rows:
            t.append(*row)
        lines = ["a,b,c"] + [",".join(format_value(v) for v in row) for row in rows]
        assert t.to_csv_text() == "\n".join(lines) + "\n"

    def test_row_width_enforced(self):
        t = ResultTable(("a", "b"))
        with pytest.raises(ValueError):
            t.append(1)

    def test_csv_round_layout(self):
        t = ResultTable(("a", "b"))
        t.append(1, 0.5)
        t.append(2, None)
        assert t.to_csv_text() == "a,b\n1,0.5\n2,\n"


class TestDescribeHypothesis:
    def test_each_descriptor_kind(self):
        assert describe_hypothesis(
            Hypothesis(np.array([False, True]), ("threshold", 0, 1.5))
        ) == "threshold(axis=0,at=1.5)"
        assert describe_hypothesis(
            Hypothesis(np.array([True]), ("halfspace", (1.0, -2.0), 0.5))
        ) == "halfspace(w=(1,-2),b=0.5)"
        assert describe_hypothesis(
            Hypothesis(np.array([False, True]), ("singleton", 1))
        ) == "singleton(1)"
        assert describe_hypothesis(
            Hypothesis(np.array([False, False]), ("constant", 0))
        ) == "constant(0)"

    def test_bare_labels_fall_back_to_bits(self):
        assert describe_hypothesis(Hypothesis(np.array([True, False, True]))) == "101"


class TestEvalTable:
    def test_accept_threshold_line_rows(self):
        """On the four-point line, gaming shifts the loss mass one point down."""
        table = eval_table(gen_example2(0.25, 0.05, 0.45, 0.25))
        assert len(table) == 5
        names = column(table, "hypothesis")
        assert names[2] == "threshold(axis=0,at=2.5)"
        strategic = column(table, "strategic_loss")
        assert strategic[2] == 0.05
        assert strategic[3] == 0.45
        # the upper threshold is perfect after everyone responds
        assert column(table, "effective_binary_loss")[3] == 0.0
        assert column(table, "burden_conditional")[3] == 0.45 / 0.7
        assert column(table, "burden_numerator")[3] == 0.45
        # accepting everyone burdens nobody; rejecting everyone strands them
        assert column(table, "burden_numerator")[0] == 0.0
        assert column(table, "burden_conditional")[4] == float("inf")

    def test_edgeless_scenario_collapses_to_binary(self):
        """Without any edges the strategic column equals the binary column."""
        sc = gen_component_case("partial_order", poset="antichain", size=3)
        table = eval_table(sc)
        assert column(table, "strategic_loss") == column(table, "binary_loss")
        assert all(v == 0.0 for v in column(table, "component_loss"))
        assert all(column(table, "incentive_compatible"))
        labels = [describe_hypothesis(h) for h in sc.hclass]
        assert column(table, "effective_labels") == labels

    def test_burden_flag_blanks_burden_columns(self):
        table = eval_table(gen_example2(0.25, 0.05, 0.45, 0.25), burden=False)
        assert set(column(table, "burden_conditional")) == {None}
        assert set(column(table, "burden_numerator")) == {None}


class TestVcTable:
    def test_threshold_class_dimensions(self):
        sc = gen_example2(0.25, 0.25, 0.25, 0.25)
        table = vc_table(sc, targets=["class", "binary"])
        assert column(table, "dimension") == [1, 1]
        assert column(table, "capped") == [False, False]

    def test_blowup_strategic_dimension(self):
        table = vc_table(gen_obs1(3), targets=["strategic"])
        assert column(table, "dimension") == [3]
        assert column(table, "capped") == [False]

    def test_complete_graph_component_matches_class(self):
        sc = gen_component_case("complete", n=5, class_size=6, seed=3)
        table = vc_table(sc, targets=["class", "component"])
        dims = column(table, "dimension")
        assert dims[0] == dims[1]

    def test_default_targets_add_graph_when_candidates_exist(self):
        sc = gen_random(5, 4, seed=1, n_graphs=2)
        table = vc_table(sc)
        assert column(table, "target") == ["class", "binary", "strategic", "component", "graph"]

    def test_graph_target_without_candidates_rejected(self):
        with pytest.raises(ConfigError, match="candidate graphs"):
            vc_table(gen_random(5, 4, seed=1), targets=["graph"])

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="unknown target"):
            vc_table(gen_random(5, 4, seed=1), targets=["margin"])


class TestRegistry:
    def test_available_names(self):
        assert available_experiments() == [
            "example1", "example2", "graph-learn", "obs1",
            "thm3", "thm4", "thm5", "uniform-conv",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("thm9")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            run_experiment("example1", params={"m": 3})

    def test_trials_override_maps_to_draws(self):
        res = run_experiment("thm5", params={"n_points": 5, "n_hypotheses": 4}, trials=5)
        assert len(res.table) == 5

    def test_trials_override_maps_to_trials(self):
        res = run_experiment(
            "thm3",
            params={"eps_values": [0.1], "d": 2},
            trials=30,
            seed=3,
        )
        assert column(res.table, "trials") == [30]


class TestExperimentChecks:
    def test_example1_all_checks_pass(self):
        res = run_experiment("example1", seed=0)
        assert res.failures() == []
        assert len(res.table) == 11

    def test_example2_all_checks_pass(self):
        res = run_experiment("example2", seed=0)
        assert res.failures() == []
        assert column(res.table, "post_response_best") == [3.5] * 5

    def test_obs1_all_checks_pass(self):
        res = run_experiment("obs1", seed=0)
        assert res.failures() == []
        assert column(res.table, "class_vc") == [1, 1]
        assert column(res.table, "strategic_vc") == [2, 3]

    def test_thm5_small_run_passes(self):
        res = run_experiment("thm5", params={"draws": 25}, seed=11)
        assert res.failures() == []
        assert min(column(res.table, "min_slack")) >= -1e-12

    def test_graph_learn_run_passes(self):
        res = run_experiment("graph-learn", seed=4)
        assert res.failures() == []
        fields = dict(
            (r[0] + "." + r[1], r[2]) for r in res.table.rows
        )
        assert fields["bounds.min_slack"] >= -1e-12

    def test_experiment_reports_its_name(self):
        res = run_experiment("thm5", trials=3)
        assert res.name == "thm5"


class TestDeterminism:
    def test_thm3_worker_count_does_not_change_csv(self):
        kw = dict(params={"eps_values": [0.1], "d": 2}, trials=40, seed=7)
        a = run_experiment("thm3", workers=1, **kw)
        b = run_experiment("thm3", workers=2, **kw)
        assert a.table.to_csv_text() == b.table.to_csv_text()

    def test_thm4_worker_count_does_not_change_csv(self):
        kw = dict(
            params={"instances": 3, "n_points": 6, "n_hypotheses": 4,
                    "n_grid": [10, 40], "trials": 20},
            seed=5,
        )
        a = run_experiment("thm4", workers=1, **kw)
        b = run_experiment("thm4", workers=2, **kw)
        assert a.table.to_csv_text() == b.table.to_csv_text()

    def test_uniform_conv_worker_count_does_not_change_csv(self):
        kw = dict(
            params={"n_grid": [20, 80], "trials": 20},
            seed=9,
        )
        a = run_experiment("uniform-conv", workers=1, **kw)
        b = run_experiment("uniform-conv", workers=2, **kw)
        assert a.table.to_csv_text() == b.table.to_csv_text()

    def test_thm5_worker_count_does_not_change_csv(self):
        kw = dict(params={"draws": 9, "n_points": 5, "n_hypotheses": 4}, seed=17)
        a = run_experiment("thm5", workers=1, **kw)
        b = run_experiment("thm5", workers=2, **kw)
        assert a.table.to_csv_text() == b.table.to_csv_text()

    def test_same_seed_same_bytes_across_runs(self):
        kw = dict(params={"draws": 10}, seed=13)
        assert (
            run_experiment("thm5", **kw).table.to_csv_text()
            == run_experiment("thm5", **kw).table.to_csv_text()
        )


# sha256 of each experiment's CSV on a small configuration. The Monte Carlo
# digests were recorded before the experiments moved to one per-seed runner,
# the example1, example2, obs1 and graph-learn ones before the losses moved
# to class-level matrices; any change to seeds, draw order, summation order
# or formatting shows up here.
GOLDEN_CSV_SHA256 = {
    "example1": (
        dict(seed=3),
        "8acf041054ca76cb88cd35933147f7f30d7cbfe749a9e88f95fb13c8d47701c1",
    ),
    "example2": (
        dict(seed=4),
        "f45b649fb70c8d1eb0c0d9d4ad03ae7d0511c45f1c75fdbad756bfc4f64e97c4",
    ),
    "obs1": (
        dict(params={"d_values": [2, 3, 4]}, seed=5),
        "7833e3a506fa1ce38ef807ec6a9b2627f86b9bedbc3fe7d59250a29b64c49e81",
    ),
    "graph-learn": (
        dict(params={"sample_size": 300, "labeled_sample_size": 200}, seed=6),
        "9aee4a36c76aec60930edadd40f4ddb1f6362b22d95d6602ee439a372d53eb99",
    ),
    "thm3": (
        dict(params={"eps_values": [0.1], "d": 2, "trials": 60}, seed=7),
        "5e661f689cf02d44807b002123f7bb043695d6cc086af2cd0041f6226f8b4dce",
    ),
    "thm4": (
        dict(params={"instances": 3, "n_points": 6, "n_hypotheses": 4,
                     "n_grid": [10, 40], "trials": 20}, seed=5),
        "b063e8d1cdea01cd17b605c3d0e657aaf4438dba0df60f1e4578c40428f35c31",
    ),
    "thm5": (
        dict(params={"draws": 12, "n_points": 6, "n_hypotheses": 4}, seed=11),
        "bdb7adc07a2e0c2a65f93edb10243aee30cc8ef3a416b3fbbb96c34933bbc8ed",
    ),
    "thm5/600-draws": (
        dict(params={"draws": 600}, seed=7),
        "36b014160583fc883cdc0083a9ec6dfe5b86022893dc735e5b508eb301e7ab88",
    ),
    # 3 points and 5 of the 8 labelings: most draws repeat a labeling and
    # m * n is odd, so the draws take the fallback drawer.
    "thm5/repeated-labels": (
        dict(params={"draws": 600, "n_points": 3, "n_hypotheses": 5}, seed=13),
        "7d21532588368678b5a0cfcad3c4ded2af7e565dbabed8beca8501b5f92e78ff",
    ),
    "uniform-conv": (
        dict(params={"n_grid": [20, 80], "trials": 20}, seed=9),
        "16996097005be989d135175cf89486e14cca07873ec9b35e2749dc062b8a8133",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, name, workers):
        kw, digest = GOLDEN_CSV_SHA256[name]
        csv = run_experiment(name.split("/")[0], workers=workers, **kw).table.to_csv_text()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest


# sha256 of the eval CSV on a seeded random scenario, with and without the
# burden columns, recorded before the losses moved to class-level matrices.
GOLDEN_EVAL_CSV_SHA256 = {
    True: "74d2915477c5294c356da845bba2e816ab73bd39daa29a1dd587ac783e94e262",
    False: "55bbaa5238c25ee5d78e098ba1dd336f6bc4d5355d268ed826ec750583f717d6",
}


def _thm3_rates_one_trial_at_a_time(params: dict, trials: int, seed: int) -> list[float]:
    """thm3's observed failure rates from the scalar learner, one sample per trial."""
    d, delta, slack = params["d"], params["delta"], params["slack"]
    graph = gen_obs1(d).graph
    targets = range(d, d + (1 << d))
    rates = []
    for ei, eps in enumerate(params["eps_values"]):
        P = obs1_distribution(d, params["target_j"], eps)
        n = math.ceil(math.log(1.0 / delta) / (2.0 * eps)) + slack
        fails = 0
        for t in range(ei * trials, (ei + 1) * trials):
            learned = singleton_learner(draw_sample(P, n, trial_seed(seed, t)), targets)
            fails += expected_loss(LossKind.strategic(graph), learned, P) > eps
        rates.append(fails / trials)
    return rates


def _uc_columns_one_trial_at_a_time(n_grid: list, trials: int, seed: int, margin: float):
    """uniform-conv's median and mean deviation and coverage per n, from one
    bincount per trial."""
    sc = build_scenario({"generator": "random", "params": {
        "n_points": 10, "n_hypotheses": 8, "density": 0.3, "n_graphs": 5}}, seed)
    H, truth, G = sc.hclass, sc.graph, sc.graph_class
    marginal = sc.dist.marginal()
    comp_truth = class_component_matrix(H, truth)
    diff = np.concatenate([comp_truth != class_component_matrix(H, g) for g in G]).astype(np.int64)
    true_d = np.array([hpx_distance(truth, g, H, marginal) for g in G])
    cum = np.cumsum(marginal)
    columns = []
    for n_i, n in enumerate(n_grid):
        devs, covs = [], []
        for j in range(trials):
            rng = np.random.Generator(np.random.PCG64(trial_seed(seed, _UC_BASE + n_i * trials + j)))
            counts = np.bincount(inverse_cdf(cum, rng.random(n)), minlength=cum.shape[0])
            per = (diff @ counts).reshape(len(G), -1).max(axis=1) / n
            li = int(per.argmin())
            devs.append(float(np.abs(true_d - per).max()))
            covs.append(bool(true_d[li] < per[li] + margin))
        devs = np.array(devs)
        columns.append((float(np.median(devs)), float(devs.mean()), float(np.mean(covs))))
    return columns


class TestTrialBlocks:
    """The block kernels equal a loop over one trial at a time. 300 trials
    do not fill a whole number of 256-trial blocks, and the largest sample
    sizes also cap a block by its draws."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 300])
    def test_thm3_blocks_equal_scalar_learner(self, trials, workers):
        params = {"eps_values": [0.3, 0.0002], "delta": 0.5, "slack": 0, "d": 2, "target_j": 1}
        got = run_experiment("thm3", params=params, trials=trials, seed=41, workers=workers)
        want = _thm3_rates_one_trial_at_a_time(params, trials, 41)
        assert column(got.table, "observed_failure_rate") == want
        assert trials == 1 or 0 < min(want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 300])
    def test_uniform_conv_blocks_equal_scalar_trials(self, trials, workers):
        n_grid = [20, 3300]
        got = run_experiment("uniform-conv", params={"n_grid": n_grid}, trials=trials,
                             seed=43, workers=workers).table
        want = _uc_columns_one_trial_at_a_time(n_grid, trials, 43, 0.1)
        assert list(zip(column(got, "median_deviation"), column(got, "mean_deviation"),
                        column(got, "coverage"))) == want

    def test_block_sizes(self):
        assert _trial_blocks(10, 300, 20) == [(10, 256), (266, 44)]
        assert _trial_blocks(0, 1, 3300) == [(0, 1)]
        assert _trial_blocks(0, 500, 3300) == [(0, 242), (242, 242), (484, 16)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_thm3_block_raises_the_scalar_learners_error(self, workers):
        # point 0 is negative, point 1 the one target, points 2..7 positive off-target
        P = LabeledDistribution([[0.6, 0.0], [0.0, 0.1]] + [[0.0, 0.05]] * 6)
        n, master, targets = 2, 77, (1,)
        first_broken = None
        for t in range(300):
            try:
                singleton_learner(draw_sample(P, n, trial_seed(master, t)), targets)
            except RealizabilityError as e:
                first_broken = (t, str(e))
                break
        assert first_broken is not None and first_broken[0] > 0
        loss_by_point = np.zeros(P.size + 1)
        shared = (targets, master, [(P, np.cumsum(P.weights.ravel()), n, 0.1, loss_by_point)])
        items = [(0, *block) for block in _trial_blocks(0, 300, n)]
        with pytest.raises(RealizabilityError, match=f"^{re.escape(first_broken[1])}$"):
            _run_seeded(_thm3_block, shared, items, workers)


class TestThm5Blocks:
    """thm5 runs seeded blocks of up to 256 draws through one batched
    surrogate chain; every row is what the one-draw path gives: gen_random
    on the draw's own seed, then surrogate_bounds."""

    @staticmethod
    def _instance(k, seed, n_points=8, n_hypotheses=6, density=0.35):
        return gen_random(n_points, n_hypotheses, density,
                          seed=trial_seed(seed, _THM5_BASE + k), n_graphs=1)

    def test_rows_do_not_depend_on_block_boundaries(self):
        """257 draws end one row into the second block; 600 fill two blocks
        and part of a third."""
        short = run_experiment("thm5", params={"draws": 257}, seed=23).table.to_csv_text()
        long = run_experiment("thm5", params={"draws": 600}, seed=23).table.to_csv_text()
        assert long.splitlines(keepends=True)[:258] == short.splitlines(keepends=True)
        assert long.count("\n") == 601

    def test_worker_count_does_not_change_csv_across_blocks(self):
        kw = dict(params={"draws": 600}, seed=29)
        a = run_experiment("thm5", workers=1, **kw)
        b = run_experiment("thm5", workers=2, **kw)
        assert a.table.rows == b.table.rows
        assert a.table.to_csv_text() == b.table.to_csv_text()

    @staticmethod
    def _one_product_per_row(h, sc):
        """The chain's five terms over the oracle's loss cells, each as one
        dot product of a row, and the distance as one matrix-vector product."""
        w, marginal = sc.dist.weights.ravel(), sc.dist.marginal()

        def cells(member, kind, graph=None):
            return np.array(oracles.oracle_loss_cells(member, kind, graph=graph), dtype=float)

        def comp(member, graph):
            return np.array([c for c, _ in oracles.oracle_loss_cells(member, "component", graph=graph)])

        mismatch = np.array([comp(g, sc.graph) != comp(g, sc.graph2) for g in sc.hclass])
        return [
            float(w @ cells(h, "strategic", sc.graph).ravel()),
            float(w @ cells(h, "binary").ravel()),
            float(marginal @ comp(h, sc.graph2).astype(float)),
            float(w @ cells(h, "strategic", sc.graph2).ravel()),
            float((mismatch.astype(float) @ marginal).max()),
        ]

    @pytest.mark.parametrize("n_points", [5, 8, 12])
    def test_rows_equal_surrogate_bounds_and_oracles(self, n_points):
        """Equal to surrogate_bounds and to one product per row, and within
        1e-12 of the exact rational oracles."""
        rows = run_experiment("thm5", params={"draws": 200, "n_points": n_points}, seed=31).table.rows
        assert len(rows) == 200
        for k, member, *values in rows:
            sc = self._instance(k, 31, n_points)
            h = sc.hclass[member]
            assert member == k % len(sc.hclass)
            rep = surrogate_bounds(h, sc.graph, sc.graph2, sc.hclass, sc.dist)
            assert values == [
                rep.true_strategic, rep.binary, rep.surrogate_component,
                rep.surrogate_strategic, rep.distance, rep.upper1, rep.upper2,
                rep.lower, rep.lower_tight, rep.min_slack(),
            ]
            assert values[:5] == self._one_product_per_row(h, sc)
            want = [
                oracles.oracle_expected_loss(h, sc.dist, "strategic", sc.graph),
                oracles.oracle_expected_loss(h, sc.dist, "binary"),
                oracles.oracle_expected_loss(h, sc.dist, "component", sc.graph2),
                oracles.oracle_expected_loss(h, sc.dist, "strategic", sc.graph2),
                oracles.oracle_distance(sc.graph, sc.graph2, sc.hclass, sc.dist.marginal()),
            ]
            assert values[:5] == pytest.approx([float(v) for v in want], rel=0, abs=1e-12)

    def test_raises_the_error_of_the_lowest_failing_draw(self, monkeypatch):
        """A negative tolerance fails the draws whose slack is below it; the
        block path raises what surrogate_bounds raises on the first of them."""
        seed = 37
        slack = column(run_experiment("thm5", params={"draws": 600}, seed=seed).table, "min_slack")
        ranked = sorted(set(slack))
        cut = (ranked[2] + ranked[3]) / 2
        failing = [k for k, v in enumerate(slack) if v < cut]
        assert len(failing) == 3 and failing[-1] >= 256
        monkeypatch.setattr(graphdist, "BOUND_TOL", -cut)
        with pytest.raises(BoundViolationError) as first:
            for k in range(600):
                sc = self._instance(k, seed)
                surrogate_bounds(sc.hclass[k % len(sc.hclass)], sc.graph, sc.graph2, sc.hclass, sc.dist)
        assert k == failing[0]
        with pytest.raises(BoundViolationError, match=f"^{re.escape(str(first.value))}$"):
            run_experiment("thm5", params={"draws": 600}, seed=seed)


class TestThm5Decoding:
    """_thm5_arrays runs the word drawer over blocks of draws; every array
    must equal what the Generator drawer (tests/generator_drawer.py) draws
    from that draw's generator, and a draw whose labelings repeat is drawn
    again from its own live stream."""

    @staticmethod
    def _drawn(master, first, count, n_points, n_hypotheses, density=0.35):
        seeds = trial_seeds(master, _THM5_BASE + first, count).tolist()
        return [
            generator_drawer.random_arrays(generator_drawer.generator(s), n_points, n_hypotheses,
                                           density, n_graphs=1)
            for s in seeds
        ]

    def _check(self, monkeypatch, master, first, count, n_points, n_hypotheses, density=0.35):
        """Compare every array; return how many draws were drawn again."""
        redrawn = []

        def spy(read, *args, **kwargs):
            if read.live:
                redrawn.append(args)
            return _random_arrays(read, *args, **kwargs)

        monkeypatch.setattr(scenarios, "_random_arrays", spy)
        shared = (n_points, n_hypotheses, density, master)
        labels, adj, cand, weights = scenarios._thm5_arrays(shared, _THM5_BASE + first, count)
        want = self._drawn(master, first, count, n_points, n_hypotheses, density)
        for got, name in ((labels, "labels"), (adj, "adj"), (weights, "weights")):
            assert got.dtype == getattr(want[0], name).dtype
            assert np.array_equal(got, np.stack([getattr(a, name) for a in want])), name
        assert np.array_equal(cand, np.stack([a.candidates[0] for a in want]))
        return len(redrawn)

    @pytest.mark.parametrize("n_points, n_hypotheses, low, high", [
        (1, 1, 0, 0), (1, 2, 1, 79), (3, 5, 1, 79), (3, 7, 60, 79), (3, 8, 80, 80),
        (8, 6, 1, 79), (8, 1, 0, 0), (12, 9, 0, 0), (12, 200, 60, 79),
    ])
    def test_arrays_equal_random_arrays(self, monkeypatch, n_points, n_hypotheses, low, high):
        """80 draws. m * n is odd at 1 x 1, 3 x 5 and 3 x 7. Between low and
        high draws repeat a labeling: none with one member or few members
        on 12 points, every draw that needs all 8 labelings of 3 points,
        most of 3 x 7 and 12 x 200, some of the others."""
        assert low <= self._check(monkeypatch, 41, 5, 80, n_points, n_hypotheses) <= high

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.8, 1.0])
    def test_densities_at_the_candidate_bounds(self, monkeypatch, density):
        self._check(monkeypatch, 43, 0, 40, 5, 4, density)

    @pytest.mark.parametrize("block, redrawn", [(300, 0), (148, 0)])
    def test_chunks_and_draws_longer_than_a_block(self, monkeypatch, block, redrawn):
        """A draw of 8 x 1 takes 149 words: chunks of 2 draws, which do not
        divide 7, and chunks of one draw when none fit."""
        monkeypatch.setattr(scenarios, "_COUNT_BLOCK", block)
        assert self._check(monkeypatch, 47, 3, 7, 8, 1) == redrawn

    @pytest.mark.parametrize("count", [1, 2, 15, 48, 49])
    def test_coin_flips_equal_integers(self, count):
        words = np.random.PCG64(count).random_raw((count + 1) // 2)
        want = np.random.Generator(np.random.PCG64(count)).integers(0, 2, count)
        assert np.array_equal(_coin_flips(words[None], count)[0], want.astype(bool))
        shaped = np.random.Generator(np.random.PCG64(count)).integers(0, 2, (1, count))
        assert np.array_equal(shaped.ravel(), want)

    @pytest.mark.parametrize("n", [1, 3, 8, 63, 64, 65, 127, 130])
    def test_repeats_a_row_at_every_width(self, n):
        """Equal to comparing each matrix's row bytes in a set; every third
        matrix is given a repeated row."""
        rows = np.random.default_rng(n).random((40, 5, n)) < 0.5
        rows[::3, 4] = rows[::3, 1]
        want = [len({r.tobytes() for r in matrix}) < 5 for matrix in rows]
        assert scenarios._repeats_a_row(rows).tolist() == want


class TestBenchmarkScaleDigests:
    """Calls of benchmark job seed 1000, through cli.main at the benchmark's
    parameters and worker counts, write the CSV bytes recorded in
    perfbench/digests.json."""

    @staticmethod
    def _check(tmp_path, workload, calls, workers):
        recorded = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
        )
        for kind, command, cfg in calls:
            config, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.csv"
            config.write_text(json.dumps(cfg))
            assert cli.main([command, "--config", str(config), "--out", str(out),
                             "--workers", str(workers)]) == 0
            digest = hashlib.sha256(out.read_text(encoding="utf-8").encode("utf-8")).hexdigest()
            assert digest == recorded[f"{workload}/{kind}/1000"], kind

    def test_monte_carlo_job_1000_matches_recorded_digests(self, tmp_path):
        """The four monte-carlo calls at 2 workers."""
        params = {
            "thm3": ("thm3", {"trials": 5000}),
            "thm4": ("thm4", {"trials": 500}),
            "thm5": ("thm5", {"draws": 2000, "n_points": 8, "n_hypotheses": 6, "density": 0.35}),
            "uniform_conv": ("uniform-conv", {"trials": 2000}),
        }
        calls = [
            (kind, "experiment", {"seed": 1000, "experiment": {"name": name, "params": p}})
            for kind, (name, p) in params.items()
        ]
        self._check(tmp_path, "monte-carlo", calls, workers=2)

    def test_exact_sparse_job_1000_matches_recorded_digests(self, tmp_path):
        """The eval and graph-learn calls of exact-sparse at 1 worker."""
        cfg = {
            "scenario": {"generator": "random", "params": {
                "n_points": 1000, "n_hypotheses": 100, "density": 0.01, "n_graphs": 4}},
            "seed": 1000,
            "eval": {"burden": True},
            "graph_learn": {"sample_size": 10000, "labeled_sample_size": 10000},
        }
        calls = [("eval", "eval", cfg), ("graph_learn", "graph-learn", cfg)]
        self._check(tmp_path, "exact-sparse", calls, workers=1)


class TestEvalGoldenDigests:
    @pytest.mark.parametrize("burden", [True, False])
    def test_eval_csv_bytes_are_pinned(self, burden):
        spec = {"generator": "random",
                "params": {"n_points": 40, "n_hypotheses": 30, "density": 0.08}}
        csv = eval_table(build_scenario(spec, 21), burden=burden).to_csv_text()
        assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_EVAL_CSV_SHA256[burden]


def _vc_search_scenario(n_hypotheses=80, density=0.3, n_points=12, n_graphs=3):
    return {"generator": "random", "params": {
        "n_points": n_points, "n_hypotheses": n_hypotheses, "density": density,
        "n_graphs": n_graphs}}


_ALL_VC_TARGETS = ["class", "binary", "strategic", "component", "graph"]

# sha256 of the vc CSV on the benchmark's vc-search configuration (12 points,
# 80 members, all five targets, cap 6) at three seeds, plus one run that
# reaches its cap. The digests were recorded before the VC search became
# levelwise; any change to a dimension, witness or set count shows up here.
GOLDEN_VC_CSV_SHA256 = {
    "vc-search-1000": (
        (_vc_search_scenario(), 1000, 6),
        "26993f0a6fa489ce11d3e6e93ba606dbcea5cf57decbbbe9af54672f3b3e44fc",
    ),
    "vc-search-7003": (
        (_vc_search_scenario(), 7003, 6),
        "e7bc0b07fabce2d38c9ddba92534d96919ff899701868c117b0bbb3adc141649",
    ),
    "vc-search-20001": (
        (_vc_search_scenario(), 20001, 6),
        "babb8c480f2945f8a46c889e6e11be14ad29e6ffe0a0da5ce8dfc1a6b3ec6deb",
    ),
    "capped-at-3": (
        (_vc_search_scenario(n_hypotheses=60, density=0.4, n_points=10, n_graphs=4), 7, 3),
        "82ceadcdde7fc7f136700a42ce94f92ea962afc803a80f365bcc0b44bb899751",
    ),
}


class TestVcGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_VC_CSV_SHA256))
    def test_vc_csv_bytes_are_pinned(self, name):
        (spec, seed, cap), digest = GOLDEN_VC_CSV_SHA256[name]
        table = vc_table(build_scenario(spec, seed), targets=_ALL_VC_TARGETS, cap=cap)
        assert hashlib.sha256(table.to_csv_text().encode()).hexdigest() == digest
