"""Acceptance suite: one test per shipping criterion.

Each test prints a single [PASS]/[FAIL] line with the measured quantities
and asserts both the criterion and its wall-clock budget. Monte Carlo
criteria use fixed master seeds with per-trial derived seeds, so every run
sees the same draws.
"""

import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from strategia.cli import main
from strategia.domain import HypothesisClass
from strategia.graphdist import hpx_distance, empirical_sample_distance
from strategia.learners import draw_sample, ic_erm
from strategia.rng import trial_seed
from strategia.losses import (
    LossKind,
    class_component_matrix,
    effective_hypothesis,
    empirical_loss,
    expected_loss,
    is_incentive_compatible,
    observed_component_matrix,
)
from strategia.oracles import (
    oracle_distance,
    oracle_empirical_distance,
    oracle_empirical_graph_loss,
    oracle_empirical_loss,
    oracle_expected_loss,
    oracle_graph_loss,
    oracle_loss_cells,
    oracle_true_graph_loss,
    oracle_vc,
)
from strategia.experiments import run_experiment
from strategia.graphdist import draw_graph_sample
from strategia.scenarios import gen_component_case, gen_example1, gen_example2, gen_obs1, gen_random
from strategia.vcdim import SetSystem, class_system, graph_loss_class, is_shattered, loss_class, vc_dimension

_budgets: list[float] = []


@contextmanager
def budget(seconds: float, number: int, label: str):
    """Report one criterion line and enforce its wall-clock budget."""
    start = time.perf_counter()
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        tag = "PASS" if outcome["ok"] else "FAIL"
        sys.stdout.write(
            f"[{tag}] criterion {number}: {label}: {outcome['detail']} "
            f"({elapsed:.2f}s, budget {seconds:g}s)\n"
        )
    assert elapsed < seconds, f"criterion {number} took {elapsed:.2f}s, budget {seconds}s"


def population_argmin(values: list[float]) -> int:
    return int(np.argmin(values))


class TestCriterion01:
    def test_strategic_and_post_response_optima_exact(self):
        """The strategic optimum tracks the decisive mass; the post-response
        optimum stays at the upper threshold."""
        with budget(1.0, 1, "accept-threshold line optima") as out:
            details = []
            for p2, p3 in ((0.05, 0.45), (0.45, 0.05)):
                sc = gen_example2(0.25, p2, p3, 0.25)
                H, P, graph = sc.hclass, sc.dist, sc.graph
                strategic = LossKind.strategic(graph)
                losses = [expected_loss(strategic, h, P) for h in H]
                cut = float(H[population_argmin(losses)].descriptor[2])
                expect = 2.5 if p2 < p3 else 3.5
                assert cut == expect
                post = [
                    expected_loss(LossKind.binary(), effective_hypothesis(h, graph), P)
                    for h in H
                ]
                assert float(H[population_argmin(post)].descriptor[2]) == 3.5
                # the two interior thresholds pay exactly the decisive masses
                assert losses[2] == p2
                assert losses[3] == p3
                details.append(f"p2={p2}: best {cut}, losses ({losses[2]}, {losses[3]})")
            out["detail"] = "; ".join(details)


class TestCriterion02:
    def test_incentive_compatible_set_is_the_constants(self):
        """Only the constant rules survive the compatibility filter, and the
        filtered learner pays exactly one half on the balanced split."""
        with budget(1.0, 2, "compatibility filter on the two-way chain") as out:
            sc = gen_example1(10)
            H, P, graph = sc.hclass, sc.dist, sc.graph
            ic = [i for i, h in enumerate(H) if is_incentive_compatible(h, graph)]
            constants = [i for i, h in enumerate(H) if not h.labels.any() or h.labels.all()]
            assert ic == constants and len(ic) == 2
            S = draw_sample(P, 200, trial_seed(202, 0))
            pick = ic_erm(H, S, graph)
            true_binary = expected_loss(LossKind.binary(), pick.hypothesis, P)
            assert true_binary == 0.5
            out["detail"] = f"feasible set {ic}, learner's exact binary loss {true_binary}"


class TestCriterion03:
    def test_dimension_one_class_with_freely_cut_sources(self):
        """The singleton blow-up has class dimension 1 while its strategic
        loss sets shatter all d rejected sources."""
        with budget(10.0, 3, "blow-up dimensions for d in {2, 3}") as out:
            details = []
            for d in (2, 3):
                sc = gen_obs1(d)
                class_report = vc_dimension(class_system(sc.hclass), cap=4)
                assert class_report.dimension == 1 and not class_report.capped
                strat = loss_class(sc.hclass, LossKind.strategic(sc.graph))
                source_pairs = [2 * i for i in range(d)]
                assert is_shattered(strat, source_pairs)
                strat_report = vc_dimension(strat, cap=d + 1)
                assert strat_report.dimension >= d
                details.append(f"d={d}: class 1, strategic {strat_report.dimension}")
            out["detail"] = "; ".join(details)


class TestCriterion04:
    def test_binary_dimension_never_exceeds_strategic(self):
        """Across 500 seeded instances the strategic loss class is at least
        as rich as the plain misclassification one."""
        with budget(60.0, 4, "dimension ordering on 500 instances") as out:
            violations = []
            for k in range(500):
                s = trial_seed(40_000_000, k)
                n = 3 + (s % 6)
                m = min(2 + ((s >> 8) % 15), 1 << n)
                density = 0.3 + ((s >> 16) % 3) * 0.15
                sc = gen_random(int(n), int(m), density=float(density), seed=int(s))
                db = vc_dimension(loss_class(sc.hclass, LossKind.binary()))
                ds = vc_dimension(loss_class(sc.hclass, LossKind.strategic(sc.graph)))
                assert not db.capped and not ds.capped
                if db.dimension > ds.dimension:
                    violations.append((k, db.dimension, ds.dimension))
            assert violations == []
            out["detail"] = f"0 violations over 500 instances (n <= 8, class size <= 16)"


class TestCriterion05:
    def test_singleton_learner_sample_bound_shape(self):
        """At the prescribed sample size the realizable singleton learner's
        failure rate sits below the confidence target."""
        with budget(60.0, 5, "singleton learner failure rates") as out:
            res = run_experiment("thm3", seed=0)
            assert res.failures() == []
            rows = {row[0]: row for row in res.table.rows}
            details = []
            for eps in (0.05, 0.1):
                _, delta, n, exact, rate, trials = rows[eps]
                expected_n = math.ceil(math.log(1.0 / delta) / (2.0 * eps)) + 2
                assert n == expected_n
                assert exact <= delta
                assert rate <= delta + 0.05
                details.append(f"eps={eps}: n={n}, observed {rate:.4f}")
            assert all(row[5] == 2000 for row in res.table.rows)
            out["detail"] = "; ".join(details)


class TestCriterion06:
    def test_strategic_erm_excess_shrinks(self):
        """Median excess strategic loss of sample ERM is nonincreasing in the
        sample size and small at the largest size."""
        with budget(300.0, 6, "ERM excess over 20 bounded-dimension instances") as out:
            res = run_experiment("thm4", seed=0)
            assert res.failures() == []
            medians = [row[1] for row in res.table.rows]
            ns = [row[0] for row in res.table.rows]
            assert ns == [25, 100, 400, 1600]
            assert all(row[4] == 20 and row[5] == 200 for row in res.table.rows)
            assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
            assert medians[-1] <= 0.05
            out["detail"] = f"median excess per n {ns}: {[f'{m:.4f}' for m in medians]}"


class TestCriterion07:
    def test_loss_transfer_chain_holds(self):
        """All three chain inequalities hold on 500 seeded draws."""
        with budget(60.0, 7, "surrogate chain on 500 draws") as out:
            res = run_experiment("thm5", seed=0)
            assert res.failures() == []
            assert len(res.table) == 500
            slack = min(row[-1] for row in res.table.rows)
            assert slack >= -1e-12
            out["detail"] = f"500 draws, worst slack {slack:.3e}"


class TestCriterion08:
    def test_graph_loss_is_component_mismatch(self):
        """Pointwise, the candidate-graph loss equals the absolute difference
        of the two component losses, exhaustively."""
        with budget(30.0, 8, "graph loss identity on 200 instances") as out:
            checked = 0
            for k in range(200):
                s = trial_seed(41_000_000, k)
                sc = gen_random(6, 6, density=0.35, seed=int(s), n_graphs=2)
                cand = sc.graph_class[k % 2]
                xs = np.arange(sc.domain.size)
                H = sc.hclass
                losses = (
                    observed_component_matrix(H, xs, sc.graph.neighbor_sets())
                    != class_component_matrix(H, cand)
                )
                for h, row in zip(H, losses):
                    comp_true = oracle_loss_cells(h, "component", graph=sc.graph)
                    comp_cand = oracle_loss_cells(h, "component", graph=cand)
                    for x in xs:
                        want = abs(comp_true[x][0] - comp_cand[x][0])
                        assert row[x] == want
                        checked += 1
            out["detail"] = f"{checked} (hypothesis, point) cells, all exact"


class TestCriterion09:
    def test_distance_concentration_and_learned_graph(self):
        """Empirical graph distances shrink at the square-root rate and the
        empirically selected graph stays close to its estimate."""
        with budget(300.0, 9, "distance concentration sweep") as out:
            res = run_experiment("uniform-conv", seed=0)
            assert res.failures() == []
            medians = {row[0]: row[1] for row in res.table.rows}
            ratios = []
            for n in (50, 200, 800):
                ratio = medians[n] / medians[4 * n]
                assert 1.4 <= ratio <= 2.8
                ratios.append(f"{n}/{4 * n}: {ratio:.3f}")
            coverage = res.table.rows[-1][3]
            assert coverage >= 0.9
            out["detail"] = f"ratios {', '.join(ratios)}; coverage {coverage:.1%}"


class TestCriterion10:
    def test_provable_dimension_spot_checks(self):
        """Exact brute-force checks of the dimension facts for complete
        graphs, coordinate graphs and norm-ball graphs, and of the joint
        (hypothesis, graph) loss class on 50 seeded pairs: its loss sets and
        dimension agree with the quarantined oracles, every slice dimension
        is at most the joint dimension, and the Sauer-Shelah union bounds
        2**D <= |G| * Phi_d2(D) and 2**D <= |H| * Phi_d1(D) hold, where
        Phi_d(m) = sum_{i <= d} C(m, i). The product form D <= d1 * d2 is
        false in general and the additive form D <= d1 + d2 is unproven;
        both are reported, not asserted."""
        with budget(300.0, 10, "dimension spot checks") as out:
            # complete graph: the component class is exactly as rich as the class
            sc = gen_component_case("complete")
            d_class = vc_dimension(class_system(sc.hclass))
            d_comp = vc_dimension(loss_class(sc.hclass, LossKind.component(sc.graph)))
            assert not d_class.capped and not d_comp.capped
            assert d_comp.dimension == d_class.dimension

            # coordinate graph: the component set is the whole rejected set
            sc = gen_component_case("coordinate", grid=3)
            comps = class_component_matrix(sc.hclass, sc.graph)
            for h, comp in zip(sc.hclass, comps):
                want = (~h.labels if h.labels.any() else np.zeros(9, dtype=bool))
                assert np.array_equal(comp, want)

            # norm-ball graph with planar halfspaces: component dimension <= 6
            sc = gen_component_case("ball", grid=4)
            d_ball = vc_dimension(
                loss_class(sc.hclass, LossKind.component(sc.graph)), cap=7
            )
            assert not d_ball.capped and d_ball.dimension <= 6

            # joint class over 50 seeded pairs: oracle agreement and the
            # slice bounds that follow from Sauer-Shelah
            def phi(d, m):
                return sum(math.comb(m, i) for i in range(d + 1))

            over_product, over_sum = [], []
            for k in range(50):
                s = trial_seed(90_000_000, k)
                sc = gen_random(5, 4, density=0.4, seed=int(s), n_graphs=3)
                H = list(sc.hclass)
                G = list(sc.graph_class)
                nsets = sc.graph.neighbor_sets()
                pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
                d1 = max(
                    vc_dimension(
                        graph_loss_class(HypothesisClass([h], sc.domain), G, sc.domain, pairs)
                    ).dimension
                    for h in H
                )
                d2 = max(
                    vc_dimension(
                        graph_loss_class(sc.hclass, [g], sc.domain, pairs)
                    ).dimension
                    for g in G
                )
                joint_sys = graph_loss_class(sc.hclass, G, sc.domain, pairs)
                report = vc_dimension(joint_sys)
                assert not report.capped
                joint = report.dimension

                oracle_sets = {
                    tuple(
                        i
                        for i, (x, B) in enumerate(pairs)
                        if oracle_graph_loss(h, g, x, B)
                    )
                    for h in H
                    for g in G
                }
                assert set(joint_sys.sets) == oracle_sets, f"pair {k}: loss sets"
                want = oracle_vc(SetSystem(pairs, oracle_sets))
                assert joint == want, f"pair {k}: joint {joint} != oracle {want}"

                assert max(d1, d2) <= joint, f"pair {k}: slice above joint"
                assert 2**joint <= len(G) * phi(d2, joint), (
                    f"pair {k}: 2**{joint} > |G|={len(G)} * Phi_{d2}({joint})"
                )
                assert 2**joint <= len(H) * phi(d1, joint), (
                    f"pair {k}: 2**{joint} > |H|={len(H)} * Phi_{d1}({joint})"
                )
                if joint > d1 * d2:
                    over_product.append((k, joint, d1, d2))
                if joint > d1 + d2:
                    over_sum.append((k, joint, d1, d2))
            out["detail"] = (
                f"complete {d_comp.dimension}=={d_class.dimension}, coordinate identity, "
                f"ball {d_ball.dimension}<=6, joint oracle-exact and within the "
                f"Sauer-Shelah slice bounds on 50/50; not asserted: D > d1*d2 on "
                f"{len(over_product)}/50 e.g. {over_product[:3]}, D > d1+d2 on "
                f"{len(over_sum)}/50"
            )


class TestCriterion11:
    def test_fast_paths_agree_with_reference_oracles(self):
        """Expected losses, graph losses, and distances match the quarantined
        brute-force oracles to 1e-12 on 1000 seeded instances."""
        with budget(60.0, 11, "oracle equivalence on 1000 instances") as out:
            worst = 0.0
            for k in range(1000):
                s = trial_seed(42_000_000, k)
                sc = gen_random(5, 4, density=0.35, seed=int(s), n_graphs=2)
                h = sc.hclass[k % 4]
                cand = sc.graph_class[k % 2]
                P, graph, H = sc.dist, sc.graph, sc.hclass
                S = draw_sample(P, 30, trial_seed(s, 1))
                GS = draw_graph_sample(P.marginal(), graph, 30, trial_seed(s, 2))
                h_only = HypothesisClass([h])
                xs, nsets = np.arange(5), graph.neighbor_sets()
                losses = (
                    observed_component_matrix(h_only, xs, nsets)
                    != class_component_matrix(h_only, cand)
                )[0]
                diffs = [
                    expected_loss(LossKind.binary(), h, P)
                    - oracle_expected_loss(h, P, "binary"),
                    expected_loss(LossKind.strategic(graph), h, P)
                    - oracle_expected_loss(h, P, "strategic", graph=graph),
                    expected_loss(LossKind.component(graph), h, P)
                    - oracle_expected_loss(h, P, "component", graph=graph),
                    empirical_loss(LossKind.strategic(graph), h, S)
                    - oracle_empirical_loss(h, S, "strategic", graph=graph),
                    hpx_distance(graph, cand, H, P.marginal())
                    - oracle_distance(graph, cand, H, P.marginal()),
                    empirical_sample_distance(cand, H, GS)
                    - oracle_empirical_distance(cand, H, GS),
                    sum(int(losses[x]) - oracle_graph_loss(h, cand, x, nsets[x]) for x in xs),
                    oracle_true_graph_loss(h, cand, P.marginal(), graph)
                    - hpx_distance(graph, cand, h_only, P.marginal()),
                    oracle_empirical_graph_loss(h, cand, GS)
                    - empirical_sample_distance(cand, h_only, GS),
                ]
                worst = max(worst, max(abs(d) for d in diffs))
            assert worst <= 1e-12
            out["detail"] = f"worst absolute disagreement {worst:.2e}"


class TestCriterion12:
    def test_worker_count_leaves_csv_bytes_unchanged(self, tmp_path):
        """Rerunning an experiment from one config at 1 and 8 workers gives
        byte-identical tables."""
        with budget(300.0, 12, "byte-identical tables at 1 and 8 workers") as out:
            configs = {
                "singleton-rates.json": {
                    "experiment": {
                        "name": "thm3",
                        "params": {"eps_values": [0.1], "d": 2,
                                   "trials": 400},
                    },
                    "seed": 7,
                },
                "concentration.json": {
                    "scenario": {"generator": "random",
                                 "params": {"n_points": 6, "n_hypotheses": 4,
                                            "density": 0.3, "n_graphs": 3}},
                    "experiment": {
                        "name": "uniform-conv",
                        "params": {"n_grid": [20, 80], "trials": 40},
                    },
                    "seed": 7,
                },
            }
            compared = []
            for name, data in configs.items():
                path = tmp_path / name
                path.write_text(json.dumps(data), encoding="utf-8")
                outputs = []
                for tag, workers in (("a", 1), ("b", 8), ("c", 8)):
                    dest = tmp_path / f"{name}.{tag}.csv"
                    rc = main([
                        "experiment", "--config", str(path),
                        "--workers", str(workers), "--out", str(dest),
                    ])
                    assert rc == 0
                    outputs.append(dest.read_bytes())
                assert outputs[0] == outputs[1] == outputs[2]
                compared.append(f"{name}: {len(outputs[0])} bytes")
            out["detail"] = "; ".join(compared)
