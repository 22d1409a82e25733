"""Tests for graph samples, graph losses, graph distances, and loss transfer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategia import (
    BoundViolationError,
    DomainMismatchError,
    EmptyClassError,
    EmptySampleError,
    FiniteDomain,
    GraphClass,
    GraphSample,
    Hypothesis,
    HypothesisClass,
    InvalidGraphSampleError,
    ManipulationGraph,
    NotInClassError,
    StrategiaError,
    SurrogateBoundReport,
    class_component_matrix,
    draw_graph_sample,
    empirical_sample_distance,
    gen_random,
    graph_erm,
    hpx_distance,
    read_graph_sample,
    surrogate_bounds,
    write_graph_sample,
)
from strategia.losses import observed_component_matrix
from strategia import oracles


@st.composite
def scenarios_with_candidates(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, min(8, 1 << n)))
    return gen_random(n_points=n, n_hypotheses=m, density=0.4, seed=seed, n_graphs=3)


@st.composite
def graph_sample_instances(draw):
    sc = draw(scenarios_with_candidates())
    n = draw(st.integers(1, 30))
    S = draw_graph_sample(sc.dist.marginal(), sc.graph, n, seed=draw(st.integers(0, 2**32 - 1)))
    return sc, S


class TestGraphSample:
    def test_rejects_point_inside_its_target_set(self):
        with pytest.raises(ValueError):
            GraphSample([0], [frozenset({0, 1})], n_points=2)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            GraphSample([0], [frozenset({5})], n_points=2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GraphSample([0, 1], [frozenset()], n_points=2)

    @pytest.mark.parametrize("xs, bsets", [
        ([2], [frozenset()]),
        ([0], [frozenset({5})]),
        ([0], [frozenset({0, 1})]),
        ([0, 1], [frozenset()]),
    ], ids=["point-out-of-range", "target-out-of-range", "self-target", "length-mismatch"])
    def test_bad_records_are_package_errors(self, xs, bsets):
        """Library callers can catch every bad record with the package base class."""
        try:
            GraphSample(xs, bsets, n_points=2)
        except StrategiaError as e:
            assert isinstance(e, InvalidGraphSampleError) and isinstance(e, ValueError)
        else:
            pytest.fail("no error raised")

    @given(graph_sample_instances())
    def test_draws_carry_true_successor_sets(self, inst):
        """Every drawn pair holds the reference graph's own successor set
        object, not a copy of it."""
        sc, S = inst
        nsets = sc.graph.neighbor_sets()
        assert all(b is nsets[x] for x, b in S)

    def test_other_target_collections_are_frozen(self):
        S = GraphSample([0, 1], [[1], {0}], n_points=2)
        assert S.bsets == (frozenset({1}), frozenset({0}))
        assert all(type(b) is frozenset for b in S.bsets)

    def test_draw_validates_marginal(self):
        sc = gen_random(n_points=3, n_hypotheses=2, density=0.4, seed=5)
        with pytest.raises(ValueError):
            draw_graph_sample(np.array([0.5, 0.4, 0.2]), sc.graph, 5, seed=0)
        with pytest.raises(DomainMismatchError):
            draw_graph_sample(np.array([0.5, 0.5]), sc.graph, 5, seed=0)


class TestGraphSampleRecords:
    def test_shared_target_set_is_checked_against_each_point(self):
        """A set object seen before still fails the self-target check of a
        later record."""
        bs = frozenset({1})
        with pytest.raises(InvalidGraphSampleError, match=r"^observed target set of point 1 "):
            GraphSample([0, 1], [bs, bs], n_points=2)

    def test_first_bad_record_raises(self):
        ok, far = frozenset({1}), frozenset({5})
        with pytest.raises(InvalidGraphSampleError, match=r"^target index 5 out of range$"):
            GraphSample([0, 0, 7], [ok, far, ok], n_points=3)
        with pytest.raises(InvalidGraphSampleError, match=r"^point index 7 out of range$"):
            GraphSample([0, 7, 0], [ok, ok, far], n_points=3)


class TestGraphSampleFiles:
    @given(graph_sample_instances())
    def test_round_trip_preserves_sample(self, tmp_path_factory, inst):
        """Writing and re-reading a sample reproduces points and target sets."""
        sc, S = inst
        path = tmp_path_factory.mktemp("gs") / "sample.tsv"
        write_graph_sample(S, path)
        back = read_graph_sample(path, n_points=S.n_points)
        assert np.array_equal(back.xs, S.xs) and back.bsets == S.bsets

    def test_empty_target_sets_round_trip(self, tmp_path):
        S = GraphSample([1, 0], [frozenset(), frozenset({1})], n_points=2)
        path = tmp_path / "s.tsv"
        write_graph_sample(S, path)
        back = read_graph_sample(path, n_points=2)
        assert back.bsets == (frozenset(), frozenset({1}))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\n\n1\t\n", encoding="utf-8")
        back = read_graph_sample(path, n_points=2)
        assert len(back) == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\nnot a row\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2:"):
            read_graph_sample(path, n_points=2)

    @pytest.mark.parametrize("line", ["2\t0", "0\t5", "1\t0,1"],
                             ids=["point-out-of-range", "target-out-of-range", "self-target"])
    def test_bad_records_are_rejected_on_read(self, tmp_path, line):
        path = tmp_path / "s.tsv"
        path.write_text(f"0\t1\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidGraphSampleError, match=r":2: "):
            read_graph_sample(path, n_points=2)

    def test_malformed_line_is_a_package_error(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\n1\t1\n", encoding="utf-8")
        with pytest.raises(InvalidGraphSampleError, match=r":2: observed target set"):
            read_graph_sample(path, n_points=2)


def graph_losses(h, cand, S):
    """Graph loss of h and the candidate on every item of S, from the
    class-level path on the one-member class."""
    H = HypothesisClass([h])
    obs = observed_component_matrix(H, S.xs, S.bsets)
    return (obs != class_component_matrix(H, cand)[:, S.xs])[0]


class TestGraphLoss:
    @given(graph_sample_instances(), st.integers(0, 7))
    def test_matches_component_difference_on_true_pairs(self, inst, pick):
        """On pairs from the truth, the loss is the absolute component difference."""
        sc, S = inst
        cand = list(sc.graph_class)[pick % len(sc.graph_class)]
        for h in sc.hclass:
            comp_true = oracles.oracle_loss_cells(h, "component", graph=sc.graph)
            comp_cand = oracles.oracle_loss_cells(h, "component", graph=cand)
            for (x, b), loss in zip(S, graph_losses(h, cand, S)):
                assert loss == abs(comp_true[x][0] - comp_cand[x][0])

    @given(graph_sample_instances(), st.integers(0, 7))
    def test_pointwise_matches_oracle(self, inst, pick):
        """The two-case oracle agrees with the vectorized evaluation."""
        sc, S = inst
        cand = list(sc.graph_class)[pick % len(sc.graph_class)]
        for h in sc.hclass:
            for (x, b), loss in zip(S, graph_losses(h, cand, S)):
                assert loss == oracles.oracle_graph_loss(h, cand, x, b)

    @given(scenarios_with_candidates(), st.integers(0, 7))
    def test_true_graph_loss_matches_oracle(self, sc, pick):
        cand = list(sc.graph_class)[pick % len(sc.graph_class)]
        m = sc.dist.marginal()
        for h in sc.hclass:
            want = float(oracles.oracle_true_graph_loss(h, cand, m, sc.graph))
            got = hpx_distance(sc.graph, cand, HypothesisClass([h]), m)
            assert got == pytest.approx(want, abs=1e-12)

    @given(graph_sample_instances(), st.integers(0, 7))
    def test_empirical_graph_loss_matches_oracle(self, inst, pick):
        sc, S = inst
        cand = list(sc.graph_class)[pick % len(sc.graph_class)]
        for h in sc.hclass:
            want = float(oracles.oracle_empirical_graph_loss(h, cand, S))
            got = empirical_sample_distance(cand, HypothesisClass([h]), S)
            assert got == pytest.approx(want, abs=1e-12)


class TestHpxDistance:
    @given(scenarios_with_candidates())
    def test_pseudometric_laws(self, sc):
        """Self distance is zero and the triangle inequality holds with symmetry."""
        m = sc.dist.marginal()
        H = sc.hclass
        gs = [sc.graph] + list(sc.graph_class)
        for g in gs:
            assert hpx_distance(g, g, H, m) == 0.0
        for a in gs:
            for b in gs:
                ab = hpx_distance(a, b, H, m)
                assert ab == pytest.approx(hpx_distance(b, a, H, m), abs=1e-15)
                for c in gs:
                    assert ab <= (
                        hpx_distance(a, c, H, m) + hpx_distance(c, b, H, m) + 1e-12
                    )

    @given(scenarios_with_candidates())
    def test_matches_oracle(self, sc):
        m = sc.dist.marginal()
        for cand in sc.graph_class:
            want = float(oracles.oracle_distance(sc.graph, cand, sc.hclass, m))
            assert hpx_distance(sc.graph, cand, sc.hclass, m) == pytest.approx(want, abs=1e-12)

    def test_rejects_empty_class(self):
        sc = gen_random(n_points=3, n_hypotheses=2, density=0.4, seed=1)
        with pytest.raises(EmptyClassError):
            hpx_distance(sc.graph, sc.graph, HypothesisClass([]), sc.dist.marginal())


class TestEmpiricalDistance:
    @given(graph_sample_instances(), st.integers(0, 7))
    def test_matches_oracle_on_true_samples(self, inst, pick):
        """The empirical distance agrees with the oracle on samples from the truth."""
        sc, S = inst
        cand = list(sc.graph_class)[pick % len(sc.graph_class)]
        want = float(oracles.oracle_empirical_distance(cand, sc.hclass, S))
        assert empirical_sample_distance(cand, sc.hclass, S) == pytest.approx(want, abs=1e-12)

    def test_rejects_empty_sample(self):
        sc = gen_random(n_points=3, n_hypotheses=2, density=0.4, seed=7)
        with pytest.raises(EmptySampleError):
            empirical_sample_distance(sc.graph, sc.hclass, GraphSample([], [], n_points=3))


class TestGraphErm:
    def test_hand_enumerated_two_candidate_case(self):
        # chain truth on three points; the empty candidate disagrees only
        # where the sample shows an escape (one item), the complete candidate
        # invents escapes at two items for the second member
        dom = FiniteDomain(3, coords=[[0.0], [1.0], [2.0]])
        g_empty = ManipulationGraph(dom, [])
        g_complete = ManipulationGraph(
            dom, [(i, j) for i in range(3) for j in range(3) if i != j]
        )
        H = HypothesisClass([Hypothesis([0, 0, 1]), Hypothesis([1, 0, 0])], dom)
        S = GraphSample(
            [0, 1, 2], [frozenset({1}), frozenset({2}), frozenset()], n_points=3
        )
        assert empirical_sample_distance(g_empty, H, S) == pytest.approx(1 / 3, abs=1e-15)
        assert empirical_sample_distance(g_complete, H, S) == pytest.approx(2 / 3, abs=1e-15)
        out = graph_erm(GraphClass([g_empty, g_complete]), H, S)
        assert out.index == 0 and out.tie_count == 1
        assert out.empirical_value == pytest.approx(1 / 3, abs=1e-15)
        assert out.graph == g_empty

    @given(graph_sample_instances())
    def test_selects_first_minimizer(self, inst):
        """graph ERM returns the lowest-index candidate with the least distance."""
        sc, S = inst
        G = GraphClass(list(sc.graph_class))
        out = graph_erm(G, sc.hclass, S)
        scores = [empirical_sample_distance(g, sc.hclass, S) for g in G]
        best = min(scores)
        assert out.empirical_value == pytest.approx(best, abs=1e-12)
        assert out.index == scores.index(best)
        assert out.tie_count == sum(s == best for s in scores)

    @given(graph_sample_instances())
    def test_truth_among_candidates_scores_zero(self, inst):
        """A candidate equal to the truth achieves empirical distance zero."""
        sc, S = inst
        G = GraphClass([list(sc.graph_class)[0], sc.graph]) \
            if list(sc.graph_class)[0] != sc.graph else GraphClass([sc.graph])
        out = graph_erm(G, sc.hclass, S)
        assert out.empirical_value == 0.0

    def test_indistinct_candidates_flag_degeneracy(self):
        # constants cannot see any graph: all distances vanish and every
        # candidate ties
        dom = FiniteDomain(3)
        H = HypothesisClass(
            [Hypothesis([0, 0, 0], ("constant", 0)), Hypothesis([1, 1, 1], ("constant", 1))]
        )
        G = GraphClass(
            [ManipulationGraph(dom, []), ManipulationGraph(dom, [(0, 1)]),
             ManipulationGraph(dom, [(1, 2)])]
        )
        S = GraphSample([0, 1], [frozenset({1}), frozenset()], n_points=3)
        out = graph_erm(G, H, S)
        assert out.tie_count == len(G)
        assert out.index == 0 and out.empirical_value == 0.0

    def test_rejects_duplicate_candidates(self):
        dom = FiniteDomain(2)
        with pytest.raises(ValueError):
            GraphClass([ManipulationGraph(dom, []), ManipulationGraph(dom, [])])


class TestSurrogateBounds:
    @given(scenarios_with_candidates(), st.integers(0, 7), st.integers(0, 7))
    def test_chain_holds_on_members(self, sc, hpick, gpick):
        """The loss transfer chain holds for every member and candidate."""
        h = sc.hclass.members[hpick % len(sc.hclass)]
        cand = list(sc.graph_class)[gpick % len(sc.graph_class)]
        rep = surrogate_bounds(h, sc.graph, cand, sc.hclass, sc.dist)
        assert rep.min_slack() >= -1e-12
        assert rep.lower_tight >= rep.lower - 1e-15

    def test_rejects_non_member(self):
        sc = gen_random(n_points=4, n_hypotheses=2, density=0.4, seed=3, n_graphs=1)
        outside = Hypothesis(1 - sc.hclass[0].labels.astype(int))
        if sc.hclass.index_of(outside) is None:
            with pytest.raises(NotInClassError):
                surrogate_bounds(outside, sc.graph, sc.graph, sc.hclass, sc.dist)

    def test_report_rejects_broken_chain(self):
        with pytest.raises(BoundViolationError):
            SurrogateBoundReport(
                true_strategic=0.9,
                binary=0.1,
                surrogate_component=0.1,
                surrogate_strategic=0.2,
                distance=0.1,
                upper1=0.3,
                upper2=0.5,
                lower=0.0,
                lower_tight=0.05,
            )
