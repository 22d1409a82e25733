"""Tests for pointwise losses, loss tables, expectations, and social burden."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategia import (
    CostModel,
    DomainMismatchError,
    EmptySampleError,
    FiniteDomain,
    GraphClass,
    GraphSample,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    LossKind,
    ManipulationGraph,
    UndefinedBurdenError,
    approximation_error,
    binary_loss,
    class_component_matrix,
    class_social_burden,
    effective_hypothesis,
    expected_loss,
    empirical_loss,
    gen_example2,
    gen_random,
    graph_erm,
    hpx_distance,
    is_incentive_compatible,
    loss_set,
    loss_table,
    social_burden,
    strategic_component_loss,
    strategic_loss,
)
from strategia.losses import (
    class_loss_table,
    component_vector,
    expected_rows,
    observed_component_matrix,
    reach_positive,
)
from strategia import oracles

# exact per-threshold expectations for the four-point one-way chain at
# cell weights (0.25, 0.15, 0.35, 0.25); thresholds sweep 0.5 .. 4.5
CHAIN_P = (0.25, 0.15, 0.35, 0.25)
CHAIN_BINARY = (0.4, 0.15, 0.0, 0.35, 0.6)
CHAIN_STRATEGIC = (0.4, 0.4, 0.15, 0.35, 0.6)
CHAIN_COMPONENT = (0.0, 0.25, 0.15, 0.35, 0.0)


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, min(10, 1 << n)))
    density = draw(st.sampled_from([0.2, 0.4, 0.6]))
    return gen_random(n_points=n, n_hypotheses=m, density=density, seed=seed)


@st.composite
def burden_instances(draw):
    """A sparse graph, a class whose first member rejects everything, and a
    distribution with zero-weight cells, sometimes with no positive mass."""
    n = draw(st.integers(1, 16))
    adj = np.array(draw(st.lists(st.sampled_from([False, False, False, True]),
                                 min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(adj, False)
    g = ManipulationGraph.from_adjacency(FiniteDomain(n), adj)
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
    H = HypothesisClass([Hypothesis([0] * n)] + [Hypothesis(r) for r in rows])
    cells = draw(st.lists(st.integers(-3 * 10**5, 10**6).map(lambda v: max(v, 0)),
                          min_size=2 * n, max_size=2 * n))
    w = np.array(cells, dtype=float).reshape(n, 2)
    if w.sum() == 0:
        w[0, 0] = 1.0
    return H, g, LabeledDistribution(w / w.sum())


@st.composite
def hypothesis_graph_pairs(draw):
    sc = draw(instances())
    h = sc.hclass.members[draw(st.integers(0, len(sc.hclass) - 1))]
    return h, sc.graph, sc.dist


class TestPointwiseLosses:
    @given(hypothesis_graph_pairs())
    def test_strategic_dominated_by_binary_plus_component(self, pair):
        """Pointwise, the strategic loss never exceeds binary plus component."""
        h, g, _ = pair
        for x in range(h.size):
            comp = strategic_component_loss(h, x, g)
            for y in (0, 1):
                assert strategic_loss(h, x, y, g) <= binary_loss(h, x, y) + comp

    @given(hypothesis_graph_pairs())
    def test_strategic_charges_mistake_or_escape(self, pair):
        """Strategic loss is the OR of the binary mistake and the component escape."""
        h, g, _ = pair
        for x in range(h.size):
            comp = strategic_component_loss(h, x, g)
            for y in (0, 1):
                assert strategic_loss(h, x, y, g) == max(binary_loss(h, x, y), comp)

    @given(hypothesis_graph_pairs())
    def test_loss_table_matches_pointwise_calls(self, pair):
        """loss_table cells equal the scalar loss functions everywhere."""
        h, g, _ = pair
        tb = loss_table(LossKind.binary(), h)
        ts = loss_table(LossKind.strategic(g), h)
        tc = loss_table(LossKind.component(g), h)
        for x in range(h.size):
            comp = strategic_component_loss(h, x, g)
            for y in (0, 1):
                assert tb[x, y] == binary_loss(h, x, y)
                assert ts[x, y] == strategic_loss(h, x, y, g)
                assert tc[x, y] == comp

    @given(hypothesis_graph_pairs())
    def test_strategic_set_is_binary_set_plus_lifted_component(self, pair):
        """The strategic loss set decomposes into the binary set and the
        component set lifted to label-0 cells."""
        h, g, _ = pair
        lifted = {(x, 0) for x in loss_set(h, LossKind.component(g))}
        assert loss_set(h, LossKind.strategic(g)) == loss_set(h, LossKind.binary()) | lifted

    @given(hypothesis_graph_pairs())
    def test_component_needs_rejected_point_with_accepted_successor(self, pair):
        h, g, _ = pair
        reach = reach_positive(h, g)
        comp = component_vector(h, g)
        for x in range(h.size):
            assert comp[x] == (not h(x) and reach[x])


class TestChainFixtures:
    def test_exact_expectations_by_threshold(self):
        sc = gen_example2(*CHAIN_P)
        for h, b, s, c in zip(sc.hclass, CHAIN_BINARY, CHAIN_STRATEGIC, CHAIN_COMPONENT):
            assert expected_loss(LossKind.binary(), h, sc.dist) == pytest.approx(b, abs=1e-12)
            assert expected_loss(LossKind.strategic(sc.graph), h, sc.dist) == pytest.approx(s, abs=1e-12)
            assert expected_loss(LossKind.component(sc.graph), h, sc.dist) == pytest.approx(c, abs=1e-12)

    def test_domination_can_be_strict(self):
        # the all-ones threshold pays strategic 0.4 < binary 0.4 + component 0 is
        # tight; the 1.5 threshold pays 0.4 < 0.15 + 0.25 is tight too, but the
        # 2.5 one is strict: 0.15 < 0 + 0.15 fails, so use the sum row by row
        sc = gen_example2(*CHAIN_P)
        sums = [b + c for b, c in zip(CHAIN_BINARY, CHAIN_COMPONENT)]
        assert all(s <= t + 1e-12 for s, t in zip(CHAIN_STRATEGIC, sums))

    def test_approximation_error_is_class_minimum(self):
        sc = gen_example2(*CHAIN_P)
        kind = LossKind.strategic(sc.graph)
        assert approximation_error(sc.hclass, sc.dist, kind) == pytest.approx(
            min(CHAIN_STRATEGIC), abs=1e-12
        )


class TestExpectations:
    @given(hypothesis_graph_pairs())
    def test_expected_loss_matches_oracle(self, pair):
        """Vectorized expectations agree with the rational-arithmetic oracle."""
        h, g, P = pair
        for name, kind in (
            ("binary", LossKind.binary()),
            ("strategic", LossKind.strategic(g)),
            ("component", LossKind.component(g)),
        ):
            want = float(oracles.oracle_expected_loss(h, P, name, graph=g))
            assert expected_loss(kind, h, P) == pytest.approx(want, abs=1e-12)

    @given(hypothesis_graph_pairs(), st.integers(0, 2**32 - 1))
    def test_empirical_loss_matches_oracle(self, pair, seed):
        """Count-based empirical means agree with the per-item oracle."""
        from strategia import draw_sample

        h, g, P = pair
        S = draw_sample(P, 25, seed=seed)
        for name, kind in (
            ("binary", LossKind.binary()),
            ("strategic", LossKind.strategic(g)),
            ("component", LossKind.component(g)),
        ):
            want = float(oracles.oracle_empirical_loss(h, S, name, graph=g))
            assert empirical_loss(kind, h, S) == pytest.approx(want, abs=1e-12)

    @given(hypothesis_graph_pairs())
    def test_component_expectation_ignores_labels(self, pair):
        """Moving mass between the two labels of a point leaves the component
        expectation unchanged."""
        h, g, P = pair
        m = P.marginal()
        flipped = LabeledDistribution(np.stack([m * 0.0 + m, m * 0.0], axis=1))
        kind = LossKind.component(g)
        assert expected_loss(kind, h, P) == pytest.approx(
            expected_loss(kind, h, flipped), abs=1e-12
        )

    def test_empty_sample_rejected(self):
        h = Hypothesis([0, 1])
        with pytest.raises(EmptySampleError):
            empirical_loss(LossKind.binary(), h, LabeledSample([], [], n_points=2))

    def test_domain_mismatch_rejected(self):
        h = Hypothesis([0, 1, 0])
        P = LabeledDistribution([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DomainMismatchError):
            expected_loss(LossKind.binary(), h, P)


class TestEffectiveHypothesis:
    @given(hypothesis_graph_pairs())
    def test_effective_accepts_point_or_successor(self, pair):
        """The effective labeling accepts x iff h does or some successor does."""
        h, g, _ = pair
        eff = effective_hypothesis(h, g)
        nsets = g.neighbor_sets()
        for x in range(h.size):
            assert eff(x) == (h(x) or any(h(j) for j in nsets[x]))

    @given(hypothesis_graph_pairs())
    def test_incentive_compatible_iff_effective_unchanged(self, pair):
        """h is incentive compatible exactly when responding changes nothing."""
        h, g, _ = pair
        assert is_incentive_compatible(h, g) == (effective_hypothesis(h, g) == h)

    def test_effective_is_not_idempotent(self):
        # on a two-hop chain accepting only the far end, one response step
        # reaches one hop back, two steps reach both; the operator must not
        # be folded into a fixed point
        dom = FiniteDomain(3)
        g = ManipulationGraph(dom, [(0, 1), (1, 2)])
        h = Hypothesis([0, 0, 1])
        once = effective_hypothesis(h, g)
        twice = effective_hypothesis(once, g)
        assert list(once.labels) == [0, 1, 1]
        assert list(twice.labels) == [1, 1, 1]
        assert once != twice


class TestSocialBurden:
    def test_unit_edge_values_on_the_chain(self):
        sc = gen_example2(*CHAIN_P)
        h = sc.hclass[3]  # accepts the last point only
        sb = social_burden(h, sc.dist, graph=sc.graph)
        assert sb.numerator == pytest.approx(0.35, abs=1e-12)
        assert sb.conditional == pytest.approx(0.35 / 0.6, abs=1e-12)

    def test_infinite_when_positive_mass_cannot_reach(self):
        sc = gen_example2(*CHAIN_P)
        h = sc.hclass[4]  # rejects everything: no accepted point to reach
        sb = social_burden(h, sc.dist, graph=sc.graph)
        assert math.isinf(sb.conditional) and math.isinf(sb.numerator)

    def test_undefined_without_positive_mass(self):
        dom = FiniteDomain(2)
        g = ManipulationGraph(dom, [(0, 1)])
        P = LabeledDistribution([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(UndefinedBurdenError):
            social_burden(Hypothesis([0, 1]), P, graph=g)

    def test_needs_graph_or_cost_model(self):
        P = LabeledDistribution([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            social_burden(Hypothesis([0, 1]), P)

    def test_cost_model_route_takes_cheapest_accepted(self):
        dom = FiniteDomain(3, coords=[[0.0], [1.0], [5.0]])
        from strategia import coordinate_norm_cost

        P = LabeledDistribution([[0.0, 0.5], [0.25, 0.0], [0.0, 0.25]])
        h = Hypothesis([0, 1, 1])
        cm = CostModel(coordinate_norm_cost(dom), gamma=10.0)
        sb = social_burden(h, P, cost_model=cm)
        # point 0 (weight .5) moves to point 1 at cost 1; point 2 stays free
        assert sb.numerator == pytest.approx(0.5, abs=1e-12)
        assert sb.conditional == pytest.approx(0.5 / 0.75, abs=1e-12)

    @given(hypothesis_graph_pairs())
    def test_matches_oracle_and_normalization(self, pair):
        """Burden agrees with the oracle and conditional * positive mass equals
        the numerator whenever it is finite."""
        h, g, P = pair
        pos = float(P.weights[:, 1].sum())
        try:
            sb = social_burden(h, P, graph=g)
        except UndefinedBurdenError:
            assert pos == 0.0
            return
        want_cond, want_num = oracles.oracle_social_burden(h, P, graph=g)
        if math.isinf(sb.numerator):
            assert math.isinf(want_num)
        else:
            assert sb.numerator == pytest.approx(want_num, abs=1e-12)
            assert sb.conditional * pos == pytest.approx(sb.numerator, abs=1e-12)

    @given(burden_instances())
    def test_class_burden_matches_oracle_and_one_row(self, inst):
        """Every member's class-level burden equals the one-row burden bit for
        bit and the oracle's sequential numerator exactly; the member that
        rejects everything is inf wherever there is positive mass."""
        H, g, P = inst
        if P.weights[:, 1].sum() == 0.0:
            with pytest.raises(UndefinedBurdenError):
                class_social_burden(H, P, g)
            return
        cond, num = class_social_burden(H, P, g)
        assert cond.shape == num.shape == (len(H),)
        assert not np.isnan(num).any()
        assert math.isinf(num[0]) and math.isinf(cond[0])
        for i, h in enumerate(H):
            sb = social_burden(h, P, graph=g)
            assert repr((sb.conditional, sb.numerator)) == repr((float(cond[i]), float(num[i])))
            want_cond, want_num = oracles.oracle_social_burden(h, P, graph=g)
            assert repr(float(num[i])) == repr(want_num)
            assert cond[i] == pytest.approx(want_cond, rel=1e-12)

    def test_unreachable_zero_weight_point_adds_nothing(self):
        """Point 2 reaches no accepted point but carries no positive weight:
        the burden stays finite and is not nan."""
        g = ManipulationGraph(FiniteDomain(3), [(0, 1)])
        P = LabeledDistribution([[0.0, 0.5], [0.0, 0.25], [0.25, 0.0]])
        H = HypothesisClass([Hypothesis([0, 1, 0]), Hypothesis([1, 1, 0])])
        cond, num = class_social_burden(H, P, g)
        assert num.tolist() == [0.5, 0.0]
        assert cond.tolist() == [0.5 / 0.75, 0.0]


class TestClassMatrices:
    @given(instances())
    def test_class_rows_equal_the_one_row_specifications(self, sc):
        """Every class-level matrix row equals its one-row function, and the
        class-level expectations equal expected_loss exactly."""
        H, P, g = sc.hclass, sc.dist, sc.graph
        L, comp = H.labels_matrix(), class_component_matrix(H, g)
        np.testing.assert_array_equal(comp, np.stack([component_vector(h, g) for h in H]))
        for kind in (LossKind.binary(), LossKind.strategic(g), LossKind.component(g)):
            rows = np.stack([loss_table(kind, h) for h in H]).astype(bool)
            np.testing.assert_array_equal(class_loss_table(kind, H), rows)
            assert expected_rows(kind, L, comp, P).tolist() == [expected_loss(kind, h, P) for h in H]

    @given(instances())
    def test_observed_true_successor_sets_give_the_component_matrix(self, sc):
        g = sc.graph
        xs = np.arange(g.size)
        np.testing.assert_array_equal(
            observed_component_matrix(sc.hclass, xs, g.neighbor_sets()),
            class_component_matrix(sc.hclass, g),
        )


class TestWideSuccessorSets:
    """A point with a multiple of 256 accepted successors still reaches one.

    On a star whose centre points at every leaf, the member that accepts all
    leaves and rejects the centre pays the component loss at the centre under
    the star and nowhere under the empty graph.
    """

    @staticmethod
    def _star(leaves):
        dom = FiniteDomain(leaves + 1)
        star = ManipulationGraph(dom, [(0, j) for j in range(1, leaves + 1)])
        H = HypothesisClass([
            Hypothesis([0] + [1] * leaves),
            Hypothesis([0] * (leaves + 1)),
            Hypothesis([0] + [1, 0] * (leaves // 2)),
        ])
        return dom, star, ManipulationGraph(dom), H

    @pytest.mark.parametrize("leaves", [256, 512])
    def test_class_matrix_and_distance_match_oracle(self, leaves):
        dom, star, empty, H = self._star(leaves)
        rows = np.stack([component_vector(h, star) for h in H])
        assert rows[0, 0] and rows[2, 0]
        np.testing.assert_array_equal(class_component_matrix(H, star), rows)
        marginal = np.full(dom.size, 1.0 / dom.size)
        want = oracles.oracle_distance(star, empty, H, marginal)
        assert want == Fraction(marginal[0])  # the centre's weight
        assert hpx_distance(star, empty, H, marginal) == pytest.approx(float(want), abs=1e-12)

    @pytest.mark.parametrize("leaves", [256, 512])
    def test_graph_erm_picks_the_star(self, leaves):
        dom, star, empty, H = self._star(leaves)
        nsets = star.neighbor_sets()
        S = GraphSample([0, 1, 0, 2], [nsets[x] for x in (0, 1, 0, 2)], n_points=dom.size)
        G = GraphClass([empty, star])
        want = [oracles.oracle_empirical_distance(g, H, S) for g in G]
        assert want == [Fraction(1, 2), Fraction(0)]
        out = graph_erm(G, H, S)
        assert (out.index, out.empirical_value, out.tie_count) == (1, 0.0, 1)
