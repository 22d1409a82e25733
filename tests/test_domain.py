"""Tests for domains, graphs, cost models, hypothesis classes, and data types."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategia import (
    CostModel,
    DomainMismatchError,
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    InvalidCostModelError,
    InvalidDistributionError,
    LabeledDistribution,
    LabeledSample,
    ManipulationGraph,
    MissingCoordinatesError,
    constant_class,
    coordinate_norm_cost,
    enumerate_class,
    explicit_class,
    halfspace_class,
    induce_graph,
    singleton_class,
    thresholds_class,
)


@st.composite
def domains(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return FiniteDomain(n, coords=[[float(i)] for i in range(n)])


@st.composite
def edge_lists(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []


@st.composite
def graphs(draw, max_size=6):
    dom = draw(domains(max_size=max_size))
    return ManipulationGraph(dom, draw(edge_lists(dom.size)))


@st.composite
def label_rows(draw, n):
    return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


class TestFiniteDomain:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            FiniteDomain(0)

    def test_rejects_coordinate_row_mismatch(self):
        with pytest.raises(ValueError):
            FiniteDomain(3, coords=[[0.0], [1.0]])

    def test_rejects_nonfinite_coords(self):
        with pytest.raises(ValueError):
            FiniteDomain(2, coords=[[0.0], [float("nan")]])

    def test_flat_coords_become_one_column(self):
        dom = FiniteDomain(3, coords=[0.0, 1.0, 2.0])
        assert dom.coords.shape == (3, 1)
        assert dom.dim == 1

    def test_dim_needs_coords(self):
        with pytest.raises(MissingCoordinatesError):
            FiniteDomain(3).dim

    def test_coords_are_read_only(self):
        dom = FiniteDomain(2, coords=[[0.0], [1.0]])
        with pytest.raises(ValueError):
            dom.coords[0, 0] = 9.0


class TestManipulationGraph:
    def test_rejects_self_loop(self):
        dom = FiniteDomain(3)
        with pytest.raises(ValueError):
            ManipulationGraph(dom, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        dom = FiniteDomain(2)
        with pytest.raises(ValueError):
            ManipulationGraph(dom, [(0, 2)])

    def test_from_adjacency_rejects_diagonal(self):
        dom = FiniteDomain(2)
        with pytest.raises(ValueError):
            ManipulationGraph.from_adjacency(dom, np.eye(2, dtype=bool))

    def test_from_adjacency_rejects_shape_mismatch(self):
        dom = FiniteDomain(3)
        with pytest.raises(ValueError):
            ManipulationGraph.from_adjacency(dom, np.zeros((2, 2), dtype=bool))

    @given(graphs())
    def test_edges_round_trip(self, g):
        """Rebuilding a graph from its edge list reproduces it exactly."""
        assert ManipulationGraph(g.domain, g.edges()) == g

    @given(graphs())
    def test_successor_views_agree(self, g):
        """successors and neighbor_sets expose the same adjacency."""
        nsets = g.neighbor_sets()
        for x in range(g.size):
            assert frozenset(int(j) for j in g.successors(x)) == nsets[x]

    @given(graphs())
    def test_edge_count_matches_edges(self, g):
        """edge_count equals the length of the edge list."""
        assert g.edge_count() == len(g.edges())

    def test_equality_and_hash_follow_adjacency(self):
        dom = FiniteDomain(3)
        a = ManipulationGraph(dom, [(0, 1), (1, 2)])
        b = ManipulationGraph(dom, [(1, 2), (0, 1)])
        c = ManipulationGraph(dom, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestCostModels:
    def test_norm_costs_on_the_plane(self):
        dom = FiniteDomain(2, coords=[[0.0, 0.0], [3.0, 4.0]])
        assert coordinate_norm_cost(dom, p=1.0)(0, 1) == pytest.approx(7.0)
        assert coordinate_norm_cost(dom, p=2.0)(0, 1) == pytest.approx(5.0)
        assert coordinate_norm_cost(dom, p=float("inf"))(0, 1) == pytest.approx(4.0)

    def test_norm_cost_needs_coords(self):
        with pytest.raises(MissingCoordinatesError):
            coordinate_norm_cost(FiniteDomain(2))

    def test_induce_graph_thresholds_at_gamma(self):
        # unit spacing: gamma 1.0 keeps adjacent pairs only, in both directions
        dom = FiniteDomain(3, coords=[[0.0], [1.0], [2.0]])
        g = induce_graph(dom, CostModel(coordinate_norm_cost(dom), gamma=1.0))
        assert sorted(g.edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_induce_graph_rejects_nonzero_diagonal(self):
        dom = FiniteDomain(2, coords=[[0.0], [1.0]])
        with pytest.raises(InvalidCostModelError):
            induce_graph(dom, CostModel(lambda i, j: 1.0, gamma=2.0))

    def test_induce_graph_rejects_negative_cost(self):
        dom = FiniteDomain(2, coords=[[0.0], [1.0]])
        with pytest.raises(InvalidCostModelError):
            induce_graph(dom, CostModel(lambda i, j: -1.0 if i != j else 0.0, gamma=1.0))

    def test_cost_matrix_reports_the_first_bad_pair_in_row_major_order(self):
        """fn is called once per ordered pair; the first pair in row-major
        order that breaks the contract names the error, whichever rule it
        breaks."""
        calls = []
        bad = {(0, 2): -1.0, (1, 0): float("nan"), (1, 1): 2.0, (2, 0): float("inf")}

        def fn(i, j):
            calls.append((i, j))
            return bad.get((i, j), float(i != j))

        with pytest.raises(InvalidCostModelError, match=r"^cost\(0,2\) = -1\.0 is not finite nonnegative$"):
            CostModel(fn, gamma=1.0).matrix(3)
        assert calls == [(i, j) for i in range(3) for j in range(3)]
        del bad[(0, 2)], bad[(1, 0)]
        with pytest.raises(InvalidCostModelError, match=r"^cost\(1,1\) = 2\.0, expected 0$"):
            CostModel(fn, gamma=1.0).matrix(3)


class TestHypothesis:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Hypothesis([0, 2, 1])

    def test_labels_are_read_only(self):
        h = Hypothesis([0, 1])
        with pytest.raises(ValueError):
            h.labels[0] = True

    def test_call_returns_int_labels(self):
        h = Hypothesis([0, 1, 1])
        assert [h(x) for x in range(3)] == [0, 1, 1]
        assert list(h.positives()) == [1, 2]

    def test_equality_ignores_descriptor(self):
        assert Hypothesis([0, 1], ("constant", 0)) != Hypothesis([1, 1])
        assert Hypothesis([0, 1]) == Hypothesis([0, 1], ("singleton", 1))


class TestDescriptorValidation:
    def test_threshold_descriptor_must_match(self):
        dom = FiniteDomain(3, coords=[[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            HypothesisClass([Hypothesis([1, 1, 1], ("threshold", 0, 1.5))], dom)

    def test_singleton_descriptor_must_match(self):
        dom = FiniteDomain(3)
        with pytest.raises(ValueError):
            HypothesisClass([Hypothesis([0, 1, 1], ("singleton", 1))], dom)

    def test_constant_descriptor_must_match(self):
        dom = FiniteDomain(2)
        with pytest.raises(ValueError):
            HypothesisClass([Hypothesis([0, 1], ("constant", 1))], dom)

    def test_halfspace_descriptor_must_match(self):
        dom = FiniteDomain(2, coords=[[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            HypothesisClass([Hypothesis([0, 0], ("halfspace", (1.0, 0.0), 0.0))], dom)


class TestHypothesisClass:
    def test_dedup_keeps_first_occurrence(self):
        first = Hypothesis([0, 1], ("singleton", 1))
        dup = Hypothesis([0, 1])
        H = HypothesisClass([first, dup, Hypothesis([1, 1])])
        assert len(H) == 2
        assert H[0].descriptor == ("singleton", 1)

    def test_rejects_size_mismatch(self):
        dom = FiniteDomain(3)
        with pytest.raises(DomainMismatchError):
            HypothesisClass([Hypothesis([0, 1])], dom)

    @given(st.integers(2, 5), st.data())
    def test_labels_matrix_stacks_members(self, n, data):
        """labels_matrix row i equals member i's labels."""
        rows = [data.draw(label_rows(n)) for _ in range(4)]
        H = HypothesisClass([Hypothesis(r) for r in rows])
        mat = H.labels_matrix()
        assert mat.shape == (len(H), n)
        for i, h in enumerate(H):
            assert np.array_equal(mat[i], h.labels)

    def test_index_of_finds_distinct_labelings(self):
        H = HypothesisClass([Hypothesis([0, 1]), Hypothesis([1, 0])])
        assert H.index_of(Hypothesis([1, 0])) == 1
        assert H.index_of(Hypothesis([1, 1])) is None

    def test_find_descriptor_matches_kind_and_tail(self):
        dom = FiniteDomain(2, coords=[[0.0], [1.0]])
        H = thresholds_class(dom)
        h = H.find_descriptor("threshold", 0, 0.5)
        assert h is not None and list(h.labels) == [0, 1]
        assert H.find_descriptor("threshold", 0, 99.0) is None
        assert H.find_descriptor("halfspace") is None


class TestFamilies:
    @given(st.integers(1, 8))
    def test_thresholds_give_one_more_than_distinct_values(self, n):
        """A line with k distinct coordinates yields exactly k+1 thresholds."""
        dom = FiniteDomain(n, coords=[[float(i)] for i in range(n)])
        H = thresholds_class(dom)
        assert len(H) == n + 1
        assert list(H[0].labels) == [1] * n
        assert list(H[-1].labels) == [0] * n

    def test_thresholds_collapse_repeated_values(self):
        dom = FiniteDomain(4, coords=[[0.0], [0.0], [1.0], [1.0]])
        assert len(thresholds_class(dom)) == 3

    def test_singleton_class_default_covers_domain(self):
        H = singleton_class(FiniteDomain(4))
        assert len(H) == 4
        assert all(h.descriptor == ("singleton", i) for i, h in enumerate(H))

    def test_constant_class_has_both_constants(self):
        H = constant_class(FiniteDomain(3))
        assert [list(h.labels) for h in H] == [[0, 0, 0], [1, 1, 1]]

    def test_halfspace_class_evaluates_affine_sign(self):
        dom = FiniteDomain(3, coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        H = halfspace_class(dom, weights=[[1.0, -1.0]], biases=[0.0])
        assert list(H[0].labels) == [1, 1, 0]

    def test_halfspace_class_rejects_bad_weight_dim(self):
        dom = FiniteDomain(2, coords=[[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            halfspace_class(dom, weights=[[1.0]], biases=[0.0])

    def test_explicit_class_dedups(self):
        H = explicit_class(FiniteDomain(2), [[0, 1], [0, 1], [1, 1]])
        assert len(H) == 2

    def test_enumerate_class_dispatch(self):
        dom = FiniteDomain(3, coords=[[0.0], [1.0], [2.0]])
        assert len(enumerate_class({"family": "thresholds"}, dom)) == 4
        assert len(enumerate_class({"family": "constants"}, dom)) == 2
        assert len(enumerate_class({"family": "singletons", "points": [0, 2]}, dom)) == 2
        assert len(enumerate_class({"family": "explicit", "labels": [[0, 0, 1]]}, dom)) == 1

    def test_enumerate_class_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            enumerate_class({"family": "parabolas"}, FiniteDomain(2))

    def test_enumerate_class_needs_family_key(self):
        with pytest.raises(ValueError):
            enumerate_class({"axis": 0}, FiniteDomain(2))


class TestLabeledDistribution:
    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidDistributionError):
            LabeledDistribution([0.5, 0.5])

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidDistributionError):
            LabeledDistribution([[0.6, -0.1], [0.25, 0.25]])

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidDistributionError):
            LabeledDistribution([[0.4, 0.4], [0.4, 0.4]])

    def test_rejects_domain_size_mismatch(self):
        with pytest.raises(DomainMismatchError):
            LabeledDistribution([[0.5, 0.5]], domain=FiniteDomain(2))

    def test_marginal_and_eta(self):
        P = LabeledDistribution([[0.1, 0.3], [0.6, 0.0]])
        assert np.allclose(P.marginal(), [0.4, 0.6])
        assert P.eta(0) == pytest.approx(0.75)
        assert P.eta(1) == 0.0

    def test_eta_undefined_on_zero_marginal(self):
        P = LabeledDistribution([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InvalidDistributionError):
            P.eta(0)

    def test_support_lists_positive_cells(self):
        P = LabeledDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert P.support() == [(0, 0), (1, 1)]


class TestLabeledSample:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            LabeledSample([0, 1], [0, 2], n_points=2)

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            LabeledSample([0, 3], [0, 1], n_points=2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledSample([0, 1], [0], n_points=2)

    @given(st.integers(1, 5), st.data())
    def test_counts_match_direct_tally(self, n, data):
        """counts() agrees with a per-item tally of (point, label) pairs."""
        xs = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=20))
        ys = data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
        S = LabeledSample(xs, ys, n_points=n)
        expect = np.zeros((n, 2), dtype=int)
        for x, y in zip(xs, ys):
            expect[x, y] += 1
        assert np.array_equal(S.counts(), expect)
        assert len(S) == len(xs)
